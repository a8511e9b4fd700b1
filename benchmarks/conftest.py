"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures through
its regenerator's ``run``, at a reduced scale so the whole harness
completes in minutes.  Each ``run`` simulates its own points; nothing is
shared between benchmarks.  Environment knobs:

* ``REPRO_BENCH_RECORDS``   — trace length per workload (default 1200);
* ``REPRO_BENCH_WORKLOADS`` — comma-separated workload subset
  (default ``gcc,mcf,lbm,dee``);
* ``REPRO_BENCH_FULL=1``    — run at full experiment scale (slow).
"""

import os

import pytest

from repro.config import SystemConfig
from repro.experiments import common

FULL = os.environ.get("REPRO_BENCH_FULL") == "1"


def bench_records(default: int = 1200) -> int:
    if FULL:
        return common.RECORDS
    return int(os.environ.get("REPRO_BENCH_RECORDS", default))


def bench_workloads():
    if FULL:
        return list(common.ALL_WORKLOADS)
    raw = os.environ.get("REPRO_BENCH_WORKLOADS", "gcc,mcf,lbm,dee")
    return [name.strip() for name in raw.split(",") if name.strip()]


@pytest.fixture(scope="session")
def bench_config() -> SystemConfig:
    if FULL:
        return SystemConfig.scaled()
    return SystemConfig.scaled(levels=13)


def regenerate(benchmark, fn, *args, **kwargs):
    """Run an experiment once under pytest-benchmark timing."""
    result = benchmark.pedantic(
        lambda: fn(*args, **kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    assert result.rows
    print()
    print(result.to_text())
    return result
