"""Workload construction and the IR-Alloc search's evaluation callback.

:func:`make_workload` is the canonical workload factory (the facade itself
calls it).  Runs go through :func:`repro.api.run`.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from ..config import ORAMConfig, SystemConfig
from ..errors import ConfigError
from ..traces.benchmarks import BENCHMARKS, benchmark_trace
from ..traces.mix import standard_mix
from ..traces.synthetic import random_trace
from ..traces.trace import Trace


def make_workload(
    name: str,
    config: SystemConfig,
    records: int,
    seed: int = 7,
) -> Trace:
    """Build a named workload: a Table II benchmark, ``mix``, or ``random``."""
    rng = random.Random(seed)
    user_blocks = config.oram.user_blocks
    llc_lines = config.llc.lines
    if name == "mix":
        return standard_mix(user_blocks, records, rng, llc_lines=llc_lines)
    if name == "random":
        return random_trace(records, user_blocks, rng, gap=30)
    if name in BENCHMARKS:
        return benchmark_trace(
            BENCHMARKS[name], user_blocks, records, rng, llc_lines=llc_lines
        )
    raise ConfigError(
        f"unknown workload {name!r}; options: {sorted(BENCHMARKS)} + mix/random"
    )


def random_trace_evaluator(
    base_config: SystemConfig,
    records: int = 1500,
    seed: int = 99,
) -> Callable[[ORAMConfig], Dict[str, float]]:
    """Evaluation callback for the IR-Alloc greedy Z-search.

    Returns a function mapping an :class:`ORAMConfig` candidate to
    ``{"cycles": ..., "evictions": ...}`` measured on a random trace — the
    paper's worst case for middle-level utilization.
    """

    def evaluate(oram: ORAMConfig) -> Dict[str, float]:
        from .. import api

        config = base_config.with_oram(oram)
        trace = make_workload("random", config, records, seed)
        # 'Baseline' here only selects the plain composition; the candidate
        # allocation rides in through the config itself.
        result = api.run(
            api.RunSpec(
                scheme="Baseline", workload="random", seed=seed,
                config=config, trace=trace,
            )
        ).result
        return {
            "cycles": float(result.cycles),
            "evictions": result.background_evictions(),
        }

    return evaluate
