"""Tests for the sweep fan-out.

Point fan-out itself (input order, serial/parallel bit-identity,
``engine_map``) is covered in ``tests/test_engine.py``.
"""

from repro.config import SystemConfig
from repro.analysis.sweep import sweep_parameter


class TestSweepJobs:
    def test_sweep_parallel_identical(self):
        config = SystemConfig.tiny()
        kwargs = dict(
            values=[50, 100],
            scheme="Baseline",
            workload="random",
            config=config,
            records=120,
            seed=5,
        )
        serial = sweep_parameter("issue_interval", jobs=1, **kwargs)
        parallel = sweep_parameter("issue_interval", jobs=2, **kwargs)
        assert [p.cycles for p in serial.points] == [
            p.cycles for p in parallel.points
        ]

