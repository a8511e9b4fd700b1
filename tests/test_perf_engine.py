"""Tests for the sweep fan-out and the bench harness.

Point fan-out itself (input order, serial/parallel bit-identity,
``engine_map``) is covered in ``tests/test_engine.py``.
"""

import pytest

from repro.config import SystemConfig
from repro.perf import bench
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


class TestBench:
    @pytest.fixture(scope="class")
    def report(self):
        # Trimmed smoke run: enough to exercise every report field.
        original = (
            bench.SMOKE_SCHEMES,
            bench.SMOKE_WORKLOADS,
            bench.SMOKE_RECORDS,
            bench.SMOKE_KERNEL_PATHS,
            bench.KERNEL_SCHEMES,
        )
        bench.SMOKE_SCHEMES = ["Baseline"]
        bench.SMOKE_WORKLOADS = ["random"]
        bench.SMOKE_RECORDS = 150
        bench.SMOKE_KERNEL_PATHS = 200
        bench.KERNEL_SCHEMES = ["Baseline"]
        try:
            yield bench.run_bench(smoke=True, jobs=1)
        finally:
            (
                bench.SMOKE_SCHEMES,
                bench.SMOKE_WORKLOADS,
                bench.SMOKE_RECORDS,
                bench.SMOKE_KERNEL_PATHS,
                bench.KERNEL_SCHEMES,
            ) = original

    def test_report_shape(self, report):
        assert report["suite"] == "smoke"
        assert report["points"] and report["kernel"]
        for row in report["points"]:
            assert row["paths_per_s"] > 0
            assert row["cycles"] > 0
        assert report["suite_paths_per_s"] > 0

    def test_check_passes_against_self(self, report):
        assert bench.check_report(report, report) == []

    def test_check_flags_regression(self, report):
        inflated = dict(report)
        inflated["suite_paths_per_s"] = report["suite_paths_per_s"] * 10
        inflated["kernel"] = [
            dict(row, paths_per_s=row["paths_per_s"] * 10)
            for row in report["kernel"]
        ]
        failures = bench.check_report(report, inflated, max_regression=2.0)
        assert any("suite" in f for f in failures)
        assert any("kernel" in f for f in failures)

    def test_save_load_round_trip(self, report, tmp_path):
        path = tmp_path / "bench.json"
        bench.save_report(report, str(path))
        assert bench.load_report(str(path)) == report

    def test_format_report(self, report):
        text = bench.format_report(report)
        assert "Baseline" in text
        assert "paths/s" in text
