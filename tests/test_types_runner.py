"""Edge-case tests: request types, runner, result helpers, run_all wiring."""

import pytest

from repro.api import RunSpec, run
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.experiments.run_all import ALL_EXPERIMENTS
from repro.oram.types import PathType, Request, RequestKind
from repro.sim.results import SimulationResult
from repro.sim.runner import make_workload
from repro.traces.benchmarks import BENCHMARKS, benchmark_trace


class TestRequest:
    def test_merge_counts_waiters(self):
        request = Request(block=1, kind=RequestKind.READ, arrival=0)
        request.merge()
        request.merge()
        assert request.waiters == 3

    def test_defaults(self):
        request = Request(block=1, kind=RequestKind.WRITEBACK, arrival=5)
        assert request.completion is None
        assert request.paths_used == 0
        assert not request.is_write


class TestPathType:
    def test_is_posmap(self):
        assert PathType.POS1.is_posmap
        assert PathType.POS2.is_posmap
        assert not PathType.DATA.is_posmap
        assert not PathType.DUMMY.is_posmap

    def test_values_stable(self):
        # experiment counters key off these strings
        assert PathType.DATA.value == "PTd"
        assert PathType.DUMMY.value == "PTm"
        assert PathType.POS1.value == "PTp.pos1"


class TestRunner:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            make_workload("nope", SystemConfig.tiny(), 100)

    def test_workload_names(self):
        config = SystemConfig.tiny()
        for name in ("mix", "random", "gcc"):
            trace = make_workload(name, config, 50)
            assert len(trace) >= 48

    def test_run_benchmark_default_config(self):
        result = run(RunSpec(
            scheme="Baseline", workload="gcc", config=SystemConfig.tiny(),
            records=100,
        )).result
        assert isinstance(result, SimulationResult)


class TestDistanceScale:
    def test_scales_scan_region(self, ):
        import random

        model = BENCHMARKS["gcc"]
        small = benchmark_trace(
            model, 16384, 600, random.Random(1), distance_scale=0.25
        )
        large = benchmark_trace(
            model, 16384, 600, random.Random(1), distance_scale=1.0
        )
        # a smaller scan region means fewer distinct blocks
        assert small.footprint() <= large.footprint() * 1.2


class TestRunAllWiring:
    def test_every_regenerator_registered(self):
        names = [name for name, _, _ in ALL_EXPERIMENTS]
        for expected in (
            "Table I", "Table II", "Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5",
            "Fig. 6", "Fig. 7", "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13",
            "Fig. 14", "Fig. 15", "Fig. 16", "Ablation", "Z-search",
        ):
            assert expected in names

    def test_ids_unique(self):
        names = [name for name, _, _ in ALL_EXPERIMENTS]
        assert len(names) == len(set(names))


class TestExport:
    def test_export_subset(self, tmp_path):
        from repro.experiments.export import export

        path = export(str(tmp_path / "out.md"), ids=["Table I", "Fig. 7"])
        text = path.read_text()
        assert "Table I" in text
        assert "Fig. 7" in text
        assert "Fig. 10" not in text
