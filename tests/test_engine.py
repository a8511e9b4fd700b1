"""Tests for the warm-pool execution engine and its artifact caches."""

import json
import os

import pytest

from repro import api
from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.oram.controller import PathORAMController
from repro.perf import engine
from repro.perf.engine import SimPoint, run_points
from repro.stats import Stats


@pytest.fixture(autouse=True)
def isolated_engine(tmp_path, monkeypatch):
    """Every test gets a private cache dir and a fresh engine."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    engine.reset()
    yield
    engine.reset()


def _points(schemes, records=200, seed=7):
    config = SystemConfig.tiny()
    return [
        SimPoint(scheme, "mix", records=records, seed=seed, config=config)
        for scheme in schemes
    ]


class TestFingerprint:
    def test_stable_and_equal_for_equal_configs(self):
        a = SystemConfig.tiny()
        b = SystemConfig.tiny()
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 16

    def test_any_field_change_changes_it(self):
        base = SystemConfig.tiny()
        variants = [
            SystemConfig.tiny(levels=10),
            base.with_oram(base.oram.with_z_vector(
                [3] + list(base.oram.z_per_level[1:])
            )),
            SystemConfig.scaled(),
        ]
        prints = {config.fingerprint() for config in variants}
        assert base.fingerprint() not in prints
        assert len(prints) == len(variants)


class TestBitIdentity:
    def test_artifact_injection_is_invisible(self):
        spec = api.RunSpec(
            scheme="IR-ORAM", workload="mix", records=250,
            config=SystemConfig.tiny(),
        )
        cold = api.run(spec)
        warm = api.run(spec, artifacts=engine.get_cache())
        warm2 = api.run(spec, artifacts=engine.get_cache())
        assert cold.cycles == warm.cycles == warm2.cycles
        assert cold.result.counters == warm.result.counters
        assert cold.result.counters == warm2.result.counters

    def test_engine_counters_stay_out_of_results(self):
        spec = api.RunSpec(
            scheme="Baseline", workload="mix", records=200,
            config=SystemConfig.tiny(),
        )
        out = api.run(spec, artifacts=engine.get_cache())
        assert not any(
            key.startswith("engine.") for key in out.result.counters
        )
        assert any(
            key.startswith("engine.") for key in out.stats.counters
        )

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_run_points_matches_serial_loop(self, jobs):
        points = _points(["Baseline", "IR-ORAM", "LLC-D", "Rho"])
        serial = [
            api.run(api.RunSpec(
                scheme=p.scheme, workload=p.workload, records=p.records,
                seed=p.seed, config=p.config,
            ))
            for p in points
        ]
        results, wall = run_points(points, jobs=jobs)
        assert wall > 0
        assert [item.point for item in results] == points
        for ref, item in zip(serial, results):
            assert ref.result.cycles == item.result.cycles
            assert ref.result.counters == item.result.counters

    def test_run_many_engine_backed(self):
        specs = [
            api.RunSpec(scheme=scheme, workload="mix", records=150,
                        config=SystemConfig.tiny())
            for scheme in ("Baseline", "IR-Stash")
        ]
        serial = api.run_many(specs, jobs=1)
        parallel = api.run_many(specs, jobs=2)
        assert [out.cycles for out in serial] == [
            out.cycles for out in parallel
        ]


class TestArtifactCache:
    def test_memory_hits_after_first_run(self):
        cache = engine.get_cache()
        config = SystemConfig.tiny()
        spec = api.RunSpec(scheme="Baseline", workload="mix", records=150,
                           config=config)
        api.run(spec, artifacts=cache)
        before = dict(cache.counters)
        api.run(spec, artifacts=cache)
        for key in ("engine.trace_hits", "engine.layout_hits",
                    "engine.triples_hits"):
            assert cache.counters[key] > before.get(key, 0)

    def test_disk_round_trip_warm_start(self):
        points = _points(["Baseline", "LLC-D"])
        cold, _ = run_points(points, jobs=1)
        engine.get_cache().flush()
        engine.reset()  # simulate a brand-new process, same cache dir
        warm, _ = run_points(points, jobs=1)
        agg = engine.aggregate_engine_counters(warm)
        assert agg.get("engine.triples_disk_hits", 0) > 0
        assert agg.get("engine.trace_disk_hits", 0) > 0
        for a, b in zip(cold, warm):
            assert a.result.cycles == b.result.cycles
            assert a.result.counters == b.result.counters

    def test_disk_cache_can_be_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        points = _points(["Baseline"])
        run_points(points, jobs=1)
        engine.get_cache().flush()
        assert not os.path.exists(
            os.path.join(engine.cache_root(), "triples")
        )

    def test_trace_reconstruction_identical(self):
        from repro.sim.runner import make_workload

        cache = engine.get_cache()
        config = SystemConfig.tiny()
        first = cache.trace_for("mix", config, 200, 11)
        cache.flush()
        engine.reset()
        reloaded = engine.get_cache().trace_for("mix", config, 200, 11)
        direct = make_workload("mix", config, 200, 11)
        assert reloaded.name == first.name == direct.name
        assert list(reloaded.records) == list(first.records)
        assert list(reloaded.records) == list(direct.records)

    def test_attach_skips_rho(self):
        cache = engine.get_cache()
        config = SystemConfig.tiny()
        components = build_scheme("Rho", config, Stats())
        controller = components.controller
        layout_before = controller.layout
        cache.attach(controller)
        assert controller.layout is layout_before

    def test_attach_shares_layout_between_plain_controllers(self):
        cache = engine.get_cache()
        config = SystemConfig.tiny()
        first = build_scheme("Baseline", config, Stats()).controller
        second = build_scheme("LLC-D", config, Stats()).controller
        cache.attach(first)
        cache.attach(second)
        assert first.layout is second.layout
        assert first._path_dram is second._path_dram


class TestPathDramFifo:
    def test_fifo_evicts_oldest_not_everything(self, monkeypatch):
        monkeypatch.setattr(PathORAMController, "PATH_CACHE_LIMIT", 3)
        controller = PathORAMController(SystemConfig.tiny())
        controller._path_dram.clear()
        for leaf in (0, 1, 2):
            controller._path_dram_triples(leaf)
        assert sorted(controller._path_dram) == [0, 1, 2]
        controller._path_dram_triples(3)  # evicts leaf 0 only
        assert sorted(controller._path_dram) == [1, 2, 3]
        controller._path_dram_triples(4)  # evicts leaf 1 only
        assert sorted(controller._path_dram) == [2, 3, 4]

    def test_reinserted_leaf_yields_same_triples(self, monkeypatch):
        monkeypatch.setattr(PathORAMController, "PATH_CACHE_LIMIT", 2)
        controller = PathORAMController(SystemConfig.tiny())
        controller._path_dram.clear()
        original = controller._path_dram_triples(0)
        controller._path_dram_triples(1)
        controller._path_dram_triples(2)  # leaf 0 falls out
        assert 0 not in controller._path_dram
        assert controller._path_dram_triples(0) == original


class TestZSearchCache:
    def test_second_search_is_a_disk_hit(self):
        config = SystemConfig.tiny()
        first = engine.cached_z_allocation(config, records=80, seed=5)
        cache = engine.get_cache()
        misses = cache.counters.get("engine.zsearch_misses", 0)
        second = engine.cached_z_allocation(config, records=80, seed=5)
        assert cache.counters.get("engine.zsearch_hits", 0) >= 1
        assert cache.counters.get("engine.zsearch_misses", 0) == misses
        assert tuple(second.z_per_level) == tuple(first.z_per_level)

    def test_different_parameters_miss(self):
        config = SystemConfig.tiny()
        engine.cached_z_allocation(config, records=80, seed=5)
        cache = engine.get_cache()
        engine.cached_z_allocation(config, records=80, seed=6)
        assert cache.counters.get("engine.zsearch_misses", 0) >= 2

    def test_memoized_evaluator_calls_once_per_vector(self):
        calls = []

        def evaluate(oram):
            calls.append(tuple(oram.z_per_level))
            return {"cycles": 100.0, "evictions": 0.0}

        wrapped = engine.memoized_evaluator(evaluate)
        oram = SystemConfig.tiny().oram
        assert wrapped(oram) == wrapped(oram)
        assert len(calls) == 1


class TestPriors:
    def test_observe_predict_round_trip(self, tmp_path):
        store = engine.PriorStore(str(tmp_path / "priors.json"))
        store.observe_point("Baseline", "mix", 1000, 2.0)
        assert store.predict("points", "Baseline/mix") == pytest.approx(
            0.002
        )
        # EWMA folds new observations in instead of overwriting.
        store.observe_point("Baseline", "mix", 1000, 4.0)
        assert store.predict("points", "Baseline/mix") == pytest.approx(
            0.003
        )

    def test_save_and_reload(self, tmp_path):
        path = str(tmp_path / "priors.json")
        store = engine.PriorStore(path)
        store.observe("experiments", "Fig. 10", 12.5)
        store.save()
        reloaded = engine.PriorStore(path)
        assert reloaded.predict("experiments", "Fig. 10") == 12.5

    def test_corrupt_store_degrades_gracefully(self, tmp_path):
        path = tmp_path / "priors.json"
        path.write_text("{not json", encoding="utf-8")
        store = engine.PriorStore(str(path))
        assert store.predict("points", "anything") is None

    def test_unknown_point_cost_ranks_by_records(self, tmp_path):
        store = engine.PriorStore(str(tmp_path / "priors.json"))
        assert store.point_cost("X", "y", 2000) > store.point_cost(
            "X", "y", 100
        )

    def test_run_points_records_priors(self):
        run_points(_points(["Baseline"]), jobs=1)
        priors_path = os.path.join(engine.cache_root(), "priors.json")
        with open(priors_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert "Baseline/mix" in data.get("points", {})


class TestEngineMap:
    def test_cost_order_does_not_change_results(self):
        items = list(range(6))
        plain = engine.engine_map(_double, items, jobs=2)
        costed = engine.engine_map(
            _double, items, jobs=2, cost=lambda n: -n
        )
        assert plain == costed == [n * 2 for n in items]

    def test_pool_persists_between_calls(self):
        engine.engine_map(_double, [1, 2, 3], jobs=2)
        engine.engine_map(_double, [4, 5, 6], jobs=2)
        counters = engine.engine_counters()
        assert counters.get("engine.pool_starts") == 1
        assert counters.get("engine.pool_reuses", 0) >= 1

    def test_env_change_recreates_pool(self, monkeypatch):
        engine.engine_map(_double, [1, 2, 3], jobs=2)
        monkeypatch.setenv("REPRO_FASTPATH", os.environ.get(
            "REPRO_FASTPATH", "1"
        ) + "x")
        engine.engine_map(_double, [4, 5, 6], jobs=2)
        assert engine.engine_counters().get("engine.pool_starts") == 2

    def test_serial_never_touches_pool(self):
        assert engine.engine_map(_double, [1, 2, 3], jobs=1) == [2, 4, 6]
        assert engine.engine_counters().get("engine.pool_starts") is None


def _double(n):
    return n * 2


class TestBenchProfile:
    def test_profile_report_shape(self, monkeypatch):
        from repro.perf import bench

        monkeypatch.setattr(bench, "SMOKE_SCHEMES", ["Baseline"])
        monkeypatch.setattr(bench, "SMOKE_WORKLOADS", ["random"])
        monkeypatch.setattr(bench, "SMOKE_RECORDS", 120)
        monkeypatch.setattr(bench, "SMOKE_KERNEL_PATHS", 100)
        monkeypatch.setattr(bench, "KERNEL_SCHEMES", ["Baseline"])
        report = bench.run_bench(smoke=True, jobs=4, profile=True)
        assert report["jobs"] == 1  # profiling forces serial
        sections = set(report["profile"])
        # "batch" rides along whenever the native batch kernel ran.
        assert sections - {"batch"} == {"suite", "kernel"}
        for name in ("suite", "kernel"):
            rows = report["profile"][name]
            assert rows and all(
                {"func", "calls", "tottime", "cumtime"} <= set(row)
                for row in rows
            )
        for row in report["profile"].get("batch", []):
            assert {"phase", "ms"} <= set(row)
        assert "engine" in report
        text = bench.format_report(report)
        assert "profile [suite]" in text
        if "batch" in sections:
            assert "profile [batch]" in text
