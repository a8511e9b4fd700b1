"""Tests for the warm-pool execution engine and its artifact caches."""

import os
import shutil
import time

import pytest

from repro import api
from repro.config import SystemConfig
from repro.perf import engine


@pytest.fixture(autouse=True)
def isolated_engine(tmp_path, monkeypatch):
    """Every test gets a private cache dir and a fresh engine."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    engine.reset()
    yield
    engine.reset()


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
        """``api.run_many`` over warm workers and the shared artifact
        cache returns what a cold serial ``api.run`` loop returns."""
        specs = [
            api.RunSpec(scheme=scheme, workload="mix", records=200,
                        config=SystemConfig.tiny())
            for scheme in ("Baseline", "IR-ORAM", "LLC-D", "Rho")
        ]
        serial = [api.run(spec) for spec in specs]
        outs = api.run_many(specs, jobs=jobs)
        assert [out.spec for out in outs] == specs
        for ref, out in zip(serial, outs):
            assert out.wall_s > 0
            assert ref.result.cycles == out.result.cycles
            assert ref.result.counters == out.result.counters

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
        assert cache.counters["engine.trace_hits"] > before.get(
            "engine.trace_hits", 0
        )

    def test_disk_cache_can_be_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        config = SystemConfig.tiny()
        engine.cached_z_allocation(config, records=80, seed=5)
        engine.cached_z_allocation(config, records=80, seed=5)
        assert engine.get_cache().counters.get("engine.zsearch_hits") is None
        assert not os.path.exists(os.path.join(engine.cache_root(), "zsearch"))


class TestCodeSalt:
    def test_salt_covers_every_package_source(self, tmp_path):
        """Editing a simulator source the old hand-kept list skipped (the
        controller) must change the salt that keys the Z-search memo."""
        package = os.path.dirname(os.path.dirname(engine.__file__))
        copy = tmp_path / "repro"
        shutil.copytree(
            package, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        assert engine._code_salt(str(copy)) == engine.code_salt()
        controller = copy / "oram" / "controller.py"
        controller.write_bytes(controller.read_bytes() + b"\n# edited\n")
        assert engine._code_salt(str(copy)) != engine.code_salt()


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


class TestEngineMap:
    def test_cost_sets_no_deadline(self):
        """With no ``timeout`` a task has no deadline: it may run as long
        as it needs."""
        out = engine.engine_map(_sleep_then_double, [1, 2], jobs=2)
        assert out == [2, 4]
        assert engine.engine_counters().get("engine.timeouts") is None

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


def _sleep_then_double(n):
    time.sleep(1.0)
    return n * 2
