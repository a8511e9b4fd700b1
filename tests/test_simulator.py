"""Integration tests for the full-system simulator."""

import random

import pytest

from repro.api import RunSpec, run
from repro.config import SystemConfig
from repro.core.schemes import SCHEMES, build_scheme
from repro.oram.types import PathType
from repro.sim.results import SimulationResult
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator
from repro.traces.synthetic import random_trace, zipf_trace
from repro.traces.trace import Trace


@pytest.fixture
def config():
    return SystemConfig.tiny()


def quick_run(scheme, config, records=250, workload="random", seed=5):
    return run(RunSpec(
        scheme=scheme, workload=workload, config=config, records=records,
        seed=seed,
    )).result


class TestEndToEnd:
    def test_baseline_completes(self, config):
        result = quick_run("Baseline", config)
        assert result.cycles > 0
        assert result.total_paths() > 0
        assert result.counters["requests.read"] > 0

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_every_scheme_completes(self, scheme, config):
        result = quick_run(scheme, config, records=200)
        assert result.cycles > 0

    def test_deterministic_given_seed(self, config):
        first = quick_run("Baseline", config, seed=3)
        second = quick_run("Baseline", config, seed=3)
        assert first.cycles == second.cycles
        assert first.path_counts == second.path_counts

    def test_different_seed_differs(self, config):
        first = quick_run("Baseline", config, seed=3)
        second = quick_run("Baseline", config, seed=4)
        assert first.cycles != second.cycles

    def test_llc_filters_requests(self, config):
        rng = random.Random(1)
        hot = zipf_trace(400, 64, rng, alpha=1.5)
        result = run(RunSpec(
            scheme="Baseline", trace=hot, config=config, seed=1
        )).result
        # with a 64-block footprint and a larger LLC, almost everything hits
        assert result.counters["hierarchy.demand_misses"] < 100

    def test_writeback_requests_generated(self, config):
        result = quick_run("Baseline", config, records=1200, workload="lbm")
        assert result.counters.get("requests.wb", 0) > 0

    def test_llc_d_generates_reinserts(self, config):
        result = quick_run("LLC-D", config, records=1200, workload="lbm")
        assert result.counters.get("requests.reinsert", 0) > 0
        assert result.counters.get("requests.wb", 0) == 0

    def test_dummy_paths_only_with_timing_protection(self, config):
        with_protection = quick_run("Baseline", config, workload="gcc",
                                    records=600)
        no_protection = SystemConfig.tiny(timing_protection=False)
        without = quick_run("Baseline", no_protection, workload="gcc",
                            records=600)
        assert without.path_counts[PathType.DUMMY.value] == 0
        assert with_protection.cycles > 0

    def test_instructions_accounted(self, config):
        result = quick_run("Baseline", config, records=300)
        assert result.instructions > 0
        assert 0 < result.ipc < 8

    def test_utilization_snapshots_recorded(self, config):
        trace = make_workload("random", config, 300, seed=2)
        components = build_scheme("Baseline", config)
        result = Simulator(components, trace).run(utilization_snapshots=3)
        assert len(result.utilization_series) >= 3
        for _, snapshot in result.utilization_series:
            assert len(snapshot) == config.oram.levels
            assert all(0.0 <= u <= 1.0 for u in snapshot)


class TestSimulationResult:
    @pytest.fixture
    def result(self, config):
        return quick_run("Baseline", config, records=400)

    def test_distribution_sums_to_one(self, result):
        dist = result.path_type_distribution()
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_speedup_identity(self, result):
        assert result.speedup_over(result) == pytest.approx(1.0)

    def test_memory_accesses_positive(self, result):
        assert result.memory_accesses() > 0

    def test_posmap_paths_consistent(self, result):
        assert result.posmap_paths() == (
            result.path_counts[PathType.POS1.value]
            + result.path_counts[PathType.POS2.value]
        )

    def test_eviction_cycle_share_bounded(self, result):
        assert 0.0 <= result.eviction_cycle_share() <= 1.0


class TestSchemeBehaviour:
    def test_ir_alloc_reduces_memory_traffic(self, config):
        baseline = quick_run("Baseline", config, records=600)
        ir_alloc = quick_run("IR-Alloc", config, records=600)
        base_per_path = baseline.memory_accesses() / baseline.total_paths()
        alloc_per_path = ir_alloc.memory_accesses() / ir_alloc.total_paths()
        assert alloc_per_path < base_per_path

    def test_ir_alloc_faster_on_intense_workload(self):
        config = SystemConfig.scaled(levels=13)
        baseline = quick_run("Baseline", config, records=1500, workload="mcf")
        ir_alloc = quick_run("IR-Alloc", config, records=1500, workload="mcf")
        assert ir_alloc.cycles < baseline.cycles

    def test_ir_stash_never_more_posmap_paths(self):
        config = SystemConfig.scaled(levels=13)
        baseline = quick_run("Baseline", config, records=1500, workload="dee")
        ir_stash = quick_run("IR-Stash", config, records=1500, workload="dee")
        assert ir_stash.posmap_paths() <= baseline.posmap_paths()

    def test_rho_conserves_user_blocks(self, config):
        components = build_scheme("Rho", config)
        trace = make_workload("random", config, 400, seed=9)
        Simulator(components, trace).run()
        controller = components.controller
        ns = controller.namespace
        from repro.oram.tree import EMPTY

        holders = {}
        for level in range(controller.tree.levels):
            for position in range(1 << level):
                for block in controller.tree.bucket(level, position):
                    if block != EMPTY:
                        holders[block] = holders.get(block, 0) + 1
        for level in range(controller.small_tree.levels):
            for position in range(1 << level):
                for block in controller.small_tree.bucket(level, position):
                    if block != EMPTY:
                        holders[block] = holders.get(block, 0) + 1
        for holder in (
            controller.stash.blocks(),
            controller.side_stash.blocks(),
            list(controller.plb.contents()),
            list(controller._limbo),
            list(controller.main_insert_queue),
        ):
            for block in holder:
                holders[block] = holders.get(block, 0) + 1
        # every namespace block is held exactly once
        for block in range(ns.total_blocks):
            assert holders.get(block, 0) == 1, f"block {block}"
