"""Unit tests for the Rho (relaxed hierarchical ORAM) controller."""

import pytest

from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.oram.rho import RhoController, scaled_small_levels
from repro.oram.types import PathType, Request, RequestKind
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator


@pytest.fixture
def rho():
    return build_scheme("Rho", SystemConfig.tiny()).controller


def drive(controller, request, now=0, limit=200):
    controller.enqueue(request)
    slots = 0
    while request.completion is None and slots < limit:
        result = controller.step(now, allow_dummy=True)
        assert result is not None
        now = max(now + 1, result.finish_write)
        slots += 1
    return now


class TestSizing:
    def test_small_levels_scale_with_llc(self):
        assert scaled_small_levels(25, llc_lines=32768) in (17, 18, 19)
        assert scaled_small_levels(15, llc_lines=2048) <= 14

    def test_small_tree_never_taller_than_main(self):
        assert scaled_small_levels(5, llc_lines=1 << 20) == 4


class TestPattern:
    def test_pattern_alternates_main_and_small(self, rho):
        """With an empty queue, slots alternate dummy types 1:2."""
        types = []
        now = 0
        for _ in range(9):
            result = rho.step(now, allow_dummy=True)
            assert result.issued_path
            size = len(
                rho.small_layout.path_addresses(0)
            )
            types.append(result.path_type)
            now = max(now + 1, result.finish_write)
        smalls = rho.stats.get("rho.small_dummies")
        mains = rho.stats.get("paths.PTm") - smalls
        assert mains == 3
        assert smalls == 6

    def test_promotion_after_main_access(self, rho):
        request = Request(block=3, kind=RequestKind.READ, arrival=0)
        drive(rho, request)
        assert 3 in rho.side_map
        assert not rho.posmap.is_mapped(3)
        assert rho.stats.get("rho.promotions") >= 1

    def test_second_access_hits_small_structures(self, rho):
        first = Request(block=3, kind=RequestKind.READ, arrival=0)
        now = drive(rho, first)
        second = Request(block=3, kind=RequestKind.READ, arrival=now)
        drive(rho, second, now=now)
        hits = (
            rho.stats.get("rho.small_hits")
            + rho.stats.get("rho.small_stash_hits")
        )
        assert hits >= 1

    def test_small_budget_enforced(self):
        config = SystemConfig.tiny()
        controller = RhoController(config, small_levels=4)
        now = 0
        for block in range(controller.side_budget + 20):
            request = Request(block=block, kind=RequestKind.READ, arrival=now)
            now = drive(controller, request, now=now, limit=400)
        active = len(controller.side_map) - len(controller._evicting)
        assert active <= controller.side_budget
        assert controller.stats.get("rho.small_evictions") > 0

    def test_extraction_round_trip(self):
        config = SystemConfig.tiny()
        controller = RhoController(config, small_levels=3)
        now = 0
        blocks = list(range(controller.side_budget + 8))
        for block in blocks:
            request = Request(block=block, kind=RequestKind.READ, arrival=now)
            now = drive(controller, request, now=now, limit=400)
        # flush pending migration work
        for _ in range(300):
            if not controller.has_any_real_work():
                break
            result = controller.step(now, allow_dummy=True)
            if result is None:
                break
            now = max(now + 1, result.finish_write)
        reinserted = controller.stats.get("rho.main_reinserts")
        assert reinserted > 0
        # re-inserted blocks are mapped again in the main tree
        for block in blocks:
            in_small = block in controller.side_map
            pending = block in controller._pending_main_insert
            assert in_small or pending or controller.posmap.is_mapped(block)

    def test_full_run_all_paths_same_two_shapes(self):
        config = SystemConfig.tiny()
        components = build_scheme("Rho", config)
        sizes = set()
        components.controller.observer = lambda rec: sizes.add(
            len(rec.read_addresses)
        )
        trace = make_workload("random", config, 250, seed=4)
        Simulator(components, trace).run()
        # main-tree paths and small-tree paths: exactly two public shapes
        assert len(sizes) <= 2
