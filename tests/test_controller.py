"""Unit and protocol tests for the Path ORAM controller.

The central invariant is *block conservation*: at any point, every block of
the merged namespace lives in exactly one of — the tree, the stash, the
PLB (+ its victim buffer), or outside the ORAM by design (LLC-D blocks and
Rho's small tree).  The helper below audits the whole controller.
"""

import random

import pytest

from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.errors import ProtocolError
from repro.oram.controller import ONCHIP_LATENCY, PathORAMController
from repro.oram.tree import EMPTY
from repro.oram.types import PathType, Request, RequestKind


def audit_block_locations(controller, extra_holders=()):
    """Return {block: [holders]} for every namespace block."""
    locations = {b: [] for b in range(controller.namespace.total_blocks)}
    tree = controller.tree
    for level in range(tree.levels):
        for position in range(1 << level):
            for block in tree.bucket(level, position):
                if block != EMPTY:
                    locations[block].append(f"tree@L{level}")
    for block, _ in controller.stash.items():
        locations[block].append("stash")
    for block in controller.plb._cache.contents():
        locations[block].append("plb")
    for block in controller._limbo:
        locations[block].append("limbo")
    for holder_name, holder in extra_holders:
        for block in holder:
            locations[block].append(holder_name)
    return locations


def assert_conservation(controller, allowed_external=frozenset()):
    locations = audit_block_locations(controller)
    for block, holders in locations.items():
        if block in allowed_external:
            continue
        assert len(holders) == 1, f"block {block} held by {holders}"


def read_request(block, arrival=0):
    return Request(block=block, kind=RequestKind.READ, arrival=arrival)


@pytest.fixture
def controller():
    return build_scheme("Baseline", SystemConfig.tiny()).controller


class TestInitialization:
    def test_every_block_exactly_once(self, controller):
        assert_conservation(controller)

    def test_mapped_blocks_on_their_paths(self, controller):
        tree = controller.tree
        posmap = controller.posmap
        for level in range(tree.levels):
            for position in range(1 << level):
                for block in tree.bucket(level, position):
                    if block == EMPTY:
                        continue
                    leaf = posmap.leaf_of(block)
                    assert tree.path_position(leaf, level) == position

    def test_treetop_mirror_consistent(self):
        components = build_scheme("IR-Stash", SystemConfig.tiny())
        controller = components.controller
        tree = controller.tree
        resident = set()
        for level in range(controller.oram.top_cached_levels):
            for position in range(1 << level):
                for block in tree.bucket(level, position):
                    if block != EMPTY:
                        resident.add(block)
        assert resident == set(controller.treetop._resident)


class TestFullAccess:
    def test_serves_and_remaps(self, controller):
        request = read_request(0)
        chain = controller._translation_chain(0)
        for pm in chain:
            controller.fetch_posmap_block(pm, 0)
        before = controller.posmap.leaf_of(0)
        result = controller.full_access(0, PathType.DATA, 0, request)
        assert result.issued_path
        assert request.completion == result.finish_read
        assert result.finish_write >= result.finish_read > 0
        # remapped (new leaf drawn; may rarely collide, so check membership)
        assert 0 in controller.stash or controller.posmap.leaf_of(0) >= 0
        assert_conservation(controller)

    def test_conservation_over_many_accesses(self, controller):
        rng = random.Random(9)
        now = 0
        for _ in range(60):
            block = rng.randrange(controller.namespace.user_blocks)
            request = read_request(block, arrival=now)
            controller.enqueue(request)
            while controller.has_pending_work(now):
                result = controller.step(now, allow_dummy=False)
                if result is None:
                    break
                now = max(now + 1, result.finish_write)
        assert_conservation(controller)

    def test_path_counters(self, controller):
        chain = controller._translation_chain(5)
        for pm in chain:
            controller.fetch_posmap_block(pm, 0)
        controller.full_access(5, PathType.DATA, 0, read_request(5))
        assert controller.stats.get("paths.PTd") == 1
        assert controller.stats.get("paths.total") == 1 + len(chain)

    def test_memory_traffic_matches_pl(self, controller):
        chain = controller._translation_chain(5)
        for pm in chain:
            controller.fetch_posmap_block(pm, 0)
        before = controller.stats.get("mem.blocks_read")
        controller.full_access(5, PathType.DATA, 0, read_request(5))
        delta = controller.stats.get("mem.blocks_read") - before
        assert delta == controller.oram.blocks_per_path()


class TestInstantServicing:
    def test_stash_hit_served_instantly(self, controller):
        block = next(iter(controller.stash.blocks()), None)
        if block is None:
            controller.stash.add(0, controller.posmap.leaf_of(0))
            # remove the tree copy to keep conservation
            leaf = controller.posmap.leaf_of(0)
            tree = controller.tree
            for level, position, slots in tree.path_buckets(leaf):
                if 0 in slots:
                    tree.set_slot(level, position, slots.index(0), EMPTY)
                    tree.level_used[level] -= 1
            block = 0
        request = read_request(block, arrival=5)
        controller.enqueue(request)
        result = controller.step(5, allow_dummy=False)
        assert request in result.completions
        assert request.completion == 5 + ONCHIP_LATENCY

    def test_dummy_path_when_idle(self, controller):
        result = controller.step(0, allow_dummy=True)
        assert result is not None
        assert result.path_type is PathType.DUMMY

    def test_no_dummy_when_disallowed(self, controller):
        assert controller.step(0, allow_dummy=False) is None


class TestTimingProtectionShape:
    def test_all_path_types_same_footprint(self, controller):
        """Obliviousness: every path access touches the same addresses
        pattern regardless of type."""
        records = []
        controller.observer = records.append
        controller.dummy_path(0)
        chain = controller._translation_chain(3)
        now = 1000
        for pm in chain:
            controller.fetch_posmap_block(pm, now)
            now += 1000
        controller.full_access(3, PathType.DATA, now, read_request(3))
        sizes = {len(record.read_addresses) for record in records}
        assert len(sizes) == 1
        for record in records:
            assert sorted(record.read_addresses) == sorted(
                record.write_addresses
            )


class TestBackgroundEviction:
    def test_eviction_path_triggers_over_threshold(self, controller):
        # artificially inflate the stash above threshold with free blocks
        donor = []
        tree = controller.tree
        for level in range(tree.levels - 1, -1, -1):
            for position in range(1 << level):
                for slot, block in enumerate(tree.bucket(level, position)):
                    if block != EMPTY:
                        donor.append((block, level, position, slot))
                if len(donor) > controller.oram.eviction_threshold:
                    break
            if len(donor) > controller.oram.eviction_threshold:
                break
        for block, level, position, slot in donor:
            tree.set_slot(level, position, slot, EMPTY)
            tree.level_used[level] -= 1
            controller.stash.add(block, controller.posmap.leaf_of(block))
        result = controller.step(0, allow_dummy=False)
        assert result is not None
        assert result.path_type is PathType.EVICTION
        assert controller.stats.get("eviction.paths") == 1
        assert_conservation(controller)


class TestDelayedRemap:
    def test_read_extracts_block(self):
        components = build_scheme("LLC-D", SystemConfig.tiny())
        controller = components.controller
        assert controller.delayed_remap
        block = 7
        now = 0
        request = read_request(block)
        controller.enqueue(request)
        while request.completion is None:
            result = controller.step(now, allow_dummy=False)
            assert result is not None
            now = max(now + 1, result.finish_write)
        assert not controller.posmap.is_mapped(block)
        assert block not in controller.stash
        assert_conservation(controller, allowed_external={block})

    def test_reinsert_restores_mapping(self):
        components = build_scheme("LLC-D", SystemConfig.tiny())
        controller = components.controller
        block, now = 7, 0
        request = read_request(block)
        controller.enqueue(request)
        while request.completion is None:
            result = controller.step(now, allow_dummy=False)
            now = max(now + 1, result.finish_write)
        reinsert = Request(block=block, kind=RequestKind.REINSERT, arrival=now)
        controller.enqueue(reinsert)
        while reinsert.completion is None:
            result = controller.step(now, allow_dummy=False)
            assert result is not None
            now = max(now + 1, result.finish_write)
        assert controller.posmap.is_mapped(block)
        assert block in controller.stash
        assert_conservation(controller)


class TestPosmapExclusivePLB:
    def test_fetched_posmap_block_leaves_tree(self, controller):
        pm2 = controller.namespace.posmap2_base
        assert controller.posmap.is_mapped(pm2)
        controller.fetch_posmap_block(pm2, 0)
        assert controller.plb.contains(pm2)
        assert not controller.posmap.is_mapped(pm2)
        assert_conservation(controller)

    def test_victim_reinserted_via_stash(self):
        config = SystemConfig.tiny()
        controller = build_scheme("Baseline", config).controller
        ns = controller.namespace
        # fill the PLB far beyond capacity with pos2 fetches (parent always
        # on chip), forcing victim re-inserts
        now = 0
        capacity = config.oram.plb_sets * config.oram.plb_ways
        pm2_count = config.oram.posmap2_blocks
        fetched = 0
        for pm2 in range(ns.posmap2_base, ns.posmap2_base + pm2_count):
            if controller.plb.contains(pm2) or pm2 in controller._limbo:
                continue
            if pm2 in controller.stash:
                continue
            controller.fetch_posmap_block(pm2, now)
            now += 1000
            fetched += 1
        if fetched > capacity:
            assert controller.stats.get("plb.reinserts") > 0
        assert_conservation(controller)
