"""Property-based tests (hypothesis) on core data structures and invariants."""

import random
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssocCache
from repro.config import CacheConfig, DRAMConfig, ORAMConfig
from repro.core.ir_stash import _md5_index
from repro.mem.dram import DRAMModel
from repro.mem.layout import TreeLayout
from repro.oram.stash import Stash
from repro.oram.tree import EMPTY, ORAMTree
from repro.oram.types import Namespace

from tests.conftest import make_oram

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestTreeProperties:
    @common_settings
    @given(
        leaf_a=st.integers(0, (1 << 8) - 1),
        leaf_b=st.integers(0, (1 << 8) - 1),
    )
    def test_deepest_common_level_is_prefix_length(self, leaf_a, leaf_b):
        tree = ORAMTree(make_oram(levels=9, top=3))
        depth = tree.deepest_common_level(leaf_a, leaf_b)
        # paths agree at every level up to depth and diverge right after
        for level in range(depth + 1):
            assert tree.path_position(leaf_a, level) == tree.path_position(
                leaf_b, level
            )
        if depth < 8:
            assert tree.path_position(leaf_a, depth + 1) != (
                tree.path_position(leaf_b, depth + 1)
            )

    @common_settings
    @given(data=st.data())
    def test_place_then_clear_conserves(self, data):
        tree = ORAMTree(make_oram(levels=7, top=2))
        placements = data.draw(
            st.lists(
                st.tuples(st.integers(0, 6), st.integers(0, 63)),
                min_size=1,
                max_size=40,
            )
        )
        placed = 0
        for i, (level, raw_position) in enumerate(placements):
            position = raw_position % (1 << level)
            if tree.place(level, position, 1000 + i):
                placed += 1
        assert tree.total_used() == placed
        for leaf in range(64):
            tree.read_and_clear(leaf)
        assert tree.total_used() == 0
        assert all(count == 0 for count in tree.level_used)

    @common_settings
    @given(leaf=st.integers(0, 63))
    def test_read_and_clear_only_touches_path(self, leaf):
        tree = ORAMTree(make_oram(levels=7, top=2))
        rng = random.Random(leaf)
        blocks = {}
        for i in range(30):
            level = rng.randrange(7)
            position = rng.randrange(1 << level)
            if tree.place(level, position, i):
                blocks[i] = (level, position)
        removed = dict(tree.read_and_clear(leaf))
        for block, level in removed.items():
            assert blocks[block][1] == tree.path_position(leaf, level)


class TestLayoutProperties:
    @common_settings
    @given(leaf=st.integers(0, (1 << 8) - 1))
    def test_path_addresses_unique_and_stable(self, leaf):
        layout = TreeLayout(make_oram(levels=9, top=3), DRAMConfig())
        addrs = layout.path_addresses(leaf)
        assert len(addrs) == len(set(addrs))
        assert addrs == layout.path_addresses(leaf)

    @common_settings
    @given(
        leaf_a=st.integers(0, (1 << 8) - 1),
        leaf_b=st.integers(0, (1 << 8) - 1),
    )
    def test_paths_share_exactly_common_prefix_slots(self, leaf_a, leaf_b):
        oram = make_oram(levels=9, top=3)
        layout = TreeLayout(oram, DRAMConfig())
        tree = ORAMTree(oram)
        shared = set(layout.path_addresses(leaf_a)) & set(
            layout.path_addresses(leaf_b)
        )
        depth = tree.deepest_common_level(leaf_a, leaf_b)
        shared_levels = max(0, depth - 3 + 1)  # memory levels only (>= top)
        assert len(shared) == shared_levels * 4


class TestCacheProperties:
    @common_settings
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 40), st.booleans()),
            min_size=1,
            max_size=120,
        )
    )
    def test_matches_reference_lru_model(self, ops):
        config = CacheConfig(sets=4, ways=2)
        cache = SetAssocCache(config)
        reference = [OrderedDict() for _ in range(4)]
        for block, is_write in ops:
            lines = reference[block % 4]
            if block in lines:
                lines.move_to_end(block)
                if is_write:
                    lines[block] = True
            else:
                if len(lines) >= 2:
                    lines.popitem(last=False)
                lines[block] = is_write
            cache.access(block, is_write)
        model = {}
        for lines in reference:
            model.update(lines)
        assert cache.contents() == model

    @common_settings
    @given(
        blocks=st.lists(st.integers(0, 1000), min_size=1, max_size=100)
    )
    def test_occupancy_never_exceeds_capacity(self, blocks):
        config = CacheConfig(sets=4, ways=2)
        cache = SetAssocCache(config)
        for block in blocks:
            cache.access(block, False)
        assert cache.occupancy() <= config.lines
        for index in range(config.sets):
            lru = cache.lru_line(index)
            if lru is not None:
                assert cache.is_lru(lru[0])


class TestStashProperties:
    @common_settings
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 30), st.integers(0, 255)),
            min_size=1,
            max_size=80,
        ),
        targets=st.lists(st.integers(0, 255), min_size=1, max_size=4),
    )
    def test_add_remove_consistency(self, ops, targets):
        stash = Stash(1000)
        model = {}
        order = []
        for remap, block, leaf in ops:
            if block in model and remap:
                # A re-map to any 8-bit leaf, usually in another subtree.
                stash.update_leaf(block, leaf)
                model[block] = leaf
            elif block in model:
                assert stash.remove(block) == model.pop(block)
                order.remove(block)
            else:
                stash.add(block, leaf)
                model[block] = leaf
                order.append(block)
        assert len(stash) == len(model)
        for block, leaf in model.items():
            assert stash.leaf_of(block) == leaf
        # Survivors iterate in first-insertion order; a re-map keeps the
        # block's place.
        assert stash.blocks() == order
        assert [block for block, _ in stash.items()] == order
        tree = ORAMTree(make_oram(levels=9, top=3))
        for target in targets:
            reference = [[] for _ in range(9)]
            for block, leaf in stash.items():
                depth = tree.deepest_common_level(target, leaf)
                reference[depth].append(block)
            assert stash.path_pools(target, 9) == reference


class TestNamespaceProperties:
    @common_settings
    @given(block=st.integers(0, 4095))
    def test_posmap_chain_terminates_at_posmap3(self, block):
        ns = Namespace(make_oram(levels=12, user_blocks=4096))
        hops = 0
        current = block
        while ns.parent_block(current) is not None:
            current = ns.parent_block(current)
            hops += 1
            assert hops <= 2
        from repro.oram.types import BlockKind

        assert ns.kind_of(current) in (BlockKind.POSMAP2,)
        index = ns.posmap3_index(current)
        assert 0 <= index < ns.config.posmap3_entries

    @common_settings
    @given(user=st.integers(0, 4095))
    def test_fanout_grouping(self, user):
        ns = Namespace(make_oram(levels=12, user_blocks=4096))
        pm1 = ns.posmap1_block(user)
        group = [u for u in range(4096) if ns.posmap1_block(u) == pm1]
        assert len(group) == 16
        assert user in group


class TestDRAMProperties:
    @common_settings
    @given(
        addresses=st.lists(st.integers(0, 4000), min_size=1, max_size=60),
        start=st.integers(0, 10_000),
    )
    def test_finish_after_start_and_monotone(self, addresses, start):
        dram = DRAMModel(DRAMConfig())
        finish = dram.service_addresses(addresses, False, start)
        assert finish >= start
        later = dram.service_addresses(addresses, False, finish)
        assert later >= finish

    @common_settings
    @given(addresses=st.lists(st.integers(0, 4000), min_size=1, max_size=60))
    def test_counters_track_batch_size(self, addresses):
        dram = DRAMModel(DRAMConfig())
        dram.service_addresses(addresses, False, 0)
        assert dram.stats.get("dram.accesses") == len(addresses)
        hits = dram.stats.get("dram.row_hits")
        conflicts = dram.stats.get("dram.row_conflicts")
        assert hits + conflicts <= len(addresses)


class TestMD5IndexProperties:
    @common_settings
    @given(block=st.integers(0, 2**40), sets=st.sampled_from([1, 8, 64, 1024]))
    def test_in_range_and_stable(self, block, sets):
        index = _md5_index(block, sets)
        assert 0 <= index < sets
        assert index == _md5_index(block, sets)

    def test_distributes_evenly(self):
        counts = [0] * 16
        for block in range(4096):
            counts[_md5_index(block, 16)] += 1
        assert max(counts) < 2 * min(counts)
