"""Unit tests for the ORAM tree."""

import random
from array import array

import pytest

from repro.errors import ProtocolError
from repro.oram.tree import EMPTY, ORAMTree

from tests.conftest import make_oram


@pytest.fixture
def tree():
    return ORAMTree(make_oram(levels=6, top=2))


class TestGeometry:
    def test_bucket_index_heap_order(self):
        assert ORAMTree.bucket_index(0, 0) == 0
        assert ORAMTree.bucket_index(1, 1) == 2
        assert ORAMTree.bucket_index(3, 5) == 12

    def test_bucket_bounds_checked(self, tree):
        with pytest.raises(ProtocolError):
            tree.bucket(6, 0)
        with pytest.raises(ProtocolError):
            tree.bucket(2, 4)

    def test_path_position(self, tree):
        # leaf 5 = 0b00101 over 6 levels (leaf bits = 5 of 32 leaves)
        assert tree.path_position(5, 0) == 0
        assert tree.path_position(5, 5) == 5
        assert tree.path_position(31, 1) == 1

    def test_path_buckets_skips_zero_z(self):
        oram = make_oram(levels=6, top=2).with_z_vector((4, 4, 0, 4, 4, 4))
        tree = ORAMTree(oram)
        levels = [level for level, _, _ in tree.path_buckets(0)]
        assert 2 not in levels
        assert levels == [0, 1, 3, 4, 5]

    def test_deepest_common_level(self, tree):
        assert tree.deepest_common_level(0, 0) == 5
        assert tree.deepest_common_level(0, 31) == 0
        assert tree.deepest_common_level(0b10000, 0b10001) == 4

    def test_flat_layout_with_zero_z_level(self):
        oram = make_oram(levels=6, top=2).with_z_vector((4, 4, 0, 4, 4, 4))
        tree = ORAMTree(oram)
        offset = [0, 4, 12, 12, 44, 108]
        assert tree.offset == offset
        assert len(tree._slots) == 108 + 4 * 32
        # tag every slot with its own array index
        for index in range(len(tree._slots)):
            tree._slots[index] = index
        for level, z in enumerate(oram.z_per_level):
            for position in range(1 << level):
                start = offset[level] + position * z
                assert tree.bucket(level, position) == list(
                    range(start, start + z)
                )
        assert tree.bucket(2, 3) == []


class TestPlacement:
    def test_place_fills_first_free_slot(self, tree):
        assert tree.place(3, 2, 77)
        assert tree.bucket(3, 2)[0] == 77
        assert tree.level_used[3] == 1

    def test_place_rejects_full_bucket(self, tree):
        for block in range(4):
            assert tree.place(3, 2, block)
        assert not tree.place(3, 2, 99)
        assert tree.level_used[3] == 4

    def test_free_slots(self, tree):
        assert tree.free_slots(2, 1) == 4
        tree.place(2, 1, 5)
        assert tree.free_slots(2, 1) == 3

    def test_read_and_clear_returns_blocks_with_levels(self, tree):
        tree.place(0, 0, 10)
        tree.place(5, 7, 20)
        removed = dict(tree.read_and_clear(7))
        assert removed == {10: 0, 20: 5}
        assert tree.total_used() == 0

    def test_read_and_clear_misses_other_paths(self, tree):
        tree.place(5, 7, 20)
        removed = tree.read_and_clear(8)
        assert removed == []
        assert tree.level_used[5] == 1

    def test_utilization_accounting(self, tree):
        tree.place(1, 0, 1)
        tree.place(1, 1, 2)
        util = tree.level_utilization()
        assert util[1] == pytest.approx(2 / 8)
        tree.read_and_clear(0)
        assert tree.level_utilization()[1] == pytest.approx(1 / 8)


class TestInitialize:
    def test_all_blocks_placed_or_overflowed(self):
        oram = make_oram(levels=8, top=2)
        tree = ORAMTree(oram)
        rng = random.Random(7)
        leaves = array(
            "q", (rng.randrange(oram.leaves) for _ in range(oram.user_blocks))
        )
        overflow = tree.initialize(leaves, rng)
        assert tree.total_used() + len(overflow) == oram.user_blocks
        # at ~50% provisioning, overflow should be rare
        assert len(overflow) < oram.user_blocks * 0.02

    def test_initialized_blocks_lie_on_their_paths(self):
        oram = make_oram(levels=7, top=2)
        tree = ORAMTree(oram)
        rng = random.Random(3)
        leaves = array("q", (rng.randrange(oram.leaves) for _ in range(200)))
        tree.initialize(leaves, rng)
        for level in range(7):
            for position in range(1 << level):
                for block in tree.bucket(level, position):
                    if block == EMPTY:
                        continue
                    assert tree.path_position(leaves[block], level) == position

    def test_occupied_tree_rejected(self, tree):
        tree.place(3, 2, 77)
        with pytest.raises(ProtocolError):
            tree.initialize(array("q", [0, 0]), random.Random(1))
        assert tree.bucket(3, 2) == [77, EMPTY, EMPTY, EMPTY]
        assert tree.total_used() == 1

    def test_bottom_heavy_placement(self):
        oram = make_oram(levels=8, top=2)
        tree = ORAMTree(oram)
        rng = random.Random(5)
        leaves = array(
            "q", (rng.randrange(oram.leaves) for _ in range(oram.user_blocks))
        )
        tree.initialize(leaves, rng)
        util = tree.level_utilization()
        assert util[7] > util[3]
