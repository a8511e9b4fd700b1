"""Unit and property tests for the Ring ORAM controller.

The hypothesis properties pin the four protocol invariants the ISSUE
names: ReadPath touches exactly one slot per bucket, valid-slot
accounting survives EarlyReshuffle, EvictPath follows the
reverse-lexicographic schedule, and the ring stash stays within its
bound (tracked via the high-water mark).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.oram.ring import (
    RING_EVICT_RATE,
    RING_S,
    RING_Z,
    _bit_reverse,
    scaled_ring_levels,
)
from repro.oram.tree import EMPTY
from repro.oram.types import PathType, Request, RequestKind
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator
from repro.validate.invariants import InvariantAuditor

from tests.conftest import derived_seed


@pytest.fixture
def ring():
    return build_scheme("Ring", SystemConfig.tiny()).controller


def drive(controller, request, now=0, limit=200):
    controller.enqueue(request)
    slots = 0
    while request.completion is None and slots < limit:
        result = controller.step(now, allow_dummy=True)
        assert result is not None
        now = max(now + 1, result.finish_write)
        slots += 1
    assert request.completion is not None
    return now


def drive_blocks(controller, blocks, rng, now=0):
    for block in blocks:
        request = Request(
            block=block,
            kind=RequestKind.READ,
            arrival=now,
            is_write=rng.random() < 0.4,
        )
        now = drive(controller, request, now=now, limit=400)
    return now


class TestSizing:
    def test_ring_levels_scale_with_llc(self):
        assert scaled_ring_levels(25, llc_lines=32768) >= 10
        assert scaled_ring_levels(9, llc_lines=256) <= 8

    def test_ring_tree_never_taller_than_main(self):
        assert scaled_ring_levels(5, llc_lines=1 << 20) == 4

    def test_bucket_geometry(self, ring):
        assert ring.ring_oram.z_per_level[0] == RING_Z + RING_S
        for _, _, bucket in ring.iter_ring_buckets():
            assert len(bucket.slots) == RING_Z + RING_S


class TestPromotionAndHits:
    def test_promotion_after_main_access(self, ring):
        request = Request(block=3, kind=RequestKind.READ, arrival=0)
        drive(ring, request)
        assert 3 in ring.ring_map
        assert not ring.posmap.is_mapped(3)
        assert ring.stats.get("ring.promotions") >= 1

    def test_second_access_hits_ring_structures(self, ring):
        first = Request(block=3, kind=RequestKind.READ, arrival=0)
        now = drive(ring, first)
        second = Request(block=3, kind=RequestKind.READ, arrival=now)
        drive(ring, second, now=now)
        hits = (
            ring.stats.get("ring.hits")
            + ring.stats.get("ring.stash_hits")
        )
        assert hits >= 1

    def test_ring_budget_enforced(self, rng):
        controller = build_scheme("Ring", SystemConfig.tiny()).controller
        drive_blocks(
            controller, range(controller.ring_budget + 20), rng
        )
        active = len(controller.ring_map) - len(controller._evicting)
        assert active <= controller.ring_budget
        assert controller.stats.get("ring.evictions") > 0

    def test_extraction_round_trip(self, rng):
        controller = build_scheme("Ring", SystemConfig.tiny()).controller
        blocks = list(range(controller.ring_budget + 8))
        now = drive_blocks(controller, blocks, rng)
        for _ in range(600):
            if not controller.has_any_real_work():
                break
            result = controller.step(now, allow_dummy=True)
            if result is None:
                break
            now = max(now + 1, result.finish_write)
        assert controller.stats.get("ring.main_reinserts") > 0
        for block in blocks:
            in_ring = block in controller.ring_map
            pending = block in controller._pending_main_insert
            assert in_ring or pending or controller.posmap.is_mapped(block)


class TestReadPathOneTouch:
    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_read_path_touches_one_slot_per_bucket(self, seed):
        """Before any reshuffle burst, a ReadPath's footprint holds at
        most one address per (level, position) bucket."""
        controller = build_scheme(
            "Ring", SystemConfig.tiny(), rng=random.Random(seed)
        ).controller
        layout = controller.ring_layout
        levels = controller.ring_oram.levels
        per_path = []

        def observe(record):
            if len(record.read_addresses) == levels:
                per_path.append((record.leaf, list(record.read_addresses)))

        controller.observer = observe
        rng = random.Random(seed ^ 0xA5)
        drive_blocks(controller, [rng.randrange(60) for _ in range(40)], rng)
        assert per_path, "no plain ReadPath observed"
        for leaf, addresses in per_path:
            # prefix before any appended reshuffle burst: exactly one
            # address inside each bucket along the path to ``leaf``
            prefix = addresses[:levels]
            assert len(prefix) == levels
            for level, address in enumerate(prefix):
                position = leaf >> (levels - 1 - level)
                bucket = layout.bucket_addresses(level, position)
                assert address in bucket

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_touched_slots_never_rereads(self, seed):
        """Between reshuffles a bucket's touched set only grows, never
        re-touches, and its counter always equals the set size."""
        controller = build_scheme(
            "Ring", SystemConfig.tiny(), rng=random.Random(seed)
        ).controller
        rng = random.Random(seed ^ 0x5A)
        drive_blocks(controller, [rng.randrange(30) for _ in range(50)], rng)
        for _, _, bucket in controller.iter_ring_buckets():
            assert bucket.count == len(bucket.touched)
            assert bucket.count < RING_S
            for slot in bucket.touched:
                # a touched slot never covers a live real block
                assert bucket.slots[slot] == EMPTY


class TestEarlyReshuffle:
    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_valid_slots_survive_reshuffle(self, seed):
        """Reshuffling preserves exactly the bucket's real blocks and
        resets its counters; total real-block custody is conserved."""
        controller = build_scheme(
            "Ring", SystemConfig.tiny(), rng=random.Random(seed)
        ).controller
        reshuffles = {"n": 0}
        original = controller._ring_reshuffle

        def checked(bucket):
            before = sorted(b for b in bucket.slots if b != EMPTY)
            original(bucket)
            after = sorted(b for b in bucket.slots if b != EMPTY)
            assert after == before
            assert bucket.count == 0
            assert not bucket.touched
            reshuffles["n"] += 1

        controller._ring_reshuffle = checked
        rng = random.Random(seed ^ 0x3C)
        drive_blocks(controller, [rng.randrange(40) for _ in range(60)], rng)
        assert reshuffles["n"] == controller.stats.get(
            "ring.early_reshuffles"
        )
        assert reshuffles["n"] > 0

    def test_counter_reaching_s_forces_reshuffle(self, ring, rng):
        drive_blocks(ring, [rng.randrange(20) for _ in range(80)], rng)
        # the run must have produced reshuffles, and no bucket may sit at
        # or above the S threshold between accesses
        assert ring.stats.get("ring.early_reshuffles") > 0
        for _, _, bucket in ring.iter_ring_buckets():
            assert bucket.count < RING_S


class TestEvictSchedule:
    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_reverse_lexicographic_order(self, seed):
        """EvictPath leaves follow bit_reverse(G) in issue order."""
        controller = build_scheme(
            "Ring", SystemConfig.tiny(), rng=random.Random(seed)
        ).controller
        levels = controller.ring_oram.levels
        evict_leaves = []

        def observe(record):
            if (
                record.path_type is PathType.EVICTION
                and len(record.read_addresses) == RING_Z * levels
            ):
                evict_leaves.append(record.leaf)

        controller.observer = observe
        rng = random.Random(seed ^ 0x77)
        drive_blocks(controller, [rng.randrange(50) for _ in range(40)], rng)
        assert len(evict_leaves) >= 2
        expected = [
            _bit_reverse(g % controller.ring_leaves, levels - 1)
            for g in range(len(evict_leaves))
        ]
        assert evict_leaves == expected

    def test_evict_rate_bounds_reads_between_evictions(self, ring, rng):
        drive_blocks(ring, [rng.randrange(50) for _ in range(40)], rng)
        assert ring._ring_reads_since_evict <= RING_EVICT_RATE
        assert ring.stats.get("ring.evict_paths") > 0

    def test_bit_reverse_is_an_involution(self):
        for bits in (1, 3, 7):
            for value in range(1 << bits):
                assert _bit_reverse(_bit_reverse(value, bits), bits) == value


class TestStashBound:
    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_stash_high_water_stays_bounded(self, seed):
        controller = build_scheme(
            "Ring", SystemConfig.tiny(), rng=random.Random(seed)
        ).controller
        rng = random.Random(seed ^ 0xE1)
        drive_blocks(controller, [rng.randrange(80) for _ in range(60)], rng)
        capacity = controller.ring_oram.stash_capacity
        assert controller.ring_stash.peak_occupancy <= capacity
        assert len(controller.ring_stash) <= capacity


class TestAuditorIntegration:
    def test_audited_run_stays_clean(self, request):
        seed = derived_seed(request.node.nodeid, salt=2) % (2**32)
        controller = build_scheme(
            "Ring", SystemConfig.tiny(), rng=random.Random(seed)
        ).controller
        auditor = InvariantAuditor(controller)
        rng = random.Random(seed ^ 0x99)
        now = 0
        for index in range(120):
            req = Request(
                block=rng.randrange(40), kind=RequestKind.READ, arrival=now
            )
            now = drive(controller, req, now=now, limit=400)
            if index % 10 == 0:
                auditor.audit_now()
        auditor.audit_now()
        assert auditor.audits > 0


class TestFullRun:
    def test_simulated_run_exposes_ring_counters(self):
        config = SystemConfig.tiny()
        components = build_scheme("Ring", config)
        trace = make_workload("random", config, 250, seed=4)
        Simulator(components, trace).run()
        stats = components.stats
        assert stats.get("paths.ring_tree") > 0
        assert stats.get("ring.evict_paths") > 0
        assert stats.get("ring.early_reshuffles") > 0
        assert stats.get("ring.dummies") > 0
