"""Tests for the Merkle and Ring per-bucket integrity layers."""

import pytest

from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.oram.integrity import (
    IntegrityError,
    MerkleIntegrity,
    attach_integrity,
    attach_ring_integrity,
)
from repro.oram.tree import EMPTY, ORAMTree
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator

from tests.conftest import make_oram


@pytest.fixture
def tree():
    tree = ORAMTree(make_oram(levels=6, top=2))
    tree.place(0, 0, 11)
    tree.place(3, 5, 22)
    tree.place(5, 17, 33)
    return tree


@pytest.fixture
def merkle(tree):
    return MerkleIntegrity(tree)


class TestVerification:
    def test_fresh_tree_verifies_every_path(self, merkle, tree):
        for leaf in range(1 << 5):
            merkle.verify_path(leaf)

    def test_update_then_verify(self, merkle, tree):
        tree.place(4, 3, 44)
        merkle.update_path(3 << 1)  # a path through (4, 3)
        merkle.verify_path(3 << 1)

    def test_stale_hash_detected(self, merkle, tree):
        # mutate contents without updating hashes: every crossing path fails
        tree.place(2, 0, 99)
        with pytest.raises(IntegrityError):
            merkle.verify_path(0)

    def test_tampered_block_detected(self, merkle, tree):
        slots = tree.bucket(3, 5)
        tree.set_slot(3, 5, slots.index(22), 23)  # attacker flips a block ID
        with pytest.raises(IntegrityError):
            merkle.verify_path(5 << 2)

    def test_tampering_off_path_not_flagged(self, merkle, tree):
        slots = tree.bucket(5, 17)
        tree.set_slot(5, 17, slots.index(33), 34)
        # a path not crossing (5,17) and not adjacent to it still verifies
        merkle.verify_path(0)

    def test_forged_sibling_hash_detected(self, merkle):
        merkle.forge_stored_hash(1, 1)
        # any path through the left half uses (1,1) as sibling
        with pytest.raises(IntegrityError):
            merkle.verify_path(0)

    def test_rebuild_restores_consistency(self, merkle, tree):
        tree.place(2, 2, 77)
        merkle.rebuild()
        for leaf in range(0, 32, 5):
            merkle.verify_path(leaf)

    def test_empty_and_distinct_buckets_hash_differently(self, merkle, tree):
        a = merkle.compute_hash(5, 0)
        b = merkle.compute_hash(5, 1)
        assert a == b  # both empty leaves, same contents
        tree.place(5, 1, 7)
        assert merkle.compute_hash(5, 1) != a


class TestTamperingMatrix:
    """Every physical-attack class from the threat model raises
    :class:`IntegrityError`: flipping a block ID, forging a stored sibling
    hash, swapping whole buckets across levels, and replaying a stale
    (previously valid) path snapshot against the fresh on-chip root."""

    def test_flipped_block_id_detected(self, merkle, tree):
        slots = tree.bucket(3, 5)
        tree.set_slot(3, 5, slots.index(22), 22 ^ 1)
        with pytest.raises(IntegrityError):
            merkle.verify_path(5 << 2)

    def test_forged_sibling_hash_detected(self, merkle):
        merkle.forge_stored_hash(1, 0)
        # any path through the *right* half consumes (1,0) as the sibling
        with pytest.raises(IntegrityError):
            merkle.verify_path(1 << 4)

    def test_swapped_buckets_across_levels_detected(self, merkle, tree):
        # relocate bucket contents wholesale: (3,5) <-> (2,2), both on the
        # path to leaf 5<<2, without touching the stored hashes
        a, b = tree.bucket(3, 5), tree.bucket(2, 2)
        for slot, (block_a, block_b) in enumerate(zip(a, b)):
            tree.set_slot(3, 5, slot, block_b)
            tree.set_slot(2, 2, slot, block_a)
        with pytest.raises(IntegrityError):
            merkle.verify_path(5 << 2)

    def test_stale_path_replay_detected(self, merkle, tree):
        from repro.oram.tree import ORAMTree

        leaf = 0
        # attacker snapshots the path's buckets and stored hashes...
        snapshot = []
        for level in range(tree.levels):
            position = tree.path_position(leaf, level)
            snapshot.append((
                level,
                position,
                list(tree.bucket(level, position)),
                merkle.stored_hash(level, position),
            ))
        # ...a legitimate write then refreshes path and on-chip root...
        tree.place(4, 0, 55)
        merkle.update_path(leaf)
        merkle.verify_path(leaf)
        # ...and replaying the stale-but-internally-consistent snapshot
        # fails against the *new* trusted root
        for level, position, slots, digest in snapshot:
            for slot, block in enumerate(slots):
                tree.set_slot(level, position, slot, block)
            merkle._hashes[ORAMTree.bucket_index(level, position)] = digest
        with pytest.raises(IntegrityError):
            merkle.verify_path(leaf)


class TestControllerIntegration:
    def test_full_run_with_integrity(self):
        config = SystemConfig.tiny()
        components = build_scheme("Baseline", config)
        integrity = attach_integrity(components.controller)
        trace = make_workload("random", config, 150, seed=6)
        Simulator(components, trace).run()
        stats = components.stats
        assert stats.get("integrity.path_verifications") > 0
        assert stats.get("integrity.path_updates") > 0
        assert stats.get("integrity.violations") == 0

    def test_batched_dummy_paths_stay_verified(self):
        """A sparse trace has many dummy slots, which an unhooked run
        drains in the kernel; the Merkle hooks move a run to the Python
        tier, and must see every one of those paths too."""
        config = SystemConfig.tiny()
        components = build_scheme("Baseline", config)
        attach_integrity(components.controller)
        trace = make_workload("xal", config, 400, seed=6)
        Simulator(components, trace).run()
        stats = components.stats
        assert stats.get("integrity.path_verifications") == stats.get(
            "paths.total"
        )
        assert stats.get("integrity.violations") == 0

    def test_mid_run_tampering_detected(self):
        config = SystemConfig.tiny()
        components = build_scheme("Baseline", config)
        attach_integrity(components.controller)
        trace = make_workload("random", config, 200, seed=8)
        simulator = Simulator(components, trace)
        controller = components.controller

        original_step = controller.step
        state = {"tampered": False}

        def tampering_step(now, allow_dummy=True):
            if not state["tampered"] and controller.path_count > 5:
                tree = controller.tree
                # flip the first real block found near the root region
                for level in range(3):
                    for position in range(1 << level):
                        slots = tree.bucket(level, position)
                        for i, block in enumerate(slots):
                            if block != EMPTY:
                                tree.set_slot(level, position, i, block + 1)
                                state["tampered"] = True
                                break
                        if state["tampered"]:
                            break
                    if state["tampered"]:
                        break
                if not state["tampered"]:
                    first = tree.bucket(0, 0)[0]
                    tree.set_slot(
                        0, 0, 0, 12345 if first == EMPTY else first + 1
                    )
                    state["tampered"] = True
            return original_step(now, allow_dummy)

        controller.step = tampering_step
        with pytest.raises(IntegrityError):
            simulator.run()


def _ring_run(records=150, seed=6, recovery_hook=None):
    """A Ring scheme with the per-bucket MAC layer, warmed by a run."""
    config = SystemConfig.tiny()
    components = build_scheme("Ring", config)
    integrity = attach_ring_integrity(
        components.controller, recovery_hook=recovery_hook
    )
    trace = make_workload("random", config, records, seed=seed)
    Simulator(components, trace).run()
    return components, integrity


def _occupied_bucket(controller):
    for level, position, bucket in controller.iter_ring_buckets():
        if any(block != EMPTY for block in bucket.slots):
            return level, position, bucket
    raise AssertionError("no occupied ring bucket after a warm run")


class TestRingTamperingMatrix:
    """The Merkle matrix's four physical-attack classes, replayed against
    Ring's per-bucket MAC path: flipping a slot, forging a stored MAC,
    swapping whole buckets, and replaying a stale snapshot against the
    trusted on-chip epoch counter."""

    def test_clean_run_verifies_and_counts(self):
        components, _ = _ring_run()
        stats = components.stats
        assert stats.get("integrity.ring_verifications") > 0
        assert stats.get("integrity.ring_updates") > 0
        assert stats.get("integrity.ring_violations") == 0
        controller = components.controller
        integrity = controller.ring_integrity
        for level, position, bucket in controller.iter_ring_buckets():
            integrity.verify_bucket(level, position, bucket.slots)

    def test_flipped_slot_detected(self):
        components, integrity = _ring_run()
        level, position, bucket = _occupied_bucket(components.controller)
        index = next(
            i for i, block in enumerate(bucket.slots) if block != EMPTY
        )
        bucket.slots[index] ^= 1
        with pytest.raises(IntegrityError):
            integrity.verify_bucket(level, position, bucket.slots)

    def test_forged_stored_mac_detected(self):
        components, integrity = _ring_run()
        level, position, bucket = _occupied_bucket(components.controller)
        integrity.forge_stored_mac(level, position)
        with pytest.raises(IntegrityError):
            integrity.verify_bucket(level, position, bucket.slots)

    def test_swapped_buckets_detected(self):
        components, integrity = _ring_run()
        controller = components.controller
        level, position, bucket = _occupied_bucket(controller)
        other = next(
            (lv, pos, bk)
            for lv, pos, bk in controller.iter_ring_buckets()
            if (lv, pos) != (level, position) and bk.slots != bucket.slots
        )
        bucket.slots[:], other[2].slots[:] = (
            list(other[2].slots),
            list(bucket.slots),
        )
        with pytest.raises(IntegrityError):
            integrity.verify_bucket(level, position, bucket.slots)

    def test_stale_bucket_replay_detected(self):
        components, integrity = _ring_run()
        level, position, bucket = _occupied_bucket(components.controller)
        # attacker snapshots a valid bucket and its MAC...
        snapshot_slots = list(bucket.slots)
        snapshot_mac = integrity.stored_mac(level, position)
        # ...a legitimate update advances the trusted epoch...
        index = next(
            i for i, block in enumerate(bucket.slots) if block != EMPTY
        )
        bucket.slots[index] = EMPTY
        integrity.update_bucket(level, position, bucket.slots)
        integrity.verify_bucket(level, position, bucket.slots)
        # ...and the internally-consistent stale pair fails against it
        bucket.slots[:] = snapshot_slots
        integrity._macs[(level, position)] = snapshot_mac
        with pytest.raises(IntegrityError):
            integrity.verify_bucket(level, position, bucket.slots)


class TestRingRecovery:
    def test_recovery_hook_resyncs_and_continues(self):
        calls = []

        def hook(level, position, slots):
            calls.append((level, position))
            return True

        components, integrity = _ring_run(recovery_hook=hook)
        level, position, bucket = _occupied_bucket(components.controller)
        integrity.forge_stored_mac(level, position)
        integrity.verify_or_recover(level, position, bucket.slots)
        assert calls == [(level, position)]
        assert integrity.recoveries == 1
        assert components.stats.get("integrity.ring_recoveries") == 1
        # the resynced bucket authenticates again
        integrity.verify_bucket(level, position, bucket.slots)

    def test_declined_recovery_reraises(self):
        components, integrity = _ring_run(
            recovery_hook=lambda level, position, slots: False
        )
        level, position, bucket = _occupied_bucket(components.controller)
        integrity.forge_stored_mac(level, position)
        with pytest.raises(IntegrityError):
            integrity.verify_or_recover(level, position, bucket.slots)
        assert integrity.recoveries == 0

    def test_mid_run_tampering_detected(self):
        config = SystemConfig.tiny()
        components = build_scheme("Ring", config)
        attach_ring_integrity(components.controller)
        trace = make_workload("random", config, 200, seed=8)
        simulator = Simulator(components, trace)
        controller = components.controller

        original_step = controller.step
        state = {"tampered": False}

        def tampering_step(now, allow_dummy=True):
            if not state["tampered"] and controller.path_count > 30:
                for _, _, bucket in controller.iter_ring_buckets():
                    bucket.slots[0] = (
                        12345 if bucket.slots[0] == EMPTY
                        else bucket.slots[0] + 1
                    )
                    state["tampered"] = True
                    break
            return original_step(now, allow_dummy)

        controller.step = tampering_step
        with pytest.raises(IntegrityError):
            simulator.run()
