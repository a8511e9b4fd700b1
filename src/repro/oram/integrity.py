"""Merkle-style integrity verification over the ORAM tree.

The threat model (Section II-A) assumes data integrity is protected with a
Merkle tree over the user data (Gassend et al.), with the hash tree laid
out alongside the ORAM tree so verification adds no extra path accesses.
This module provides that layer for the simulator:

* every bucket carries a hash of its slot contents concatenated with its
  children's hashes (so the root authenticates the whole tree);
* the on-chip controller holds only the root hash (the TCB);
* a path read verifies bottom-up against the trusted root
  (:meth:`MerkleIntegrity.verify_path`), and a path write refreshes the
  hashes along the path (:meth:`MerkleIntegrity.update_path`).

Any out-of-TCB tampering — flipping a block ID in a bucket, or forging a
stored sibling hash — makes the recomputed root diverge and raises
:class:`IntegrityError`.

Timing: hashes ride in the bucket metadata the paper's baseline already
fetches (counter-mode MAC co-location), so the DRAM model charges no extra
traffic; the crypto itself is on-chip hardware in the modeled system.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import stats_keys as sk
from ..errors import ReproError
from ..stats import Stats
from .tree import EMPTY, ORAMTree


class IntegrityError(ReproError):
    """A path failed Merkle verification (tampering detected)."""


def _hash(*parts: bytes) -> bytes:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


_EMPTY_CHILD = b"\x00" * 32


class MerkleIntegrity:
    """Hash tree mirroring an :class:`ORAMTree`.

    Hashes are stored per bucket index, computed lazily: an absent entry
    means the bucket (and its whole subtree) is still in its initial
    state, whose hash is derived on demand.  ``root`` is the trusted
    on-chip copy.
    """

    def __init__(self, tree: ORAMTree, stats: Optional[Stats] = None) -> None:
        self.tree = tree
        self.stats = stats if stats is not None else Stats()
        self._hashes: Dict[int, bytes] = {}
        self.root = self._compute_root()

    # -- hashing ------------------------------------------------------------
    def _bucket_bytes(self, level: int, position: int) -> bytes:
        slots = self.tree.bucket(level, position)
        return b"".join(block.to_bytes(8, "little", signed=True) for block in slots)

    def _child_hash(self, level: int, position: int) -> bytes:
        if level >= self.tree.levels:
            return _EMPTY_CHILD
        return self.stored_hash(level, position)

    def stored_hash(self, level: int, position: int) -> bytes:
        """The stored (untrusted, off-chip) hash of a bucket."""
        index = ORAMTree.bucket_index(level, position)
        cached = self._hashes.get(index)
        if cached is None:
            cached = self.compute_hash(level, position)
            self._hashes[index] = cached
        return cached

    def compute_hash(self, level: int, position: int) -> bytes:
        """Recompute a bucket's hash from contents + stored child hashes."""
        return _hash(
            self._bucket_bytes(level, position),
            self._child_hash(level + 1, 2 * position),
            self._child_hash(level + 1, 2 * position + 1),
        )

    def _compute_root(self) -> bytes:
        """Bottom-up full build (only used at construction / rebuild)."""
        for level in range(self.tree.levels - 1, -1, -1):
            for position in range(1 << level):
                index = ORAMTree.bucket_index(level, position)
                self._hashes[index] = self.compute_hash(level, position)
        return self._hashes[0]

    def rebuild(self) -> None:
        """Recompute every hash and refresh the trusted root."""
        self._hashes.clear()
        self.root = self._compute_root()

    # -- the two path operations -----------------------------------------------
    def update_path(self, leaf: int) -> None:
        """Refresh hashes along a freshly written path, bottom-up, and the
        trusted on-chip root."""
        for level in range(self.tree.levels - 1, -1, -1):
            position = self.tree.path_position(leaf, level)
            index = ORAMTree.bucket_index(level, position)
            self._hashes[index] = self.compute_hash(level, position)
        self.root = self._hashes[0]
        self.stats.inc(sk.INTEGRITY_PATH_UPDATES)

    def verify_path(self, leaf: int, count: bool = True) -> None:
        """Authenticate a path against the trusted root.

        Recomputes each path bucket's hash from its (fetched) contents,
        using the recomputed hash for the on-path child and the stored
        hash for the off-path sibling, and compares the final value with
        the on-chip root.  Raises :class:`IntegrityError` on mismatch.

        ``count=False`` skips the ``integrity.*`` counters: the
        conformance auditor verifies paths out of band and must leave the
        run's statistics bit-identical to an unaudited run.
        """
        levels = self.tree.levels
        running: bytes = b""
        for level in range(levels - 1, -1, -1):
            position = self.tree.path_position(leaf, level)
            if level == levels - 1:
                children = (_EMPTY_CHILD, _EMPTY_CHILD)
            else:
                child_pos = self.tree.path_position(leaf, level + 1)
                sibling_pos = child_pos ^ 1
                sibling = self.stored_hash(level + 1, sibling_pos)
                if child_pos & 1:
                    children = (sibling, running)
                else:
                    children = (running, sibling)
            running = _hash(self._bucket_bytes(level, position), *children)
        if count:
            self.stats.inc(sk.INTEGRITY_PATH_VERIFICATIONS)
        if running != self.root:
            if count:
                self.stats.inc(sk.INTEGRITY_VIOLATIONS)
            raise IntegrityError(
                f"path to leaf {leaf} failed Merkle verification"
            )

    # -- tamper helpers for tests / demos ---------------------------------------
    def forge_stored_hash(self, level: int, position: int) -> None:
        """Simulate an attacker overwriting a stored hash."""
        index = ORAMTree.bucket_index(level, position)
        self.stored_hash(level, position)  # materialize
        self._hashes[index] = _hash(b"forged", self._hashes[index])


#: recovery hook signature: (level, position, slots) -> bool (True = resync)
RecoveryHook = Callable[[int, int, List[int]], bool]


class RingIntegrity:
    """Per-bucket MAC layer for Ring ORAM buckets (the IRO composition).

    Ring buckets are touched one slot at a time and reshuffled out of
    band, so a Merkle path walk does not fit; instead every bucket
    carries a MAC over its slot contents *bound to a trusted on-chip
    epoch counter* (plus its tree coordinates).  The epochs live inside
    the TCB, so replaying a stale bucket together with its stale MAC
    still fails verification: the stale MAC was computed under an older
    epoch value.  This is the counter half of the classic
    Merkle-counter split — root-free because the freshness secret is
    the counter itself, not a hash chain.

    A :data:`RecoveryHook` turns a verification failure into a recovery
    opportunity (IRO's recovery path): when the hook accepts the bucket,
    the layer re-MACs it at the current epoch and the run continues,
    counting an ``integrity.ring_recoveries``.
    """

    def __init__(
        self,
        slots_per_bucket: int,
        stats: Optional[Stats] = None,
        recovery_hook: Optional[RecoveryHook] = None,
    ) -> None:
        self.slots_per_bucket = slots_per_bucket
        self.stats = stats if stats is not None else Stats()
        self.recovery_hook = recovery_hook
        self.recoveries = 0
        self._macs: Dict[Tuple[int, int], bytes] = {}
        #: trusted on-chip epoch per bucket (absent means epoch 0)
        self._epochs: Dict[Tuple[int, int], int] = {}

    # -- MAC computation ----------------------------------------------------
    def _mac(
        self, level: int, position: int, slots: Sequence[int], epoch: int
    ) -> bytes:
        payload = b"".join(
            block.to_bytes(8, "little", signed=True) for block in slots
        )
        return _hash(
            payload,
            epoch.to_bytes(8, "little"),
            level.to_bytes(4, "little"),
            position.to_bytes(4, "little"),
        )

    def epoch_of(self, level: int, position: int) -> int:
        return self._epochs.get((level, position), 0)

    def stored_mac(self, level: int, position: int) -> bytes:
        """The stored (untrusted, off-chip) MAC of a bucket.

        An absent entry means the bucket is still in its initial state:
        all slots empty, epoch 0 — its MAC derives on demand, exactly
        like :meth:`MerkleIntegrity.stored_hash`.
        """
        key = (level, position)
        cached = self._macs.get(key)
        if cached is None:
            cached = self._mac(
                level, position, [EMPTY] * self.slots_per_bucket, 0
            )
            self._macs[key] = cached
        return cached

    # -- the two bucket operations ------------------------------------------
    def verify_bucket(
        self,
        level: int,
        position: int,
        slots: Sequence[int],
        count: bool = True,
    ) -> None:
        """Authenticate one bucket against its stored MAC + trusted epoch.

        ``count=False`` skips the ``integrity.*`` counters (the
        conformance auditor verifies buckets out of band and must leave
        the run's statistics bit-identical to an unaudited run).
        """
        expected = self.stored_mac(level, position)
        actual = self._mac(
            level, position, slots, self.epoch_of(level, position)
        )
        if count:
            self.stats.inc(sk.INTEGRITY_RING_VERIFICATIONS)
        if actual != expected:
            if count:
                self.stats.inc(sk.INTEGRITY_RING_VIOLATIONS)
            raise IntegrityError(
                f"ring bucket (L{level}, {position}) failed MAC "
                f"verification at epoch {self.epoch_of(level, position)}"
            )

    def update_bucket(
        self, level: int, position: int, slots: Sequence[int]
    ) -> None:
        """Advance a bucket's trusted epoch and re-MAC its new contents."""
        key = (level, position)
        epoch = self._epochs.get(key, 0) + 1
        self._epochs[key] = epoch
        self._macs[key] = self._mac(level, position, slots, epoch)
        self.stats.inc(sk.INTEGRITY_RING_UPDATES)

    def verify_or_recover(
        self, level: int, position: int, slots: Sequence[int]
    ) -> None:
        """Verify a bucket; on failure consult the recovery hook.

        The hook sees ``(level, position, slots)`` and returns True to
        accept the bucket as-recovered — the layer then re-MACs it at
        the current epoch and the run continues.  Without a hook (or on
        rejection) the original :class:`IntegrityError` propagates.
        """
        try:
            self.verify_bucket(level, position, slots)
        except IntegrityError:
            hook = self.recovery_hook
            if hook is not None and hook(level, position, list(slots)):
                self.resync_bucket(level, position, slots)
                return
            raise

    def resync_bucket(
        self, level: int, position: int, slots: Sequence[int]
    ) -> None:
        """Re-MAC a bucket at its current epoch (the recovery path)."""
        key = (level, position)
        self._macs[key] = self._mac(
            level, position, slots, self.epoch_of(level, position)
        )
        self.recoveries += 1
        self.stats.inc(sk.INTEGRITY_RING_RECOVERIES)

    # -- tamper helpers for tests / demos -----------------------------------
    def forge_stored_mac(self, level: int, position: int) -> None:
        """Simulate an attacker overwriting a stored bucket MAC."""
        key = (level, position)
        self.stored_mac(level, position)  # materialize
        self._macs[key] = _hash(b"forged", self._macs[key])


def attach_ring_integrity(
    controller,
    stats: Optional[Stats] = None,
    recovery_hook: Optional[RecoveryHook] = None,
) -> RingIntegrity:
    """Wire a :class:`RingIntegrity` layer into a Ring controller.

    Every ring path access verifies each bucket it touches before
    consuming it and re-MACs mutated buckets afterwards (the controller
    calls ``verify_or_recover`` / ``update_bucket`` through its
    ``ring_integrity`` attribute).  Composes with
    :func:`attach_integrity`, which keeps protecting the main tree.
    """
    integrity = RingIntegrity(
        controller.ring_oram.z_per_level[0],
        stats if stats is not None else controller.stats,
        recovery_hook=recovery_hook,
    )
    controller.ring_integrity = integrity
    return integrity


def attach_integrity(controller, stats: Optional[Stats] = None) -> MerkleIntegrity:
    """Wire a Merkle layer into a controller's path operations.

    Every subsequent path access verifies before the read phase consumes
    the blocks and refreshes the hashes after the write phase.
    """
    integrity = MerkleIntegrity(controller.tree, stats or controller.stats)
    original_service = controller._service_path
    original_write = controller._write_path

    def service_with_verify(leaf, path_type, now, served=None):
        integrity.verify_path(leaf)
        return original_service(leaf, path_type, now, served)

    def write_with_update(leaf, finish_read, path_type, preexisting=None):
        finish = original_write(leaf, finish_read, path_type, preexisting)
        integrity.update_path(leaf)
        return finish

    controller._service_path = service_with_verify
    controller._write_path = write_with_update
    controller.integrity = integrity
    controller.refresh_tier()
    return integrity
