"""The online invariant auditor: proves a live run still *is* Path ORAM.

The auditor attaches to a controller's ``slot_observer`` hook and, at a
configurable cadence (every N issued paths), sweeps the whole machine for
the protocol invariants of the paper:

* **block conservation** (§II-B): every block of the merged Freecursive
  namespace is held by exactly one of — the tree, the stash, the PLB, the
  PLB victim buffer, Rho's small-tree custody, Pyramid's level custody,
  Ring's bucket/stash custody, or a legitimate external holder (LLC-D's
  delayed-remap blocks living in the LLC);
* **path residency** (§II-B): every tree-resident block sits on the path
  of its PosMap leaf (and stash leaf tags match the PosMap);
* **stash bounds** (§II-B, Ren et al.): occupancy and its high-water mark
  never exceed the configured stash capacity;
* **PosMap/PLB consistency** (Fletcher et al.): PLB and victim-buffer
  residents are PosMap-kind blocks and — the PLB being exclusive —
  unmapped; the victim buffer set mirrors its queue;
* **Merkle root stability** (§II-A): when an integrity layer is attached,
  the stored hash tree still authenticates against the trusted on-chip
  root (one rotating path is re-verified end to end, silently);
* **timing-channel rate** (Fletcher et al., §II-B): consecutive issued
  paths start at least ``issue_interval`` cycles apart (only meaningful
  under the :class:`~repro.sim.simulator.Simulator` clock — direct-drive
  harnesses disable it);
* **S-Stash mirror** (IR-Stash, §IV-C): the address index of the tree-top
  structure matches actual top-level residency;
* **Ring slot permutation** (Ren et al., Ring ORAM): a ring bucket holds
  at most Z real blocks, its touched-slot set never covers a valid real
  block, its access counter equals the touched-set size and stays below
  the reshuffle threshold S between accesses — and, when the per-bucket
  MAC layer is attached, every materialized bucket still authenticates
  against its trusted on-chip epoch counter (silently).

Bit-identity contract: the auditor never touches the controller's RNG,
never mutates model state, and records its own bookkeeping in a *private*
:class:`~repro.stats.Stats` registry, so an audited run's cycles and
counters are bit-identical to an unaudited run's (asserted by
``tests/test_validate.py``).  Violations raise
:class:`~repro.errors.AuditError` immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set

from .. import stats_keys as sk
from ..errors import AuditError
from ..obs import events as ev
from ..oram.controller import PathORAMController, SlotResult
from ..oram.hybrid import HybridController
from ..oram.integrity import IntegrityError
from ..oram.rho import RhoController
from ..oram.ring import RING_S, RING_Z, RingController
from ..oram.tree import EMPTY
from ..oram.types import BlockKind
from ..stats import Stats

#: issued paths between full sweeps when no cadence is given
DEFAULT_CADENCE = 64


@dataclass
class AuditReport:
    """Summary of what one auditor has checked so far."""

    audits: int
    paths_observed: int
    blocks_verified: int


class InvariantAuditor:
    """Online conformance auditor for one controller (see module docs).

    ``every``: issued paths between full sweeps.  ``check_rate`` enables
    the timing-channel spacing check — only valid when the Simulator owns
    the clock, so it defaults to off and :func:`repro.api.run` turns it on.
    ``check_integrity`` spot-verifies the Merkle layer when one is
    attached.  ``llc`` (optional) lets the *final* audit require LLC-D's
    extracted blocks to actually be LLC-resident.
    """

    def __init__(
        self,
        controller: PathORAMController,
        every: Optional[int] = None,
        check_rate: bool = False,
        check_integrity: bool = True,
        llc=None,
    ) -> None:
        self.controller = controller
        self.every = max(1, every if every else DEFAULT_CADENCE)
        self.check_rate = check_rate
        self.check_integrity = check_integrity
        self.llc = llc
        #: private registry — never the run's own (bit-identity contract)
        self.stats = Stats()
        self.interval = controller.oram.issue_interval
        self.audits = 0
        self._paths = 0
        self._last_start: Optional[int] = None

    # ------------------------------------------------------------------
    # the slot hook
    # ------------------------------------------------------------------
    def observe(self, result: SlotResult) -> None:
        """Receive one :class:`SlotResult` (the ``slot_observer`` hook)."""
        if not result.issued_path:
            return
        self._paths += 1
        self.stats.counters[sk.AUDIT_PATHS_OBSERVED] += 1
        if self.check_rate and self._last_start is not None:
            gap = result.start - self._last_start
            if gap < self.interval:
                self._fail(
                    f"timing-channel rate violated: consecutive paths "
                    f"issued {gap} cycles apart (T={self.interval})"
                )
        self._last_start = result.start
        if self._paths % self.every == 0:
            self.audit_now()

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------
    def audit_now(self, strict_external: bool = False) -> AuditReport:
        """Run one full sweep now; raise :class:`AuditError` on violation.

        ``strict_external`` additionally requires every custody-less
        unmapped user block (LLC-D) to be resident in the attached LLC —
        valid only when no completion is in flight, i.e. at end of run.
        """
        self.audits += 1
        self.stats.counters[sk.AUDIT_CHECKS] += 1
        verified = self._check_locations(strict_external)
        self.stats.counters[sk.AUDIT_BLOCKS_VERIFIED] += verified
        self._check_stash_bounds()
        self._check_queues()
        self._check_treetop_mirror()
        if self.check_integrity:
            self._check_merkle()
            self._check_ring_macs()
        tracer = self.controller.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.AUDIT,
                tracer.now,
                audits=self.audits,
                paths=self._paths,
                blocks=verified,
            )
        return self.report()

    def final_check(self, result=None) -> AuditReport:
        """End-of-run audit: strict sweep plus result-level invariants.

        With a :class:`~repro.sim.results.SimulationResult` (or anything
        carrying ``cycles`` and ``breakdown``), also asserts the
        CycleBreakdown sum-to-cycles invariant.
        """
        report = self.audit_now(strict_external=True)
        breakdown = getattr(result, "breakdown", None)
        if breakdown is not None:
            total = sum(breakdown.components().values())
            if total != breakdown.total or breakdown.total != result.cycles:
                self._fail(
                    f"cycle breakdown does not sum to the run's cycles: "
                    f"components={total} total={breakdown.total} "
                    f"cycles={result.cycles}"
                )
        return report

    def report(self) -> AuditReport:
        return AuditReport(
            audits=self.audits,
            paths_observed=self._paths,
            blocks_verified=int(
                self.stats.get(sk.AUDIT_BLOCKS_VERIFIED)
            ),
        )

    # ------------------------------------------------------------------
    # individual invariant checks
    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        controller = self.controller
        raise AuditError(
            f"{message} [audit #{self.audits}, "
            f"{controller.path_count} paths issued, "
            f"{type(controller).__name__}]"
        )

    def _check_locations(self, strict_external: bool) -> int:
        """Conservation + residency + PosMap/PLB consistency, one sweep."""
        controller = self.controller
        posmap = controller.posmap
        namespace = controller.namespace
        total = namespace.total_blocks
        holder_of: Dict[int, str] = {}

        def claim(block: int, holder: str) -> None:
            if not 0 <= block < total:
                self._fail(f"{holder} holds block {block} outside the "
                           f"namespace [0, {total})")
            other = holder_of.get(block)
            if other is not None:
                self._fail(f"block {block} held by both {other} and {holder}")
            holder_of[block] = holder

        tree = controller.tree
        level_seen = [0] * tree.levels
        for level, position, slots in tree.iter_buckets():
            for block in slots:
                if block == EMPTY:
                    continue
                claim(block, f"tree@L{level}")
                level_seen[level] += 1
                if not posmap.is_mapped(block):
                    self._fail(f"tree-resident block {block} is unmapped")
                leaf = posmap.leaf_of(block)
                if tree.path_position(leaf, level) != position:
                    self._fail(
                        f"block {block} off its path: at (L{level}, "
                        f"{position}) but mapped to leaf {leaf}"
                    )
        if level_seen != list(tree.level_used):
            self._fail(
                f"tree level_used counters drifted from contents: "
                f"counted {level_seen}, recorded {list(tree.level_used)}"
            )

        for block, leaf in controller.stash.items():
            claim(block, "stash")
            if not posmap.is_mapped(block):
                self._fail(f"stash-resident block {block} is unmapped")
            if posmap.leaf_of(block) != leaf:
                self._fail(
                    f"stash leaf tag stale for block {block}: tagged "
                    f"{leaf}, PosMap says {posmap.leaf_of(block)}"
                )

        for block in controller.plb.contents():
            claim(block, "plb")
            self._check_posmap_holder(block, "PLB")
        for block in controller._limbo:
            claim(block, "victim-buffer")
            self._check_posmap_holder(block, "victim buffer")

        self._claim_hybrid_holders(claim)

        missing_ok = controller.delayed_remap
        for block in range(total):
            holder = holder_of.get(block)
            if holder is not None:
                continue
            if posmap.is_mapped(block):
                self._fail(f"mapped block {block} has no holder")
            if namespace.kind_of(block) is not BlockKind.USER:
                self._fail(f"PosMap block {block} vanished "
                           f"(unmapped with no holder)")
            if not missing_ok:
                self._fail(f"user block {block} vanished "
                           f"(unmapped with no holder)")
            if (
                strict_external
                and controller.delayed_remap
                and self.llc is not None
                and not self.llc.probe(block)
            ):
                self._fail(
                    f"delayed-remap block {block} neither ORAM-held "
                    f"nor LLC-resident at end of run"
                )
        return total

    def _check_posmap_holder(self, block: int, holder: str) -> None:
        controller = self.controller
        if controller.namespace.kind_of(block) is BlockKind.USER:
            self._fail(f"user block {block} resident in the {holder}")
        if controller.posmap.is_mapped(block):
            self._fail(
                f"{holder}-resident block {block} still mapped "
                f"(the PLB is exclusive)"
            )

    def _claim_hybrid_holders(self, claim) -> None:
        """Custody of a hybrid scheme (Rho, Ring, Pyramid): the side
        structure's residents (checked per scheme), the side stash, the
        pending main inserts, and exclusivity against the main PosMap."""
        controller = self.controller
        if not isinstance(controller, HybridController):
            return
        posmap = controller.posmap
        side_map = controller.side_map
        label = controller.TREE
        if isinstance(controller, RhoController):
            held = self._claim_small_tree(claim)
        elif isinstance(controller, RingController):
            held = self._claim_ring_buckets(claim)
        else:
            held = self._claim_pyramid_levels(claim)
        stash = controller.side_stash
        for block, leaf in stash.items() if stash is not None else ():
            claim(block, f"{label}-stash")
            held.add(block)
            if side_map.get(block) != leaf:
                self._fail(
                    f"{label}-stash leaf tag for block {block} disagrees "
                    f"with the {label} map"
                )
        for block in controller._pending_main_insert:
            claim(block, "pending-main-insert")
            if posmap.is_mapped(block):
                self._fail(
                    f"pending-main-insert block {block} already mapped"
                )
        for block in side_map:
            if posmap.is_mapped(block):
                self._fail(
                    f"{label}-custody block {block} still mapped in the "
                    f"main PosMap (promotion must be exclusive)"
                )
            if block not in held:
                self._fail(
                    f"{label}-custody block {block} in neither the "
                    f"{label} structure nor its stash"
                )

    def _claim_small_tree(self, claim) -> Set[int]:
        """Rho: every small-tree block sits on its small-map path."""
        controller = self.controller
        small_map = controller.side_map
        small_tree = controller.small_tree
        held: Set[int] = set()
        for level, position, slots in small_tree.iter_buckets():
            for block in slots:
                if block == EMPTY:
                    continue
                claim(block, f"small-tree@L{level}")
                held.add(block)
                leaf = small_map.get(block)
                if leaf is None:
                    self._fail(
                        f"small-tree-resident block {block} missing from "
                        f"the small map"
                    )
                if small_tree.path_position(leaf, level) != position:
                    self._fail(
                        f"block {block} off its small-tree path: at "
                        f"(L{level}, {position}) but mapped to leaf {leaf}"
                    )
        return held

    def _claim_ring_buckets(self, claim) -> Set[int]:
        """Ring: every ring block sits on its ring-map path, and every
        bucket's real blocks, counter and touched slots are in bounds."""
        controller = self.controller
        ring_map = controller.side_map
        levels = controller.ring_oram.levels
        held: Set[int] = set()
        for level, position, bucket in controller.iter_ring_buckets():
            slots = bucket.slots
            real = 0
            for index, block in enumerate(slots):
                if block == EMPTY:
                    continue
                real += 1
                claim(block, f"ring@L{level}")
                held.add(block)
                if index in bucket.touched:
                    self._fail(
                        f"ring bucket (L{level}, {position}) slot {index} "
                        f"holds valid block {block} but is marked touched"
                    )
                leaf = ring_map.get(block)
                if leaf is None:
                    self._fail(
                        f"ring-resident block {block} missing from the "
                        f"ring map"
                    )
                if leaf >> (levels - 1 - level) != position:
                    self._fail(
                        f"block {block} off its ring path: at (L{level}, "
                        f"{position}) but mapped to leaf {leaf}"
                    )
            if real > RING_Z:
                self._fail(
                    f"ring bucket (L{level}, {position}) holds {real} "
                    f"real blocks > Z={RING_Z}"
                )
            if bucket.count != len(bucket.touched):
                self._fail(
                    f"ring bucket (L{level}, {position}) access counter "
                    f"{bucket.count} != touched-slot count "
                    f"{len(bucket.touched)}"
                )
            if bucket.count >= RING_S:
                self._fail(
                    f"ring bucket (L{level}, {position}) counter "
                    f"{bucket.count} reached S={RING_S} without an early "
                    f"reshuffle"
                )
            if any(index >= len(slots) for index in bucket.touched):
                self._fail(
                    f"ring bucket (L{level}, {position}) touched-slot set "
                    f"references slots outside the bucket"
                )
        return held

    def _claim_pyramid_levels(self, claim) -> Set[int]:
        """Pyramid: custody entries name a level and a bucket in range."""
        level_buckets = self.controller.level_buckets
        held: Set[int] = set()
        for block, (level, bucket) in self.controller.side_map.items():
            claim(block, f"pyramid@L{level}")
            held.add(block)
            if not 0 <= level < len(level_buckets):
                self._fail(
                    f"pyramid block {block} assigned to level {level} "
                    f"outside the hierarchy"
                )
            if not 0 <= bucket < level_buckets[level]:
                self._fail(
                    f"pyramid block {block} assigned bucket {bucket} "
                    f"outside level {level} ({level_buckets[level]} buckets)"
                )
        return held

    def _check_stash_bounds(self) -> None:
        controller = self.controller
        capacity = controller.oram.stash_capacity
        stash = controller.stash
        if len(stash) > capacity or stash.peak_occupancy > capacity:
            self._fail(
                f"stash bound exceeded: occupancy {len(stash)}, "
                f"high-water {stash.peak_occupancy}, capacity {capacity}"
            )
        side = getattr(controller, "side_stash", None)
        if side is not None:
            capacity = side.capacity
            if len(side) > capacity or side.peak_occupancy > capacity:
                self._fail(
                    f"{controller.TREE}-stash bound exceeded: occupancy "
                    f"{len(side)}, high-water {side.peak_occupancy}, "
                    f"capacity {capacity}"
                )

    def _check_queues(self) -> None:
        controller = self.controller
        if set(controller.internal_queue) != controller._limbo:
            self._fail(
                "victim-buffer set and queue diverged: "
                f"queue={sorted(set(controller.internal_queue))} "
                f"set={sorted(controller._limbo)}"
            )
        if not isinstance(controller, HybridController):
            return
        name = type(controller).__name__
        pending = controller._pending_main_insert
        if set(controller.main_insert_queue) != pending:
            self._fail(f"{name} main-insert queue and pending set diverged")
        if not controller._evicting <= set(controller.side_map):
            self._fail(
                f"{name} eviction set references blocks outside the "
                f"{controller.TREE} map"
            )

    def _check_treetop_mirror(self) -> None:
        """IR-Stash: the S-Stash address index mirrors top-level residency,
        and each set's count is its resident blocks, at most ``ways``."""
        controller = self.controller
        treetop = controller.treetop
        if not treetop.addressable_by_block:
            return
        top = controller.oram.top_cached_levels
        actual: Set[int] = set()
        for level, _, slots in controller.tree.iter_buckets():
            if level >= top:
                continue
            for block in slots:
                if block != EMPTY:
                    actual.add(block)
        mirror = set(treetop.resident_blocks())
        if actual != mirror:
            extra = sorted(mirror - actual)[:5]
            missing = sorted(actual - mirror)[:5]
            self._fail(
                f"S-Stash mirror diverged from top-level residency "
                f"(extra={extra}, missing={missing})"
            )
        counts = [0] * treetop.sets
        for block in mirror:
            counts[treetop.set_of(block)] += 1
        for index, (held, count) in enumerate(
            zip(treetop._set_count, counts)
        ):
            if held != count or held > treetop.ways:
                self._fail(
                    f"S-Stash set {index} counts {held} blocks, holds "
                    f"{count} of {treetop.ways} ways"
                )

    def _check_merkle(self) -> None:
        integrity = getattr(self.controller, "integrity", None)
        if integrity is None:
            return
        if integrity.compute_hash(0, 0) != integrity.root:
            self._fail(
                "Merkle root unstable: stored hash tree no longer "
                "authenticates against the trusted on-chip root"
            )
        leaf = self.audits % self.controller.oram.leaves
        try:
            integrity.verify_path(leaf, count=False)
        except IntegrityError as exc:
            self._fail(f"Merkle spot verification failed: {exc}")

    def _check_ring_macs(self) -> None:
        """Ring integrity: every materialized bucket still authenticates.

        Runs silently (``count=False``) so audited runs stay
        counter-bit-identical to unaudited ones.
        """
        integrity = getattr(self.controller, "ring_integrity", None)
        if integrity is None:
            return
        for level, position, bucket in self.controller.iter_ring_buckets():
            try:
                integrity.verify_bucket(
                    level, position, bucket.slots, count=False
                )
            except IntegrityError as exc:
                self._fail(f"ring MAC verification failed: {exc}")


def attach_auditor(
    target,
    every: Optional[int] = None,
    check_rate: bool = False,
    check_integrity: bool = True,
) -> InvariantAuditor:
    """Attach an :class:`InvariantAuditor` to a run.

    ``target`` is a controller or a
    :class:`~repro.core.schemes.SimComponents` (whose LLC then backs the
    strict end-of-run external check).  An existing ``slot_observer`` is
    chained, not replaced.
    """
    controller = getattr(target, "controller", target)
    llc = getattr(target, "llc", None)
    auditor = InvariantAuditor(
        controller,
        every=every,
        check_rate=check_rate,
        check_integrity=check_integrity,
        llc=llc,
    )
    previous = controller.slot_observer
    if previous is None:
        controller.slot_observer = auditor.observe
    else:
        def chained(result, _prev=previous, _next=auditor.observe):
            _prev(result)
            _next(result)

        controller.slot_observer = chained
    return auditor
