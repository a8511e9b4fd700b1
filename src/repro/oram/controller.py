"""The Path ORAM controller.

Implements the full protocol of Section II-B on top of the tree, stash,
PosMap/PLB, tree-top cache, and DRAM model:

* the stash/PosMap/PLB phase (with Freecursive recursion through the merged
  namespace: a PLB miss on a PosMap1 block triggers a PosMap2 consultation,
  and each missing PosMap block costs a full, externally indistinguishable
  path access);
* the path read phase (cached top levels are free; deeper levels generate
  ``Z_l`` block reads per level through the DRAM model);
* the block remap phase (uniform random leaf; the parent PosMap block,
  which translation pinned in the PLB, is dirtied);
* the path write phase (greedy bottom-up placement from the stash);
* background eviction (Ren et al.) when the stash exceeds its threshold;
* timing-channel protection (Fletcher et al.): one path access per T
  cycles, with dummy paths — or IR-DWB conversions — filling empty slots;
* the LLC-D delayed remapping policy (Nagarajan et al.) as an alternative
  remap policy;
* dirty PLB evictions written back through full ORAM accesses.

The controller is deliberately *stateless per request chain*: at every
issue slot it recomputes the next path the head request needs from current
PLB/stash state.  Chains therefore interleave naturally with background
evictions and internal PosMap write-backs.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Set, Tuple

from .. import stats_keys as sk
from ..config import SystemConfig
from ..errors import ProtocolError
from ..mem.dram import DRAMModel
from ..mem.layout import TreeLayout
from ..obs import events as ev
from ..perf.native import (
    DRAIN_DUMMY,
    DRAIN_IDLE,
    DUMMIES_CALLER,
    DUMMIES_KERNEL,
    DUMMIES_NONE,
    SERVED_EXTRACT,
    SERVED_NONE,
    SERVED_REMAP,
    counter_keys,
)
from ..perf.native import fastpath as _fastpath
from ..stats import Stats
from .plb import PLB
from .posmap import PositionMap
from .stash import Stash
from .tree import EMPTY, ORAMTree
from .treetop import TreeTopCache
from .types import (
    BlockKind,
    Namespace,
    PathAccessRecord,
    PathType,
    Request,
    RequestKind,
)

#: Latency charged for requests served entirely on chip (stash, S-Stash,
#: or tree-top hits): SRAM lookups plus controller occupancy.
ONCHIP_LATENCY = 20

#: Pre-rendered per-path-type stat keys (the write/read phases are hot).
_PATHS_KEY = {pt: sk.paths_key(pt) for pt in PathType}
_MEM_BLOCKS_KEY = {pt: sk.mem_blocks_key(pt) for pt in PathType}

#: After this many back-to-back eviction slots one queued request is let
#: through, preventing starvation during eviction storms.
MAX_CONSECUTIVE_EVICTIONS = 50

#: The path types and request kinds as the kernel state lists them
#: (``native.counter_keys`` follows the same order).  The kernels take
#: DATA, POS1, POS2, DUMMY and EVICTION first, as ``PathType`` declares
#: them; a drained path's type code is its index, as in CycleAttribution.
_KERNEL_PATH_TYPES = tuple(PathType)
_KERNEL_COUNTER_KEYS = counter_keys(_KERNEL_PATH_TYPES)
_REQUEST_KINDS = (
    RequestKind.READ, RequestKind.WRITEBACK, RequestKind.REINSERT,
)


@dataclass
class SlotResult:
    """Outcome of one controller decision slot."""

    issued_path: bool
    path_type: Optional[PathType]
    start: int
    finish_read: int
    finish_write: int
    completions: List[Request] = field(default_factory=list)


class PathORAMController:
    """Freecursive Path ORAM controller with pluggable IR-ORAM extensions."""

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
        treetop: Optional[TreeTopCache] = None,
        delayed_remap: bool = False,
    ) -> None:
        self.config = config
        self.oram = config.oram
        self.stats = stats if stats is not None else Stats()
        self.rng = rng if rng is not None else random.Random(config.seed)

        self._rebind_native()
        self.namespace = Namespace(self.oram)
        self.tree = ORAMTree(self.oram)
        self.stash = Stash(self.oram.stash_capacity, self.stats)
        self.posmap = PositionMap(
            self.namespace, self.oram.leaves, self.rng, self._native
        )
        self.plb = PLB(self.oram, self.stats)
        self.layout = TreeLayout(self.oram, config.dram)
        self.dram = DRAMModel(config.dram, self.stats)
        self.treetop = treetop if treetop is not None else TreeTopCache(
            self.oram, self.stats
        )
        self.delayed_remap = delayed_remap

        #: optional IR-DWB engine (duck-typed; see repro.core.ir_dwb)
        self.dwb = None
        #: optional security observer receiving PathAccessRecord objects
        self.observer: Optional[Callable[[PathAccessRecord], None]] = None
        #: optional conformance hook receiving every non-``None``
        #: :class:`SlotResult` (see :mod:`repro.validate`); must be
        #: read-only with respect to controller state, counters, and RNG
        self.slot_observer: Optional[Callable[[SlotResult], None]] = None
        #: when True, classify write-phase placements for Fig. 5
        self._track_migration = False

        #: ``engine.tier.kernel_paths`` and ``engine.batch.*`` (calls,
        #: paths): how the paths ran, booked by the kernels; surfaced
        #: through the stats snapshot by the API layer after the run
        #: completes.
        self.batch_counters: dict = {}

        self.queue: Deque[Request] = deque()
        #: PosMap blocks evicted from the PLB whose re-insertion into the
        #: tree is waiting for their parent mapping (a victim buffer).
        self.internal_queue: Deque[int] = deque()
        self._limbo: set = set()
        #: :attr:`path_count`, in an array the kernels count into
        self._path_count = array("q", [0])
        self._consecutive_evictions = 0
        self._initialize_tree()
        self._bind_kernel_state()

    def _rebind_native(self) -> None:
        """(Re)derive the optional C-kernel binding from current state.

        One binding serves setup (the position map's draws and the tree
        fill), whole path accesses and drained slots for every tree-top
        type.  The kernels draw leaves by inlining
        ``random.Random``'s own rejection loop over ``getrandbits``, so a
        subclass of it runs the Python code throughout.  Called from
        ``__init__`` and again after unpickling: the kernel module is
        process-local state that cannot cross a checkpoint, so
        :meth:`__setstate__` rebinds it here.
        """
        self._native = (
            _fastpath
            if _fastpath is not None
            and self.oram.levels < 64
            and type(self.rng) is random.Random
            else None
        )

    def _bind_kernel_state(self) -> None:
        """(Re)build the ``KernelState`` every C kernel call takes, and
        decide the tier.

        It holds live references into controller state — the kernels
        mutate the same arrays, dicts and sets the Python loops would, so
        execution tiers can be mixed freely within one run — and
        validates them once, here.  Rebuilt on unpickling, which
        replaces every referenced container.
        """
        self._kstate = (
            self._native.KernelState(**self._kernel_state_fields())
            if self._native is not None else None
        )
        self.refresh_tier()

    def refresh_tier(self) -> None:
        """Run the tier gate (:meth:`_kernel_tier`) and keep its verdict.

        Every path access, translation and slot follows the kept verdict
        instead of re-running the gate.  It is decided when the kernel
        state is built and again at each site that hooks a phase after
        construction: :func:`~repro.oram.integrity.attach_integrity`,
        setting :attr:`track_migration`, and the mutants' instance
        ``posmap.remap``.  Besides the tier it keeps whether the write
        burst is the stock one (Palermo-style deferral replaces it) and
        whether untraced slots may run in the ``drain_slots`` kernel
        (:meth:`drain_slots`): the kernel tier, the stock burst, and none
        of the slot methods the drain replaces overridden by a subclass
        or an instance.  Class-level timing wrappers on this class
        (perfbench's traced mode) leave both on.
        """
        self._tier = self._kernel_tier()
        self._write_burst = (
            getattr(self._writeback_path, "__func__", None)
            is _STOCK_WRITEBACK
        )
        self._serve = (
            self._tier and self._write_burst
            and not self._overrides(_SERVE_METHODS)
        )

    def _overrides(self, names: Tuple[str, ...]) -> bool:
        """Whether an instance attribute or a subclass replaces any of
        ``names`` (what this class holds now, wrappers included)."""
        own, cls, stock = vars(self), type(self), vars(PathORAMController)
        return any(
            name in own or getattr(cls, name) is not stock[name]
            for name in names
        )

    @property
    def _native(self):
        """The C kernel module this controller calls, or None.

        Assigning it (a test drops one controller's kernels, or wraps
        them to count calls) re-runs the tier gate once the tier has been
        decided."""
        return self._kernels

    @_native.setter
    def _native(self, module) -> None:
        self._kernels = module
        if "_tier" in vars(self):
            self.refresh_tier()

    @property
    def track_migration(self) -> bool:
        """Whether write-phase placements are classified for Fig. 5;
        the Python phases do that, so setting it re-runs the tier gate."""
        return self._track_migration

    @track_migration.setter
    def track_migration(self, value: bool) -> None:
        self._track_migration = value
        self.refresh_tier()

    @property
    def path_count(self) -> int:
        """Paths issued so far, on every tier."""
        return self._path_count[0]

    @path_count.setter
    def path_count(self, value: int) -> None:
        self._path_count[0] = value

    def _kernel_state_fields(self) -> dict:
        """The ``KernelState`` constructor's arguments, from live state."""
        dram_cfg = self.config.dram
        treetop = self.treetop
        if treetop.addressable_by_block:
            # IR-Stash's S-Stash: the kernels hash, place and release
            # blocks in its set-index and set-count arrays.
            sstash = dict(
                treetop_mode=1, set_index=treetop._set_index,
                set_count=treetop._set_count, sets=treetop.sets,
                ways=treetop.ways,
            )
        else:
            # The dedicated cache, whose hooks are bare counters.
            sstash = dict(
                treetop_mode=0, set_index=None, set_count=None, sets=0,
                ways=0,
            )
        namespace = self.namespace
        oram = self.oram
        return dict(
            leaves=oram.leaves,
            z_per_level=self.oram.z_per_level,
            top=self.oram.top_cached_levels,
            tree_slots=self.tree._slots,
            level_used=self.tree.level_used,
            leaf_table=self.posmap._leaf_of,
            path_table=self.layout.path_table,
            bank_ready=self.dram.bank_ready,
            bank_open_row=self.dram.bank_open_row,
            bus_free=self.dram.bus_free,
            dram=(
                dram_cfg.cpu_cycles_per_dram_cycle,
                dram_cfg.t_rp,
                dram_cfg.t_rcd,
                dram_cfg.t_burst,
                dram_cfg.t_cas + dram_cfg.t_burst,
                dram_cfg.row_blocks,
                dram_cfg.channels,
                dram_cfg.banks_per_channel,
            ),
            **sstash,
            getrandbits=self.rng.getrandbits,
            plb_blocks=self.plb._blocks,
            plb_dirty=self.plb._dirty,
            plb_fills=self.plb._fills,
            plb_ways=self.plb.ways,
            namespace=(
                namespace.posmap1_base,
                namespace.posmap2_base,
                namespace.total_blocks,
                namespace.fanout,
            ),
            limbo=self._limbo,
            internal_queue=self.internal_queue,
            counters=self.stats.counters,
            counter_keys=_KERNEL_COUNTER_KEYS,
            stash=self.stash,
            posmap=self.posmap,
            path_types=_KERNEL_PATH_TYPES,
            request_kinds=_REQUEST_KINDS,
            histograms=self.stats.histograms,
            batch_counters=self.batch_counters,
            path_count=self._path_count,
            eviction_threshold=self.oram.eviction_threshold,
            background_eviction=self.oram.allow_background_eviction,
            delayed_remap=self.delayed_remap,
            onchip_latency=ONCHIP_LATENCY,
            requests=self.queue,
            issue_interval=oram.issue_interval,
            timing_protection=oram.timing_protection,
            max_evictions=MAX_CONSECUTIVE_EVICTIONS,
        )

    # ------------------------------------------------------------------
    # pickling (mid-run checkpoints)
    # ------------------------------------------------------------------
    # Controllers are snapshotted mid-run by repro.sim.checkpoint.  Three
    # kinds of attribute cannot (or must not) cross the pickle boundary:
    # the C kernel binding (a process-local module object), the kernel
    # state built for it (and the tier decided with it), and the two
    # observer hooks (arbitrary callables — auditors and checkpoint
    # managers re-attach themselves on resume).  Everything else is
    # plain Python state and round-trips exactly, so a resumed run is
    # bit-identical to an uninterrupted one.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_kernels"] = None
        state["_kstate"] = None
        state["observer"] = None
        state["slot_observer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rebind_native()
        self._bind_kernel_state()

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    def _initialize_tree(self) -> None:
        """Place every namespace block into the tree along its random path."""
        #: whether ``init_tree`` built the tree (``engine.tier.kernel_setup``)
        self._kernel_setup = self._native is not None
        overflow = self.tree.initialize(
            self.posmap._leaf_of, self.rng, self._native
        )
        for block in overflow:
            self.stash.add(block, self.posmap.leaf_of(block))
        # Mirror top-level residency into the tree-top structure.
        top_levels = self.oram.top_cached_levels
        for level in range(top_levels):
            for position in range(1 << level):
                for block in self.tree.bucket(level, position):
                    if block != EMPTY:
                        self.treetop.on_place(block)
        self.stats.set(sk.INIT_OVERFLOW_BLOCKS, len(overflow))

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        self.queue.append(request)
        self.stats.inc(sk.requests_key(request.kind))
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.ACCESS_START,
                request.arrival,
                block=request.block,
                req=request.kind.value,
                write=bool(request.is_write),
            )

    def has_any_real_work(self) -> bool:
        return bool(self.queue) or bool(self.internal_queue)

    def next_arrival(self) -> Optional[int]:
        return self.queue[0].arrival if self.queue else None

    # ------------------------------------------------------------------
    # the issue slot
    # ------------------------------------------------------------------
    def step(self, now: int, allow_dummy: bool = True) -> Optional[SlotResult]:
        """Run one decision slot at cycle ``now``.

        Drains every request servable without memory traffic, then issues at
        most one path access, chosen by priority: dirty PosMap write-backs,
        background eviction, the head queued request, then (when the timing
        defense is active and ``allow_dummy``) an IR-DWB conversion or a
        plain dummy path.  Returns ``None`` when there is nothing to do.

        Untraced and unobserved, a serve-tier controller runs the slot as
        a one-slot :meth:`drain_slots` call; the Python methods below
        stay the oracle, and run every traced slot with the kernels doing
        each path access and translation.
        """
        if self._serve and self.stats.tracer is None and self.observer is None:
            completions, records, _, _, stop, _ = self.drain_slots(
                now, 1, allow_dummy=allow_dummy
            )
            if stop == DRAIN_IDLE:
                return None
            result = SlotResult(False, None, now, now, now, completions)
            if records:
                result = SlotResult(True, _KERNEL_PATH_TYPES[records[0]],
                                    *records[1:4], completions)
        else:
            if self.internal_queue:
                self._drain_posmap_reinserts()
            completions = self._drain_instant(now)
            result = self._issue_priority_path(now)
            if result is None and allow_dummy and self.oram.timing_protection:
                result = self._dummy_slot(now)
            if result is not None:
                result.completions = completions + result.completions
            elif completions:
                result = SlotResult(False, None, now, now, now, completions)
            else:
                return None
        observer = self.slot_observer
        if observer is not None:
            observer(result)
        return result

    def drain_slots(self, now: int, cap: int, allow_dummy: bool = True,
                    front=None, idle: int = 0) -> tuple:
        """Run up to ``cap`` issue slots from ``now`` in one ``drain_slots``
        kernel call, as the simulator's loop would step them (serve tier
        only, untraced and unobserved).  Without a ``front`` end the
        kernel also stops after an idle slot (DRAIN_IDLE: ``step`` gives
        None); with the simulator's ``FrontEnd`` it runs the processor
        and the completions between slots and the idle slots (``idle``
        counts them), up to the end of the run (DRAIN_DONE).  Unless
        IR-DWB may convert it, it runs a dummy slot itself; else it stops
        there (DRAIN_DUMMY), :meth:`_dummy_slot` fills it here, and that
        slot's completions come back unapplied.  Returns the completions,
        an ``array('q')`` of (path type code, start, finish_read,
        finish_write, stall_until) per path, the next slot's cycle, the
        slots run, the stop and the idle count.
        """
        if not (allow_dummy and self.oram.timing_protection):
            dummies = DUMMIES_NONE
        elif self.dwb is None:
            dummies = DUMMIES_KERNEL
        else:
            dummies = DUMMIES_CALLER
        try:
            (completions, records, now, slots, stop,
             self._consecutive_evictions, idle) = self._native.drain_slots(
                self._kstate, front, now, cap, dummies,
                self._consecutive_evictions, idle,
            )
        except RuntimeError as exc:
            raise ProtocolError(str(exc)) from None
        if stop == DRAIN_DUMMY:
            result = self._dummy_slot(now)
            stall_until = now + self.oram.issue_interval
            records.extend((
                _KERNEL_PATH_TYPES.index(result.path_type), result.start,
                result.finish_read, result.finish_write, stall_until,
            ))
            now = max(stall_until, result.finish_write)
        return completions, records, now, slots, stop, idle

    def _issue_priority_path(self, now: int) -> Optional[SlotResult]:
        if self.internal_queue:
            return self._step_posmap_writeback(now)
        over = self.stash.over_threshold(self.oram.eviction_threshold)
        if over and self.oram.allow_background_eviction:
            if self._consecutive_evictions < MAX_CONSECUTIVE_EVICTIONS or not (
                self.queue and self.queue[0].arrival <= now
            ):
                self._consecutive_evictions += 1
                return self._eviction_path(now)
            self.stats.inc(sk.EVICTION_STORM_YIELDS)
        self._consecutive_evictions = 0
        if self.queue and self.queue[0].arrival <= now:
            return self._step_request(now)
        return None

    # ------------------------------------------------------------------
    # instant (on-chip) servicing
    # ------------------------------------------------------------------
    def _drain_instant(self, now: int) -> List[Request]:
        """Serve, without any path access, every head request that allows it."""
        served: List[Request] = []
        while self.queue and self.queue[0].arrival <= now:
            request = self.queue[0]
            if not self._try_instant(request, now):
                break
            self.queue.popleft()
            served.append(request)
        return served

    def _try_instant(self, request: Request, now: int) -> bool:
        block = request.block

        # 1. stash hit (fully associative, searched by block address)
        if block in self.stash:
            self._serve_stash_hit(request, now)
            return True

        # 2. IR-Stash: S-Stash probe by block address — no PosMap needed.
        if self.treetop.addressable_by_block and self.treetop.lookup_by_address(
            block
        ):
            self._serve_treetop_hit_by_address(request, now)
            return True

        # 3. LLC-D re-insertion: needs only a PLB-resident parent mapping.
        if request.kind is RequestKind.REINSERT:
            if self._translation_chain(block):
                return False
            self._finish_reinsert(request, now)
            return True

        # 4. free translation + tree-top hit: when every PosMap level is in
        #    the PLB and the block sits in the cached top of its path, the
        #    whole access is on chip.
        if self._translation_chain(block):
            return False
        leaf = self.posmap.leaf_of(block)
        self._count_translation(request)
        location = self._find_in_treetop(block, leaf)
        if location is not None:
            self._serve_treetop_hit(request, leaf, location, now)
            return True
        return False

    def _serve_stash_hit(self, request: Request, now: int) -> None:
        request.completion = now + ONCHIP_LATENCY
        self.stats.inc(sk.SERVE_STASH_HITS)
        if request.kind is RequestKind.READ:
            self.stats.bump(sk.HIT_LEVEL, "stash")
        if self.delayed_remap and request.kind is RequestKind.READ:
            # LLC-D: the block moves entirely into the LLC.
            self.stash.remove(request.block)
            self.posmap.discard(request.block)
        # WRITEBACK to a stash-resident block updates it in place; REINSERT
        # of a stash-resident block cannot happen (it would be unmapped).

    def _serve_treetop_hit_by_address(self, request: Request, now: int) -> None:
        """IR-Stash S-Stash hit: served with no PosMap access and no remap."""
        request.completion = now + ONCHIP_LATENCY
        self.stats.inc(sk.SERVE_SSTASH_HITS)
        if request.kind is RequestKind.READ:
            self.stats.bump(sk.HIT_LEVEL, "sstash")
        if self.delayed_remap and request.kind is RequestKind.READ:
            self._remove_from_treetop(request.block)
            self.posmap.discard(request.block)

    def _serve_treetop_hit(
        self, request: Request, leaf: int, location: Tuple[int, int], now: int
    ) -> None:
        """Baseline tree-top hit after translation: on chip, no remap."""
        level, _ = location
        request.completion = now + ONCHIP_LATENCY
        self.stats.inc(sk.SERVE_TREETOP_HITS)
        if request.kind is RequestKind.READ:
            self.stats.bump(sk.HIT_LEVEL, level)
        if self.delayed_remap and request.kind is RequestKind.READ:
            self._remove_from_treetop(request.block)
            self.posmap.discard(request.block)

    def _find_in_treetop(self, block: int, leaf: int) -> Optional[Tuple[int, int]]:
        """Locate ``block`` in the cached-top portion of its path.

        On the kernel tier ``find_in_treetop`` scans the flat slot array.
        """
        if self._tier:
            try:
                return self._native.find_in_treetop(self._kstate, block, leaf)
            except RuntimeError as exc:
                raise ProtocolError(str(exc)) from None
        tree = self.tree
        for level in range(self.oram.top_cached_levels):
            position = tree.path_position(leaf, level)
            if block in tree.bucket(level, position):
                return level, position
        return None

    def _remove_from_treetop(self, block: int) -> None:
        """Drop a block from whatever top-level bucket holds it (LLC-D)."""
        leaf = self.posmap.leaf_of(block)
        location = self._find_in_treetop(block, leaf)
        if location is None:
            raise ProtocolError(f"block {block} vanished from tree top")
        self.tree.remove(*location, block)
        self.treetop.on_remove(block)

    def _finish_reinsert(self, request: Request, now: int) -> None:
        """LLC-D: an evicted LLC line rejoins the tree via the stash."""
        self._restore_to_stash(request.block)
        request.completion = now + ONCHIP_LATENCY
        self.stats.inc(sk.SERVE_REINSERTS)

    def _restore_to_stash(self, block: int) -> None:
        """An unmapped block re-enters the ORAM: a fresh leaf, its parent
        PosMap block dirtied in the PLB, and a stash entry."""
        leaf = self.posmap.restore(block)
        parent = self.namespace.parent_block(block)
        if parent is not None:
            self.plb.mark_dirty(parent)
        self.stash.add(block, leaf)

    # ------------------------------------------------------------------
    # translation (PosMap / PLB)
    # ------------------------------------------------------------------
    def _posmap_on_chip(self, pm_block: int) -> bool:
        """Is a PosMap block's content available on chip?

        Either resident in the PLB or sitting in the eviction victim
        buffer awaiting re-insertion (its entries stay readable there).
        """
        return self.plb.contains(pm_block) or pm_block in self._limbo

    def _translation_chain(self, block: int) -> List[int]:
        """PosMap blocks that must be fetched before ``block``'s leaf is known.

        Returned deepest-first: ``[pm2, pm1]``, ``[pm1]``, or ``[]``.
        PosMap2 blocks themselves translate through the on-chip PosMap3.

        As a side effect, PosMap blocks that are already on chip but not in
        the PLB — sitting in the stash, or resident in the cached tree top —
        are *promoted* into the PLB for free.  In the dedicated-cache
        baseline a tree-top resident is only reachable once its parent
        mapping is known; with IR-Stash's S-Stash it is found directly by
        block address.

        On the kernel tier one ``translate`` call walks the chain with
        every promotion, PLB fill and victim re-insert; the Python walk
        below (:meth:`_try_promote`, :meth:`_fill_plb`,
        :meth:`_reinsert_posmap_block`) is its oracle.
        """
        if self._tier:
            try:
                return self._native.translate(self._kstate, block)
            except RuntimeError as exc:
                raise ProtocolError(str(exc)) from None
        kind = self.namespace.kind_of(block)
        if kind is BlockKind.POSMAP2:
            return []
        if kind is BlockKind.USER:
            pm1: Optional[int] = self.namespace.posmap1_block(block)
            pm2 = self.namespace.posmap2_block(pm1)
        else:
            pm1 = None
            pm2 = self.namespace.posmap2_block(block)
        # PosMap2 first: its own mapping is always on chip (PosMap3).
        self._try_promote(pm2)
        pm2_ready = self._posmap_on_chip(pm2)
        if pm1 is None:
            return [] if pm2_ready else [pm2]
        self._try_promote(pm1)
        if self._posmap_on_chip(pm1):
            return []
        return [pm1] if pm2_ready else [pm2, pm1]

    def _try_promote(self, pm_block: int) -> None:
        """Move an on-chip-reachable PosMap block into the PLB at no cost.

        The stash is fully associative and searched by block address in
        every design, so stash-resident PosMap blocks always promote free.
        Tree-top residents promote free only under IR-Stash: the S-Stash is
        indexed by block address.  The dedicated-tree-top-cache baseline is
        position-indexed and never consulted for PosMap lookups — a PLB
        miss costs a full path access even when the block's bits happen to
        sit on chip, which is exactly the waste Section IV-C describes.

        Part of the Python chain walk; on the kernel tier ``translate``
        runs its C counterpart.
        """
        if self._posmap_on_chip(pm_block):
            return
        if pm_block in self.stash:
            self.stash.remove(pm_block)
            self.posmap.discard(pm_block)
            self._fill_plb(pm_block)
            self.stats.inc(sk.PLB_STASH_PROMOTIONS)
            return
        if self.oram.top_cached_levels == 0:
            return
        if not self.treetop.addressable_by_block:
            return
        if not self.treetop.lookup_by_address(pm_block):
            return
        if not self.posmap.is_mapped(pm_block):
            return
        leaf = self.posmap.leaf_of(pm_block)
        location = self._find_in_treetop(pm_block, leaf)
        if location is None:
            return
        self.tree.remove(*location, pm_block)
        self.treetop.on_remove(pm_block)
        self.posmap.discard(pm_block)
        self._fill_plb(pm_block)
        self.stats.inc(sk.PLB_TREETOP_PROMOTIONS)

    def _fill_plb(self, pm_block: int) -> None:
        """Install a promoted PosMap block, dirty, and re-insert the
        victim (``plb_install`` on the kernel tier)."""
        if self._tier:
            self._install_plb(pm_block, True, False)
            return
        victim = self.plb.fill(pm_block, dirty=True)
        if victim is not None:
            self._reinsert_posmap_block(victim.block)

    def _install_plb(self, pm_block: int, dirty: bool, fetch: bool) -> None:
        """``plb_install``: the PLB fill and its victim's re-insert in C."""
        try:
            self._native.plb_install(self._kstate, pm_block, dirty, fetch)
        except RuntimeError as exc:
            raise ProtocolError(str(exc)) from None

    def _count_translation(self, request: Request) -> None:
        if request.translation_counted:
            return
        request.translation_counted = True
        self.stats.inc(sk.TRANSLATION_COMPLETED)

    # ------------------------------------------------------------------
    # path access primitives
    # ------------------------------------------------------------------
    def _kernel_tier(self) -> bool:
        """Whether the C kernels may run this controller's path accesses.

        They need the kernels loaded, no Fig. 5 migration tracking, no
        instance hook on the position map's ``remap``, and every phase
        method the kernels fuse (instance or class attribute) still the
        stock one captured at import.  Controllers that hook a phase (the
        Merkle layer, the leaky mutants, the write-phase reference
        monkeypatch) run the Python phases, which stay the oracle.
        Timing wrappers on the position map's class (perfbench's traced
        mode) leave the kernel on, so a traced run times the same code.
        Evaluated by :meth:`refresh_tier`, not per path.
        """
        if (
            self._native is None
            or self.track_migration
            or "remap" in vars(self.posmap)
        ):
            return False
        for name, stock in _STOCK_PHASES:
            if getattr(getattr(self, name), "__func__", None) is not stock:
                return False
        return True

    def _access(
        self, leaf: int, path_type: PathType, now: int,
        served: Optional[int] = None, mode: int = SERVED_NONE,
    ) -> Tuple[int, int, int]:
        """One path access of the path to ``leaf`` issued at ``now``.

        Read phase, then the ``served`` block's step (``mode``: remap it,
        extract it, or nothing for eviction and dummy paths), then the
        write phase.  Returns ``(finish_read, finish_write,
        served_level)``.  On the kernel tier one ``access_path`` call does
        all of it; otherwise the Python phases run.
        """
        if self._tier:
            return self._kernel_access(leaf, path_type, now, served, mode)
        preexisting = (
            set(self.stash.blocks())
            if self.track_migration and path_type is not PathType.DUMMY
            else None
        )
        finish_read, _, served_level = self._service_path(
            leaf, path_type, now, served
        )
        if served is not None:
            if served not in self.stash:
                raise ProtocolError(
                    f"block {served} absent from path {leaf} and stash"
                )
            if mode == SERVED_EXTRACT:
                # The block leaves the ORAM (LLC-D / Rho promotion).
                self.stash.remove(served)
                self.posmap.discard(served)
            else:
                self.stash.update_leaf(served, self.posmap.remap(served))
        finish_write = self._write_path(
            leaf, finish_read, path_type, preexisting
        )
        return finish_read, finish_write, served_level

    def _kernel_access(
        self, leaf: int, path_type: PathType, now: int,
        served: Optional[int], mode: int,
    ) -> Tuple[int, int, int]:
        """:meth:`_access` in one ``access_path`` call, which books every
        counter the Python phases book; this emits what they would emit
        when traced or observed, from the values the call returns.

        A subclass that replaces :meth:`_writeback_path` (Palermo-style
        deferral) keeps its read phase and placement in C and issues the
        burst itself.
        """
        write_burst = self._write_burst
        try:
            (finish_read, finish_write, served_level, peak, blocks,
             read_hits, read_conflicts, write_hits,
             write_conflicts) = self._native.access_path(
                self._kstate, leaf, now, served, mode, write_burst,
                path_type,
            )
        except RuntimeError as exc:
            raise ProtocolError(str(exc)) from None
        tracer = self.stats.tracer
        if tracer is not None:
            self.dram.emit_batch(blocks, False, now, finish_read, read_hits,
                                 read_conflicts)
            if peak:
                tracer.emit(ev.STASH_HWM, now, occupancy=peak)
        if tracer is not None or self.observer is not None:
            self._emit_path_read(leaf, path_type, now, finish_read, blocks)
        if not write_burst:
            finish_write = self._writeback_path(leaf, finish_read, path_type)
        elif tracer is not None:
            self.dram.emit_batch(blocks, True, finish_read, finish_write,
                                 write_hits, write_conflicts)
            self._emit_path_write(leaf, path_type, finish_read, finish_write,
                                  blocks)
        return finish_read, finish_write, served_level

    def _service_path(
        self, leaf: int, path_type: PathType, now: int,
        served: Optional[int] = None,
    ) -> Tuple[int, int, int]:
        """The Python read phase of one path access.

        Every real block on the path moves into the stash, and blocks
        read from the cached top leave the tree-top structure.  Returns
        ``(finish_read, start, served_level)``: the level ``served`` was
        read from, or -1 when it was not on the path.
        """
        triples = self._dram_triples(leaf)
        blocks = len(triples) // 3
        finish_read = self.dram.service_decomposed(triples, False, now)

        top = self.oram.top_cached_levels
        treetop_remove = self.treetop.on_remove
        served_level = -1
        read: List[int] = []
        for block, level in self.tree.read_and_clear(leaf):
            if level < top:
                treetop_remove(block)
            read.append(block)
            if block == served:
                served_level = level
        leaf_of = self.posmap.leaf_of
        self.stash.extend(read, [leaf_of(block) for block in read])
        self.stash.note_peak(now)
        self._apply_path_counters(path_type, blocks)
        self._emit_path_read(leaf, path_type, now, finish_read, blocks)
        return finish_read, now, served_level

    def _emit_path_read(self, leaf: int, path_type: PathType, now: int,
                        finish_read: int, blocks: int) -> None:
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.PATH_READ,
                now,
                path_type=path_type.value,
                leaf=leaf,
                finish=finish_read,
                blocks=blocks,
            )
        if self.observer is not None:
            addresses = self.layout.path_addresses(leaf)
            record = PathAccessRecord(
                issue_cycle=now,
                leaf=leaf,
                path_type=path_type,
                read_addresses=list(addresses),
                write_addresses=list(addresses),
            )
            self.observer(record)

    def _dram_triples(self, leaf: int) -> "array[int]":
        """The DRAM (bank, channel, row) triples of one path, computed
        from the layout on every access: by the kernels' ``dram_triples``
        when loaded, else :meth:`TreeLayout.path_addresses` through
        :meth:`DRAMModel.decompose_batch`."""
        if self._native is not None:
            return self._native.dram_triples(self._kstate, leaf)
        return self.dram.decompose_batch(self.layout.path_addresses(leaf))

    def _write_path(self, leaf: int, finish_read: int, path_type: PathType,
                    preexisting: Optional[Set[int]] = None) -> int:
        """The Python write phase; returns the write completion cycle.

        Placement (:meth:`_place_path`) and the DRAM write burst
        (:meth:`_writeback_path`) are separable — Palermo-style decoupled
        controllers replace the burst with a deferral — and here they run
        back to back.  The placement decisions, and therefore every
        counter and cycle, are bit-identical to
        :meth:`_write_path_reference`.
        """
        self._place_path(leaf, preexisting)
        finish_write = self._writeback_path(leaf, finish_read, path_type)
        self._after_write_phase()
        return finish_write

    def _writeback_path(
        self, leaf: int, finish_read: int, path_type: PathType
    ) -> int:
        """The write phase's DRAM burst for an already-placed path."""
        triples = self._dram_triples(leaf)
        blocks = len(triples) // 3
        finish_write = self.dram.service_decomposed(triples, True, finish_read)
        self.stats.counters[sk.MEM_BLOCKS_WRITTEN] += blocks
        self._emit_path_write(leaf, path_type, finish_read, finish_write,
                              blocks)
        return finish_write

    def _place_path(
        self, leaf: int, preexisting: Optional[Set[int]] = None
    ) -> None:
        """Greedy bottom-up placement of stash blocks along one path.

        Eviction candidates come grouped by deepest eligible level
        (:meth:`Stash.path_pools`) and land through :meth:`ORAMTree.place`;
        with Fig. 5's ``track_migration`` each placement is classified.
        The placed blocks leave the stash in one :meth:`Stash.compact`.
        """
        oram = self.oram
        levels = oram.levels
        top = oram.top_cached_levels
        tree = self.tree
        landed: List[int] = []
        treetop = self.treetop
        stats = self.stats
        z_per_level = oram.z_per_level
        track = self.track_migration and preexisting is not None

        pools = self.stash.path_pools(leaf, levels)
        pool: List[int] = []
        for level in range(levels - 1, -1, -1):
            sub = pools[level]
            if sub:
                pool.extend(sub)
            z = z_per_level[level]
            if z == 0 or not pool:
                continue
            position = tree.path_position(leaf, level)
            gated = level < top
            rejected: Optional[List[int]] = None
            placed = 0
            while pool and placed < z:
                block = pool.pop()
                if gated and not treetop.may_place(block):
                    if rejected is None:
                        rejected = []
                    rejected.append(block)
                    stats.inc(sk.SSTASH_PLACEMENT_SKIPS)
                    continue
                if not tree.place(level, position, block):
                    raise ProtocolError("bucket full during write phase")
                if gated:
                    treetop.on_place(block)
                landed.append(block)
                placed += 1
                if track:
                    origin = (
                        "preexisting" if block in preexisting else "fetched"
                    )
                    stats.bump(sk.migration_key(origin), level)
            if rejected:
                pool.extend(rejected)
        self.stash.compact(landed)

    def _emit_path_write(self, leaf: int, path_type: PathType, start: int,
                         finish: int, blocks: int) -> None:
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.PATH_WRITE,
                start,
                path_type=path_type.value,
                leaf=leaf,
                finish=finish,
                blocks=blocks,
            )

    def _write_path_reference(
        self, leaf: int, finish_read: int, path_type: PathType,
        preexisting: Optional[Set[int]] = None,
    ) -> int:
        """The pre-optimization write phase, retained verbatim.

        Kept as the behavioural oracle for the optimized :meth:`_write_path`:
        the seed-sweep equivalence tests run whole simulations against both
        and assert identical cycles and counters.
        """
        oram = self.oram
        levels = oram.levels
        top = oram.top_cached_levels

        # Bucket-sort stash blocks by the deepest level they may occupy.
        pools: List[List[int]] = [[] for _ in range(levels)]
        for block, block_leaf in self.stash.items():
            depth = self.tree.deepest_common_level(leaf, block_leaf)
            pools[depth].append(block)

        pool: List[int] = []
        for level in range(levels - 1, -1, -1):
            pool.extend(pools[level])
            z = oram.z_per_level[level]
            if z == 0 or not pool:
                continue
            position = self.tree.path_position(leaf, level)
            rejected: List[int] = []
            placed = 0
            while pool and placed < z:
                block = pool.pop()
                if level < top and not self.treetop.may_place(block):
                    rejected.append(block)
                    self.stats.inc("sstash.placement_skips")
                    continue
                if not self.tree.place(level, position, block):
                    raise ProtocolError("bucket full during write phase")
                if level < top:
                    self.treetop.on_place(block)
                self.stash.remove(block)
                placed += 1
                if self.track_migration and preexisting is not None:
                    origin = (
                        "preexisting" if block in preexisting else "fetched"
                    )
                    self.stats.bump(f"migration.{origin}", level)
            pool.extend(rejected)

        addresses = self.layout.path_addresses(leaf)
        finish_write = self.dram.service_addresses(addresses, True, finish_read)
        self.stats.inc("mem.blocks_written", len(addresses))
        self._after_write_phase()
        return finish_write

    def _after_write_phase(self) -> None:
        self.stash.compact()
        if self.stash.over_threshold(self.oram.eviction_threshold):
            self.stats.inc(sk.EVICTION_TRIGGERS)

    # ------------------------------------------------------------------
    # full accesses
    # ------------------------------------------------------------------
    def full_access(
        self,
        block: int,
        path_type: PathType,
        now: int,
        serve_request: Optional[Request] = None,
        extract_block: bool = False,
    ) -> SlotResult:
        """One complete ORAM access of ``block``: read, remap, write.

        Translation must already be satisfied (the parent PosMap block is in
        the PLB or the block is a PosMap2 block).  With ``extract_block``
        the served block is pulled out of the ORAM entirely instead of
        being remapped (LLC-D's delayed remapping, and Rho's promotion into
        the small tree, both work this way).
        """
        reading = (
            serve_request is not None
            and serve_request.kind is RequestKind.READ
        )
        extract = extract_block or (self.delayed_remap and reading)
        finish_read, finish_write, served_level = self._access(
            self.posmap.leaf_of(block), path_type, now, block,
            SERVED_EXTRACT if extract else SERVED_REMAP,
        )
        if reading and served_level >= 0:
            self.stats.bump(sk.HIT_LEVEL, served_level)
        if not extract:
            parent = self.namespace.parent_block(block)
            if parent is not None:
                if not self._posmap_on_chip(parent):
                    raise ProtocolError(
                        f"parent PosMap block {parent} not on chip at remap"
                    )
                self.plb.mark_dirty(parent)
        if serve_request is not None:
            serve_request.completion = finish_read
            serve_request.paths_used += 1
        return SlotResult(
            issued_path=True,
            path_type=path_type,
            start=now,
            finish_read=finish_read,
            finish_write=finish_write,
            completions=[serve_request] if serve_request is not None else [],
        )

    def fetch_posmap_block(self, pm_block: int, now: int) -> SlotResult:
        """Fetch a PosMap block through a full path access into the PLB.

        Freecursive PLB semantics are *exclusive*: the fetched block leaves
        the tree and lives in the PLB.  The displaced victim re-enters the
        ORAM through the stash — free when its parent mapping is on chip,
        deferred to the victim buffer (costing parent fetch paths) when not.
        """
        path_type = self.namespace.path_type_for(pm_block)
        result = self.full_access(pm_block, path_type, now, extract_block=True)
        self.stats.inc(sk.POSMAP_ACCESSES)
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.POSMAP_FETCH,
                now,
                block=pm_block,
                path_type=path_type.value,
                finish=result.finish_write,
            )
        if self._tier:
            # The fill, the victim's dirty counts and its re-insert.
            self._install_plb(pm_block, False, True)
            return result
        victim = self.plb.fill(pm_block, dirty=False)
        if victim is not None:
            if victim.dirty:
                # Counted a second time: the PLB's fill already counted
                # this dirty victim under the same key.
                self.stats.inc(sk.PLB_DIRTY_EVICTIONS)
            self._reinsert_posmap_block(victim.block)
        return result

    def _reinsert_posmap_block(self, pm_block: int) -> None:
        """Return an evicted PosMap block to the ORAM via the stash.

        Reached from the Python tier's PLB fills; on the kernel tier
        ``translate`` and ``plb_install`` re-insert their victims in C.
        """
        if self._translation_chain(pm_block):
            self.internal_queue.append(pm_block)
            self._limbo.add(pm_block)
            self.stats.inc(sk.PLB_DEFERRED_REINSERTS)
            return
        self._restore_to_stash(pm_block)
        self.stats.inc(sk.PLB_REINSERTS)

    def _drain_posmap_reinserts(self) -> None:
        """Complete deferred victim-buffer re-inserts whose parents arrived."""
        pending = len(self.internal_queue)
        for _ in range(pending):
            pm_block = self.internal_queue.popleft()
            self._limbo.discard(pm_block)
            if self._translation_chain(pm_block):
                self.internal_queue.append(pm_block)
                self._limbo.add(pm_block)
            else:
                self._restore_to_stash(pm_block)
                self.stats.inc(sk.PLB_REINSERTS)

    # ------------------------------------------------------------------
    # slot bodies
    # ------------------------------------------------------------------
    def _step_request(self, now: int) -> Optional[SlotResult]:
        request = self.queue[0]
        block = request.block
        chain = self._translation_chain(block)
        tracer = self.stats.tracer
        if chain:
            self.stats.inc(sk.PLB_MISS_FETCHES)
            if tracer is not None:
                tracer.emit(ev.PLB_MISS, now, block=block, fetch=chain[0])
            return self.fetch_posmap_block(chain[0], now)
        if tracer is not None:
            tracer.emit(ev.PLB_HIT, now, block=block)
        self._count_translation(request)

        if request.kind is RequestKind.REINSERT:
            # Translation became free mid-chain; finish instantly.
            self.queue.popleft()
            self._finish_reinsert(request, now)
            return SlotResult(False, None, now, now, now, [request])

        leaf = self.posmap.leaf_of(block)
        location = self._find_in_treetop(block, leaf)
        if location is not None:
            self.queue.popleft()
            self._serve_treetop_hit(request, leaf, location, now)
            return SlotResult(False, None, now, now, now, [request])

        self.queue.popleft()
        path_type = PathType.DATA
        if request.kind is RequestKind.WRITEBACK:
            self.stats.inc(sk.WRITEBACK_PATHS)
        return self.full_access(block, path_type, now, serve_request=request)

    def _step_posmap_writeback(self, now: int) -> SlotResult:
        """Fetch the parent a deferred victim-buffer re-insert is waiting on."""
        pm_block = self.internal_queue[0]
        chain = self._translation_chain(pm_block)
        if not chain:
            raise ProtocolError(
                "victim-buffer entry with a satisfied chain survived draining"
            )
        self.stats.inc(sk.POSMAP_WRITEBACK_PATHS)
        return self.fetch_posmap_block(chain[0], now)

    def _eviction_path(self, now: int) -> SlotResult:
        """Background eviction: read+write a random path, no remap, no serve."""
        leaf = self.rng.randrange(self.oram.leaves)
        finish_read, finish_write, _ = self._access(
            leaf, PathType.EVICTION, now
        )
        self.stats.inc(sk.EVICTION_PATHS)
        self.stats.inc(sk.EVICTION_CYCLES, finish_write - now)
        return SlotResult(True, PathType.EVICTION, now, finish_read, finish_write)

    def _dummy_slot(self, now: int) -> Optional[SlotResult]:
        """Fill an empty issue slot: IR-DWB conversion if possible, else dummy."""
        if self.dwb is not None:
            converted = self.dwb.dummy_slot(self, now)
            if converted is not None:
                self.stats.inc(sk.DWB_CONVERTED_SLOTS)
                return converted
        return self.dummy_path(now)

    def dummy_path(self, now: int) -> SlotResult:
        """A dummy path access: random path, read + write back (PT_m)."""
        leaf = self.rng.randrange(self.oram.leaves)
        finish_read, finish_write, _ = self._access(leaf, PathType.DUMMY, now)
        return SlotResult(True, PathType.DUMMY, now, finish_read, finish_write)

    # ------------------------------------------------------------------
    # path bookkeeping
    # ------------------------------------------------------------------
    def _apply_path_counters(self, path_type: PathType, blocks: int) -> None:
        """Count one Python-tier path of ``path_type`` that read
        ``blocks`` memory blocks (the kernels book their own)."""
        counters = self.stats.counters
        self._path_count[0] += 1
        counters[_PATHS_KEY[path_type]] += 1
        counters[sk.PATHS_TOTAL] += 1
        counters[sk.MEM_BLOCKS_READ] += blocks
        counters[_MEM_BLOCKS_KEY[path_type]] += 2 * blocks

    def run_dummy_batch(self, now: int, max_paths: int) -> int:
        """Issue ``max_paths`` dummy paths back to back, one
        :meth:`dummy_path` each, from ``now``; returns the cycle the last
        one's write burst ends.

        No simulation calls this: an untraced run's dummy slots drain
        inside :meth:`drain_slots`.  It stays because perfbench's
        ``perf.batch_s`` row still times it.
        """
        for _ in range(max_paths):
            now = self.dummy_path(now).finish_write
        return now

    # ------------------------------------------------------------------
    # inspection helpers
    # ------------------------------------------------------------------
    def blocks_per_path(self) -> int:
        return self.oram.blocks_per_path()

    def tier_counters(self) -> dict:
        """``engine.tier.*``: the paths each execution tier has run, and
        whether the setup kernel built the tree."""
        kernel = self.batch_counters.get(sk.ENGINE_TIER_KERNEL_PATHS, 0)
        batched = self.batch_counters.get(sk.ENGINE_BATCH_PATHS, 0)
        return {
            sk.ENGINE_TIER_KERNEL_PATHS: kernel,
            sk.ENGINE_TIER_BATCH_PATHS: batched,
            sk.ENGINE_TIER_PYTHON_PATHS: self.path_count - kernel - batched,
            sk.ENGINE_TIER_KERNEL_SETUP: int(self._kernel_setup),
        }

    def path_type_counts(self) -> dict:
        return {
            pt.value: self.stats.get(_PATHS_KEY[pt]) for pt in PathType
        }


#: The phase methods the kernels' path access fuses, as defined here;
#: :meth:`PathORAMController._kernel_tier` compares against these.
_STOCK_PHASES = tuple(
    (name, vars(PathORAMController)[name])
    for name in ("_service_path", "_write_path", "_place_path")
)
_STOCK_WRITEBACK = vars(PathORAMController)["_writeback_path"]

#: The slot methods the ``drain_slots`` kernel replaces; a subclass or
#: instance that overrides any of them steps through them instead.
_SERVE_METHODS = (
    "step", "_drain_posmap_reinserts", "_drain_instant", "_try_instant",
    "_serve_stash_hit", "_serve_treetop_hit_by_address",
    "_serve_treetop_hit", "_find_in_treetop", "_remove_from_treetop",
    "_finish_reinsert", "_translation_chain", "_count_translation",
    "_issue_priority_path", "_step_posmap_writeback", "_eviction_path",
    "_step_request", "full_access", "fetch_posmap_block", "_access",
    "_kernel_access", "_dummy_slot", "dummy_path",
)
