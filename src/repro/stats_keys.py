"""Canonical names of every statistic the simulator records.

Every ``Stats.inc``/``bump``/``set``/``record`` call site imports its key
from this module instead of spelling a free-form string, so exporters,
tests, and the observability layer can enumerate what exists without
grepping for magic strings.  Keys are grouped by component namespace; the
part before the first dot is the namespace (``plb.reinserts`` lives in the
``plb`` namespace), which is what :meth:`repro.stats.Stats.namespaces`
and the Prometheus exporter group by.

Dynamic families (per path type, per request kind, per cache instance)
are exposed as helper functions next to their static siblings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .oram.types import PathType, RequestKind

# -- sim: whole-run aggregates ------------------------------------------------
SIM_CYCLES = "sim.cycles"
SIM_INSTRUCTIONS = "sim.instructions"

# -- init: one-time tree initialization --------------------------------------
INIT_OVERFLOW_BLOCKS = "init.overflow_blocks"

# -- requests: controller intake, one counter per RequestKind -----------------
REQUESTS_READ = "requests.read"
REQUESTS_WRITEBACK = "requests.wb"
REQUESTS_REINSERT = "requests.reinsert"


def requests_key(kind: "RequestKind") -> str:
    """Counter for one intake of request kind ``kind``."""
    return f"requests.{kind.value}"


# -- serve: requests completed without a path access --------------------------
SERVE_STASH_HITS = "serve.stash_hits"
SERVE_SSTASH_HITS = "serve.sstash_hits"
SERVE_TREETOP_HITS = "serve.treetop_hits"
SERVE_REINSERTS = "serve.reinserts"

# -- hit: histogram of where demand reads were found --------------------------
HIT_LEVEL = "hit.level"  # histogram: tree level, "stash", "sstash", ...

# -- translation --------------------------------------------------------------
TRANSLATION_COMPLETED = "translation.completed"

# -- plb: the PosMap lookaside buffer -----------------------------------------
PLB_LOOKUP_HITS = "plb.lookup_hits"
PLB_LOOKUP_MISSES = "plb.lookup_misses"
PLB_STASH_PROMOTIONS = "plb.stash_promotions"
PLB_TREETOP_PROMOTIONS = "plb.treetop_promotions"
PLB_DIRTY_EVICTIONS = "plb.dirty_evictions"
PLB_DEFERRED_REINSERTS = "plb.deferred_reinserts"
PLB_REINSERTS = "plb.reinserts"
PLB_MISS_FETCHES = "plb.miss_fetches"

# -- paths: issued path accesses by type --------------------------------------
PATHS_TOTAL = "paths.total"
PATHS_SMALL_TREE = "paths.small_tree"  # Rho: small-tree subset of the total


def paths_key(path_type: "PathType") -> str:
    """Counter for one issued path of ``path_type``."""
    return f"paths.{path_type.value}"


# -- mem: off-chip block traffic ----------------------------------------------
MEM_BLOCKS_READ = "mem.blocks_read"
MEM_BLOCKS_WRITTEN = "mem.blocks_written"


def mem_blocks_key(path_type: "PathType") -> str:
    """Blocks moved (read + written) on paths of ``path_type``."""
    return f"mem.blocks.{path_type.value}"


# -- treetop: the dedicated tree-top cache ------------------------------------
TREETOP_PLACED = "treetop.placed"
TREETOP_REMOVED = "treetop.removed"

# -- sstash: the IR-Stash double-indexed S-Stash ------------------------------
SSTASH_PROBE_HITS = "sstash.probe_hits"
SSTASH_PROBE_MISSES = "sstash.probe_misses"
SSTASH_PLACED = "sstash.placed"
SSTASH_REMOVED = "sstash.removed"
SSTASH_PLACEMENT_SKIPS = "sstash.placement_skips"

# -- migration: Fig. 5 write-phase placement classification -------------------
MIGRATION_PREEXISTING = "migration.preexisting"  # histogram: placement level
MIGRATION_FETCHED = "migration.fetched"          # histogram: placement level


def migration_key(origin: str) -> str:
    """Histogram for write-phase placements of ``origin`` blocks."""
    return f"migration.{origin}"


# -- eviction: background eviction (Ren et al.) -------------------------------
EVICTION_PATHS = "eviction.paths"
EVICTION_CYCLES = "eviction.cycles"
EVICTION_TRIGGERS = "eviction.triggers"
EVICTION_STORM_YIELDS = "eviction.storm_yields"

# -- posmap: recursion through PosMap1/PosMap2 --------------------------------
POSMAP_ACCESSES = "posmap.accesses"
POSMAP_WRITEBACK_PATHS = "posmap.writeback_paths"

# -- writeback: LLC dirty evictions through the ORAM --------------------------
WRITEBACK_PATHS = "writeback.paths"

# -- dwb: the IR-DWB dummy-to-writeback engine --------------------------------
DWB_CONVERTED_SLOTS = "dwb.converted_slots"
DWB_FLUSHES_STARTED = "dwb.flushes_started"
DWB_START_STAGE = "dwb.start_stage"  # histogram: pipeline stage at start
DWB_ABORTS = "dwb.aborts"
DWB_POSMAP_PATHS = "dwb.posmap_paths"
DWB_WRITEBACKS_COMPLETED = "dwb.writebacks_completed"

# -- llc / plb caches: per-instance SetAssocCache counters --------------------
LLC_HITS = "llc.hits"
LLC_MISSES = "llc.misses"
LLC_EVICTIONS = "llc.evictions"
LLC_DIRTY_EVICTIONS = "llc.dirty_evictions"
LLC_DWB_CANDIDATES_FOUND = "llc.dwb_candidates_found"
LLC_DWB_SEARCH_PAUSES = "llc.dwb_search_pauses"
PLB_HITS = "plb.hits"
PLB_MISSES = "plb.misses"
PLB_EVICTIONS = "plb.evictions"
PLB_CACHE_DIRTY_EVICTIONS = "plb.dirty_evictions"


def cache_key(name: str, metric: str) -> str:
    """Counter for a named :class:`SetAssocCache` instance.

    ``metric`` is one of ``hits``, ``misses``, ``evictions``,
    ``dirty_evictions``; ``name`` is the instance name (``llc``, ``plb``).
    """
    return f"{name}.{metric}"


# -- hierarchy: LLC-to-ORAM glue ----------------------------------------------
HIERARCHY_DEMAND_MISSES = "hierarchy.demand_misses"

# -- cpu: the trace-driven processor model ------------------------------------
CPU_STALL_CYCLES = "cpu.stall_cycles"
CPU_READ_MISSES_ISSUED = "cpu.read_misses_issued"
CPU_WRITE_MISSES_ISSUED = "cpu.write_misses_issued"
CPU_BLOCK_EVENTS = "cpu.block_events"

# -- dram: the bank-level timing model ----------------------------------------
DRAM_ACCESSES = "dram.accesses"
DRAM_ROW_HITS = "dram.row_hits"
DRAM_ROW_CONFLICTS = "dram.row_conflicts"
DRAM_READS = "dram.reads"
DRAM_WRITES = "dram.writes"

# -- rho: the two-tree Rho baseline -------------------------------------------
RHO_SMALL_HITS = "rho.small_hits"
RHO_SMALL_STASH_HITS = "rho.small_stash_hits"
RHO_SMALL_EVICTIONS = "rho.small_evictions"
RHO_SMALL_EVICTION_PATHS = "rho.small_eviction_paths"
RHO_SMALL_DUMMIES = "rho.small_dummies"
RHO_PROMOTIONS = "rho.promotions"
RHO_MAIN_REINSERTS = "rho.main_reinserts"
RHO_MAIN_ACCESSES = "rho.main_accesses"
RHO_EXTRACTIONS = "rho.extractions"

# -- ring: the Ring ORAM hot-tree family --------------------------------------
PATHS_RING_TREE = "paths.ring_tree"  # ring-tree subset of the total
RING_HITS = "ring.hits"
RING_STASH_HITS = "ring.stash_hits"
RING_EVICTIONS = "ring.evictions"
RING_EVICT_PATHS = "ring.evict_paths"
RING_EARLY_RESHUFFLES = "ring.early_reshuffles"
RING_XOR_RETURNS = "ring.xor_returns"
RING_DUMMIES = "ring.dummies"
RING_PROMOTIONS = "ring.promotions"
RING_MAIN_REINSERTS = "ring.main_reinserts"
RING_MAIN_ACCESSES = "ring.main_accesses"
RING_EXTRACTIONS = "ring.extractions"

# -- pyramid: the hierarchical Pyramid-style baseline -------------------------
PATHS_PYRAMID = "paths.pyramid"  # pyramid probe/reshuffle subset of the total
PYRAMID_HITS = "pyramid.hits"
PYRAMID_PROBE_DUMMIES = "pyramid.probe_dummies"
PYRAMID_RESHUFFLES = "pyramid.reshuffles"
PYRAMID_PROMOTIONS = "pyramid.promotions"
PYRAMID_SPILLS = "pyramid.spills"
PYRAMID_MAIN_ACCESSES = "pyramid.main_accesses"
PYRAMID_MAIN_REINSERTS = "pyramid.main_reinserts"

# -- engine: warm-pool execution engine + artifact cache ----------------------
ENGINE_TRACE_HITS = "engine.trace_hits"
ENGINE_TRACE_MISSES = "engine.trace_misses"
ENGINE_ZSEARCH_HITS = "engine.zsearch_hits"
ENGINE_ZSEARCH_MISSES = "engine.zsearch_misses"
ENGINE_POOL_STARTS = "engine.pool_starts"
ENGINE_POOL_REUSES = "engine.pool_reuses"
ENGINE_TASKS = "engine.tasks"

# -- engine supervision: worker failure handling (repro.perf.engine) ----------
# A retry is one re-dispatch of a task after a crash, hang, or worker
# exception; a respawn is one pool teardown+rebuild after a BrokenProcessPool
# or a hung worker; a timeout is one task exceeding its EWMA-scaled deadline;
# degraded counts engine_map calls that fell back to serial in-process
# execution after the pool repeatedly failed.  cache.corrupt counts artifact
# or prior files quarantined because they failed to load.
ENGINE_RETRIES = "engine.retries"
ENGINE_RESPAWNS = "engine.respawns"
ENGINE_TIMEOUTS = "engine.timeouts"
ENGINE_DEGRADED = "engine.degraded"
ENGINE_CACHE_CORRUPT = "engine.cache.corrupt"

# -- engine.batch: dummy paths inside the slot drain --------------------------
# calls counts the drain_slots kernel calls that ran dummy paths; paths
# counts the dummy paths they ran.  Both describe *execution*, never
# simulated behaviour: cycles and counters are identical however the
# slots ran.
ENGINE_BATCH_CALLS = "engine.batch.calls"
ENGINE_BATCH_PATHS = "engine.batch.paths"

# -- engine.tier: which execution tier served each path -----------------------
# Kernel paths are whole accesses through the kernels' per-path function
# (``access_path``, or a real path inside ``drain_slots``); batch paths
# are the dummy paths a drain ran; Python paths ran the pure-Python phases
# (or a scheme's own small-tree code).  kernel_setup is 1 when
# ``init_tree`` built the tree, else 0.  Recorded beside
# ``engine.batch.*``, after the result snapshot.
ENGINE_TIER_KERNEL_PATHS = "engine.tier.kernel_paths"
ENGINE_TIER_BATCH_PATHS = "engine.tier.batch_paths"
ENGINE_TIER_PYTHON_PATHS = "engine.tier.python_paths"
ENGINE_TIER_KERNEL_SETUP = "engine.tier.kernel_setup"

# -- decouple: Palermo-style read/write phase decoupling ----------------------
# deferred_writes counts write phases queued behind later read phases by
# the Decoupled scheme's controller (repro.oram.decoupled).
DECOUPLE_DEFERRED_WRITES = "decouple.deferred_writes"

# -- checkpoint: mid-run simulator snapshots (repro.sim.checkpoint) -----------
CHECKPOINT_SAVES = "checkpoint.saves"

# -- audit: the online conformance auditor (repro.validate) -------------------
# These keys live in the auditor's *private* Stats registry, never in the
# run's own — audited runs stay counter-bit-identical to unaudited ones.
AUDIT_CHECKS = "audit.checks"
AUDIT_PATHS_OBSERVED = "audit.paths_observed"
AUDIT_BLOCKS_VERIFIED = "audit.blocks_verified"

# -- integrity: the Merkle-style integrity checker ----------------------------
INTEGRITY_PATH_UPDATES = "integrity.path_updates"
INTEGRITY_PATH_VERIFICATIONS = "integrity.path_verifications"
INTEGRITY_VIOLATIONS = "integrity.violations"
INTEGRITY_RING_UPDATES = "integrity.ring_updates"
INTEGRITY_RING_VERIFICATIONS = "integrity.ring_verifications"
INTEGRITY_RING_VIOLATIONS = "integrity.ring_violations"
INTEGRITY_RING_RECOVERIES = "integrity.ring_recoveries"

# -- series keys (Stats.record) -----------------------------------------------
TREE_UTILIZATION = "tree.utilization"
OBS_PROGRESS = "obs.progress"


def all_static_keys() -> List[str]:
    """Every static key constant defined in this module (sorted, unique).

    Deduplicated: a key may back more than one constant (the PLB's own
    ``plb.dirty_evictions`` and the ``cache_key("plb", "dirty_evictions")``
    instance counter name the same registry slot on purpose).
    """
    return sorted({
        value
        for name, value in globals().items()
        if name.isupper() and isinstance(value, str)
    })


def keys_by_namespace() -> Dict[str, List[str]]:
    """Static keys grouped by their namespace (the part before the dot)."""
    grouped: Dict[str, List[str]] = {}
    for key in all_static_keys():
        grouped.setdefault(key.split(".", 1)[0], []).append(key)
    return grouped
