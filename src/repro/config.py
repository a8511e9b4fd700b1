"""Configuration objects for the IR-ORAM reproduction.

The paper's evaluation platform (Table I) is described by four pieces:

* :class:`ORAMConfig`   — the ORAM tree, stash, PosMap, and timing protection;
* :class:`DRAMConfig`   — the USIMM-like DRAM channel/bank timing model;
* :class:`CacheConfig`  — the LLC in front of the ORAM controller;
* :class:`CPUConfig`    — the trace-driven out-of-order processor front end.

:class:`SystemConfig` bundles them.  Two families of presets are provided:

* ``SystemConfig.paper()`` — the exact Table I configuration (8 GB protected
  space, L=25, Z=4, 10 cached top levels, 2 MB LLC).  Usable but slow in
  pure Python; intended for spot checks.
* ``SystemConfig.scaled()`` — a proportionally scaled configuration used by
  the default experiments.  The scaling preserves the ratios that drive the
  paper's results: the fraction of tree levels cached on chip, the blocks
  fetched per path relative to the baseline, the PosMap recursion depth
  (three levels), and the stash size relative to ``Z * L``.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from .errors import ConfigError


def env_number(name: str, default: int) -> int:
    """The environment knob ``name`` as a non-negative integer.

    Unset or blank gives ``default``.  A malformed or negative value
    raises :class:`ConfigError` naming the variable, so a mistyped knob
    fails the run instead of silently running other code.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{name}={raw!r} is not a number") from None
    if value < 0:
        raise ConfigError(f"{name}={raw!r} must be non-negative")
    return value


#: Number of position-map entries packed into one ORAM block.  With 64-byte
#: blocks and 4-byte entries this is 16, as in Freecursive.
def posmap_fanout(block_bytes: int, entry_bytes: int) -> int:
    """Mappings stored per PosMap block."""
    if entry_bytes <= 0 or block_bytes < entry_bytes:
        raise ConfigError(
            f"invalid posmap entry size {entry_bytes} for block {block_bytes}"
        )
    return block_bytes // entry_bytes


@dataclass(frozen=True)
class ORAMConfig:
    """Static parameters of the Path ORAM tree and controller.

    ``levels`` is L in the paper: the tree has levels 0 (root) through
    ``levels - 1`` (leaves), i.e. ``2 ** (levels - 1)`` leaves.

    ``z_per_level`` holds the bucket size of every level.  The classic Path
    ORAM uses a single Z; IR-Alloc supplies a non-uniform vector.  A value of
    0 means the level is not backed by memory at all (the paper sets Z=0 for
    the cached top levels under IR-Alloc since IR-Stash holds them on chip).
    """

    levels: int
    user_blocks: int
    z_per_level: Tuple[int, ...]
    top_cached_levels: int = 0
    block_bytes: int = 64
    posmap_entry_bytes: int = 4
    stash_capacity: int = 200
    eviction_threshold: int = 150
    eviction_batch: int = 2
    plb_sets: int = 32
    plb_ways: int = 4
    timing_protection: bool = True
    issue_interval: int = 1000
    allow_background_eviction: bool = True

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ConfigError("an ORAM tree needs at least 2 levels")
        if len(self.z_per_level) != self.levels:
            raise ConfigError(
                f"z_per_level has {len(self.z_per_level)} entries for "
                f"{self.levels} levels"
            )
        if any(z < 0 for z in self.z_per_level):
            raise ConfigError("bucket sizes must be non-negative")
        if not 0 <= self.top_cached_levels < self.levels:
            raise ConfigError(
                f"top_cached_levels={self.top_cached_levels} out of range "
                f"for {self.levels} levels"
            )
        if self.user_blocks < 1:
            raise ConfigError("user_blocks must be positive")
        if self.eviction_threshold > self.stash_capacity:
            raise ConfigError("eviction threshold exceeds stash capacity")
        if self.plb_sets < 1 or self.plb_sets & (self.plb_sets - 1):
            raise ConfigError("PLB set count must be a power of two")
        if self.plb_ways < 1:
            raise ConfigError("the PLB needs at least one way")
        if self.total_blocks() > self.tree_slots():
            raise ConfigError(
                f"tree with {self.tree_slots()} slots cannot hold "
                f"{self.total_blocks()} blocks"
            )

    # -- construction helpers ---------------------------------------------
    @staticmethod
    def uniform(
        levels: int,
        user_blocks: int,
        z: int = 4,
        **kwargs,
    ) -> "ORAMConfig":
        """Classic Path ORAM: the same bucket size at every level."""
        return ORAMConfig(
            levels=levels,
            user_blocks=user_blocks,
            z_per_level=(z,) * levels,
            **kwargs,
        )

    def with_z_vector(self, z_per_level: Sequence[int]) -> "ORAMConfig":
        """Return a copy using a different per-level allocation."""
        return replace(self, z_per_level=tuple(z_per_level))

    # -- derived quantities -------------------------------------------------
    @property
    def leaves(self) -> int:
        """Number of leaves, i.e. distinct path IDs."""
        return 1 << (self.levels - 1)

    @property
    def fanout(self) -> int:
        """PosMap entries per block."""
        return posmap_fanout(self.block_bytes, self.posmap_entry_bytes)

    @property
    def posmap1_blocks(self) -> int:
        """Blocks of the first-level position map (stored in the tree)."""
        return math.ceil(self.user_blocks / self.fanout)

    @property
    def posmap2_blocks(self) -> int:
        """Blocks of the second-level position map (stored in the tree)."""
        return math.ceil(self.posmap1_blocks / self.fanout)

    @property
    def posmap3_entries(self) -> int:
        """Entries of the third-level position map (kept fully on chip)."""
        return self.posmap2_blocks

    def total_blocks(self) -> int:
        """All blocks living in the tree namespace (user + PosMap1 + PosMap2)."""
        return self.user_blocks + self.posmap1_blocks + self.posmap2_blocks

    def tree_slots(self) -> int:
        """Total block slots allocated across the whole tree."""
        return sum(z << level for level, z in enumerate(self.z_per_level))

    def memory_slots(self) -> int:
        """Slots backed by off-chip memory (below the cached top)."""
        return sum(
            z << level
            for level, z in enumerate(self.z_per_level)
            if level >= self.top_cached_levels
        )

    def blocks_per_path(self) -> int:
        """Blocks transferred from memory for one path read (or write).

        This is *PL* in the paper's Section VI-B: the cached top levels cost
        no memory traffic, every deeper level costs its bucket size.
        """
        return sum(
            z
            for level, z in enumerate(self.z_per_level)
            if level >= self.top_cached_levels
        )

    def utilization_target(self) -> float:
        """Fraction of tree slots occupied by real blocks at steady state."""
        return self.total_blocks() / self.tree_slots()

    def space_reduction_vs_uniform(self, z: int = 4) -> float:
        """Fractional slot loss of this allocation vs a uniform-Z tree.

        IR-Alloc's first constraint requires this to stay below 1 %.
        """
        uniform_slots = sum(z << level for level in range(self.levels))
        return 1.0 - self.tree_slots() / uniform_slots


@dataclass(frozen=True)
class DRAMConfig:
    """Bank-level DRAM timing model parameters (USIMM-like).

    All timings are in DRAM cycles; ``cpu_cycles_per_dram_cycle`` converts
    to processor cycles (3.2 GHz core / 800 MHz DRAM = 4 in Table I).
    """

    channels: int = 4
    banks_per_channel: int = 8
    row_bytes: int = 2048
    t_rcd: int = 11
    t_rp: int = 11
    t_cas: int = 11
    t_burst: int = 4
    cpu_cycles_per_dram_cycle: int = 4

    def __post_init__(self) -> None:
        if self.channels < 1 or self.banks_per_channel < 1:
            raise ConfigError("DRAM needs at least one channel and bank")
        if min(self.t_rcd, self.t_rp, self.t_cas, self.t_burst) < 1:
            raise ConfigError("DRAM timings must be positive")

    @property
    def row_blocks(self) -> int:
        """64-byte blocks per DRAM row."""
        return self.row_bytes // 64


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative write-back cache (used for the LLC)."""

    sets: int = 4096
    ways: int = 8
    line_bytes: int = 64
    hit_latency: int = 30

    def __post_init__(self) -> None:
        if self.sets < 1 or self.ways < 1:
            raise ConfigError("cache needs at least one set and way")
        if self.sets & (self.sets - 1):
            raise ConfigError("cache set count must be a power of two")

    @property
    def lines(self) -> int:
        return self.sets * self.ways

    @property
    def capacity_bytes(self) -> int:
        return self.lines * self.line_bytes


@dataclass(frozen=True)
class CPUConfig:
    """Trace-driven processor approximation (Table I)."""

    issue_width: int = 4
    rob_size: int = 128
    max_outstanding_reads: int = 8
    write_buffer: int = 16
    frequency_ghz: float = 3.2

    def __post_init__(self) -> None:
        if self.issue_width < 1 or self.rob_size < 1:
            raise ConfigError("processor width and ROB must be positive")
        if self.write_buffer < 1:
            raise ConfigError("write buffer must hold at least one entry")


@dataclass(frozen=True)
class SystemConfig:
    """Full platform: processor + LLC + ORAM controller + DRAM."""

    oram: ORAMConfig
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    llc: CacheConfig = field(default_factory=CacheConfig)
    cpu: CPUConfig = field(default_factory=CPUConfig)
    seed: int = 12345

    # -- presets ------------------------------------------------------------
    @staticmethod
    def paper(**overrides) -> "SystemConfig":
        """Table I: 8 GB protected space, 4 GB user data, L=25, Z=4.

        4 GB / 64 B = 2**26 user blocks; ten top levels cached on chip in a
        dedicated 256 KB structure; 2 MB 8-way LLC.
        """
        oram = ORAMConfig.uniform(
            levels=25,
            user_blocks=1 << 26,
            z=4,
            top_cached_levels=10,
            stash_capacity=200,
            eviction_threshold=150,
            plb_sets=64,
            plb_ways=4,
        )
        llc = CacheConfig(sets=4096, ways=8)
        return SystemConfig(oram=oram, llc=llc, **overrides)

    @staticmethod
    def scaled(
        levels: int = 15,
        top_cached_levels: Optional[int] = None,
        utilization: float = 0.5,
        **oram_overrides,
    ) -> "SystemConfig":
        """Proportionally scaled configuration for fast experiments.

        ``top_cached_levels`` defaults to 40 % of the tree, matching the
        paper's 10-of-25.  The user-block count is chosen so real blocks
        (user + PosMap) fill ``utilization`` of the tree, matching the
        paper's 4 GB-in-8 GB provisioning.  The issue interval is scaled
        below the shortest optimized path-service time so memory bandwidth
        remains the bottleneck, preserving the paper's operating regime.
        """
        if top_cached_levels is None:
            top_cached_levels = max(1, round(levels * 10 / 25))
        slots = 4 * ((1 << levels) - 1)
        user_blocks = scaled_user_blocks(slots, utilization)
        oram_kwargs = dict(
            levels=levels,
            user_blocks=user_blocks,
            z=4,
            top_cached_levels=top_cached_levels,
            stash_capacity=200,
            eviction_threshold=150,
            plb_sets=16,
            plb_ways=4,
            issue_interval=250,
        )
        oram_kwargs.update(oram_overrides)
        oram = ORAMConfig.uniform(**oram_kwargs)
        llc = CacheConfig(sets=256, ways=8)
        return SystemConfig(oram=oram, llc=llc)

    @staticmethod
    def tiny(levels: int = 9, **oram_overrides) -> "SystemConfig":
        """A very small configuration for unit tests."""
        slots = 4 * ((1 << levels) - 1)
        oram_kwargs = dict(
            levels=levels,
            user_blocks=scaled_user_blocks(slots, 0.5),
            z=4,
            top_cached_levels=max(1, round(levels * 10 / 25)),
            stash_capacity=120,
            eviction_threshold=90,
            plb_sets=8,
            plb_ways=2,
            issue_interval=250,
        )
        oram_kwargs.update(oram_overrides)
        oram = ORAMConfig.uniform(**oram_kwargs)
        llc = CacheConfig(sets=32, ways=8)
        return SystemConfig(oram=oram, llc=llc)

    def with_oram(self, oram: ORAMConfig) -> "SystemConfig":
        return replace(self, oram=oram)

    def fingerprint(self) -> str:
        """Short stable digest identifying this exact platform.

        Keys the cross-run artifact caches in :mod:`repro.perf.engine`.
        Frozen dataclasses render every field (including the nested
        configs) deterministically through ``repr``, so two configs share
        a fingerprint iff they are equal — any field change, e.g. an
        IR-Alloc Z vector, yields a different digest.
        """
        digest = hashlib.sha256(repr(self).encode("utf-8"))
        return digest.hexdigest()[:16]


def scaled_user_blocks(tree_slots: int, utilization: float) -> int:
    """User blocks such that user + PosMap blocks fill ``utilization`` slots.

    With fanout f, total = N * (1 + 1/f + 1/f**2) approximately; solve for N
    and round down to a multiple of the fanout for tidy PosMap sizing.
    """
    if not 0 < utilization < 1:
        raise ConfigError("utilization must be in (0, 1)")
    fanout = 16
    total = int(tree_slots * utilization)
    user = int(total / (1 + 1 / fanout + 1 / fanout**2))
    return max(fanout, (user // fanout) * fanout)
