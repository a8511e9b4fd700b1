"""Rho: relaxed hierarchical ORAM (Nagarajan et al., ASPLOS'19) — the
state-of-the-art baseline the paper compares against.

Rho adds a second, much smaller ORAM tree (best setting in the paper:
L=19, Z=2 at paper scale) that captures the hot working set: most accesses
are served by short, cheap paths in the small tree, and only misses (plus
PosMap traffic and small-tree evictions) touch the main tree.  To keep the
two path lengths from leaking timing information, path accesses follow a
fixed issue *pattern* — one main-tree access per two small-tree
accesses — with dummy paths of the appropriate kind inserted
whenever the scheduled slot has no matching real work.  This defense is
exactly what hurts read-intensive programs like mcf in Fig. 10: with a
cold small tree almost every request needs main-tree slots, which only
come around once per pattern period.

Block movement model:

* a main-tree access that serves a demand moves the block *exclusively*
  into the small tree (its main mapping is discarded, Nagarajan-style);
* the small tree's position map is small enough to live on chip (an LRU
  ordered map, which doubles as the victim-selection policy);
* when small-tree occupancy exceeds its budget, the LRU block is extracted
  (a small-tree path access if it is not already in the small stash) and
  re-inserted into the main tree through the stash after its PosMap entry
  is restored (main-tree PosMap paths as needed).

The pattern, the custody and the eviction policy are the hybrid
scheduler's (:class:`~repro.oram.hybrid.HybridController`); this module
holds the small tree's own path accesses.
"""

from __future__ import annotations

import random
from typing import Optional

from .. import stats_keys as sk
from ..config import ORAMConfig, SystemConfig
from ..errors import ProtocolError
from ..mem.layout import TreeLayout
from ..stats import Stats
from .controller import SlotResult
from .hybrid import HybridController
from .stash import Stash
from .tree import ORAMTree
from .types import PathType

#: blocks per small-tree bucket (the paper's best setting)
SMALL_Z = 2


def scaled_small_levels(main_levels: int, llc_lines: int = 2048) -> int:
    """Small-tree depth sized so its capacity dwarfs the LLC.

    Rho only pays off when the small tree captures the post-LLC working
    set, so its block budget (half its slots at Z=2) must be several times
    the LLC.  At paper scale (32K-line LLC) this yields L=18-19, matching
    the paper's best setting; scaled configurations shrink accordingly.
    """
    return max(3, min(main_levels - 1, (4 * llc_lines).bit_length()))


class RhoController(HybridController):
    """Two-tree ORAM controller: main tree plus a small Path ORAM tree."""

    TREE = "small"
    PATHS_KEY = sk.PATHS_SMALL_TREE
    MAIN_ACCESSES = sk.RHO_MAIN_ACCESSES
    MAIN_REINSERTS = sk.RHO_MAIN_REINSERTS
    PROMOTIONS = sk.RHO_PROMOTIONS
    EVICTIONS = sk.RHO_SMALL_EVICTIONS
    EXTRACTIONS = sk.RHO_EXTRACTIONS
    HITS = sk.RHO_SMALL_HITS
    STASH_HITS = sk.RHO_SMALL_STASH_HITS
    DUMMIES = sk.RHO_SMALL_DUMMIES
    HIT_LEVEL = "small-tree"
    STASH_HIT_LEVEL = "small-stash"

    def __init__(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
        small_levels: Optional[int] = None,
    ) -> None:
        super().__init__(config, stats, rng)
        levels = small_levels or scaled_small_levels(
            config.oram.levels, config.llc.lines
        )
        self.side_budget = SMALL_Z * ((1 << levels) - 1) // 2
        small_oram = ORAMConfig(
            levels=levels,
            user_blocks=max(1, self.side_budget),
            z_per_level=(SMALL_Z,) * levels,
            top_cached_levels=0,
            stash_capacity=config.oram.stash_capacity,
            eviction_threshold=config.oram.eviction_threshold,
            timing_protection=config.oram.timing_protection,
            issue_interval=config.oram.issue_interval,
        )
        self.small_oram = small_oram
        self.small_tree = ORAMTree(small_oram)
        self.side_stash = Stash(small_oram.stash_capacity, self.stats)
        self.side_leaves = 1 << (levels - 1)
        self.small_layout = TreeLayout(
            small_oram, config.dram, base_row=self.layout.end_row()
        )

    # ------------------------------------------------------------------
    # small-tree path machinery
    # ------------------------------------------------------------------
    def _side_maintenance(self, now: int) -> Optional[SlotResult]:
        if self.side_stash.over_threshold(self.small_oram.eviction_threshold):
            leaf = self.rng.randrange(self.side_leaves)
            self.stats.inc(sk.RHO_SMALL_EVICTION_PATHS)
            return self._side_path(leaf, now, PathType.EVICTION)
        return None

    def _side_path(
        self,
        leaf: int,
        now: int,
        path_type: PathType,
        target: Optional[int] = None,
        new_leaf: Optional[int] = None,
    ) -> SlotResult:
        """One full small-tree path access (read + greedy write)."""
        addresses = self.small_layout.path_addresses(leaf)
        finish_read = self.dram.service_addresses(addresses, False, now)
        found = False
        for block, _ in self.small_tree.read_and_clear(leaf):
            if block == target:
                found = True
                if new_leaf is not None:
                    self.side_stash.add(block, new_leaf)
                continue
            if block not in self.side_map:
                raise ProtocolError(f"block {block} missing from small map")
            self.side_stash.add(block, self.side_map[block])
        if target is not None and not found:
            raise ProtocolError(f"block {target} absent from its path")
        self._small_write_phase(leaf)
        return self._side_burst(
            addresses, addresses, path_type, now, leaf, finish_read
        )

    def _small_write_phase(self, leaf: int) -> None:
        levels = self.small_oram.levels
        pools = self.side_stash.path_pools(leaf, levels)
        pool = []
        for level in range(levels - 1, -1, -1):
            pool.extend(pools[level])
            if not pool:
                continue
            position = self.small_tree.path_position(leaf, level)
            for _ in range(min(SMALL_Z, len(pool))):
                block = pool.pop()
                if not self.small_tree.place(level, position, block):
                    raise ProtocolError("small bucket overflow")
                self.side_stash.remove(block)
