"""Shared vocabulary of the ORAM subsystem.

The paper classifies path accesses into three externally indistinguishable
types (Section III-A):

* ``PT_d`` — paths fetching requested data blocks (:attr:`PathType.DATA`);
* ``PT_p`` — paths fetching position-map blocks, split into PosMap1
  (:attr:`PathType.POS1`) and PosMap2 (:attr:`PathType.POS2`) fetches;
* ``PT_m`` — dummy paths inserted by the timing-channel defense
  (:attr:`PathType.DUMMY`).

Two further internal varieties exist: background-eviction paths
(:attr:`PathType.EVICTION`, Ren et al.) and dummy slots converted to useful
early write-backs by IR-DWB (:attr:`PathType.DWB`).  Externally all of them
present the identical fixed-rate, fixed-shape path signature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..config import ORAMConfig


class PathType(enum.Enum):
    """Why a particular tree path was accessed."""

    DATA = "PTd"
    POS1 = "PTp.pos1"
    POS2 = "PTp.pos2"
    DUMMY = "PTm"
    EVICTION = "evict"
    DWB = "dwb"

    @property
    def is_posmap(self) -> bool:
        return self in (PathType.POS1, PathType.POS2)


class BlockKind(enum.Enum):
    """Which region of the merged (Freecursive) namespace a block lives in."""

    USER = "user"
    POSMAP1 = "posmap1"
    POSMAP2 = "posmap2"


class RequestKind(enum.Enum):
    """What the LLC wants from the ORAM controller."""

    READ = "read"        # demand fetch (read miss, or write-allocate fetch)
    WRITEBACK = "wb"     # dirty line evicted from the LLC
    REINSERT = "reinsert"  # LLC-D: evicted line returns to the tree


@dataclass
class Request:
    """One LLC-to-ORAM request.

    ``arrival`` is the cycle at which the request became visible to the
    controller; ``completion`` is filled in when the data phase that serves
    it finishes.  ``waiters`` counts merged duplicate demands (MSHR-style).
    A request pickled before ``translation_counted`` was a field loads
    with its class default.
    """

    block: int
    kind: RequestKind
    arrival: int
    is_write: bool = False
    completion: Optional[int] = None
    waiters: int = 1
    paths_used: int = 0
    #: whether translation.completed has counted this request (once)
    translation_counted: bool = False

    def merge(self) -> None:
        self.waiters += 1


class Namespace:
    """Address arithmetic of the merged Freecursive namespace.

    Blocks ``[0, N)`` are user data; ``[N, N + P1)`` are PosMap1 blocks;
    ``[N + P1, N + P1 + P2)`` are PosMap2 blocks.  PosMap3 (one entry per
    PosMap2 block) is kept entirely on chip.
    """

    def __init__(self, config: ORAMConfig) -> None:
        self.config = config
        self.user_blocks = config.user_blocks
        self.fanout = config.fanout
        self.posmap1_base = self.user_blocks
        self.posmap2_base = self.posmap1_base + config.posmap1_blocks
        self.total_blocks = self.posmap2_base + config.posmap2_blocks

    def kind_of(self, block: int) -> BlockKind:
        if block < 0 or block >= self.total_blocks:
            raise ValueError(f"block {block} outside namespace")
        if block < self.posmap1_base:
            return BlockKind.USER
        if block < self.posmap2_base:
            return BlockKind.POSMAP1
        return BlockKind.POSMAP2

    def posmap1_block(self, user_block: int) -> int:
        """The PosMap1 block holding ``user_block``'s path mapping."""
        return self.posmap1_base + user_block // self.fanout

    def posmap2_block(self, posmap1_blk: int) -> int:
        """The PosMap2 block holding a PosMap1 block's path mapping."""
        index = posmap1_blk - self.posmap1_base
        return self.posmap2_base + index // self.fanout

    def posmap3_index(self, posmap2_blk: int) -> int:
        """On-chip PosMap3 slot holding a PosMap2 block's path mapping."""
        return posmap2_blk - self.posmap2_base

    def parent_block(self, block: int) -> Optional[int]:
        """The PosMap block whose entry must change when ``block`` remaps.

        Returns ``None`` for PosMap2 blocks — their mappings live in the
        on-chip PosMap3 and updating them costs nothing observable.
        """
        kind = self.kind_of(block)
        if kind is BlockKind.USER:
            return self.posmap1_block(block)
        if kind is BlockKind.POSMAP1:
            return self.posmap2_block(block)
        return None

    def path_type_for(self, block: int) -> PathType:
        """The externally counted path type of a fetch of ``block``."""
        kind = self.kind_of(block)
        if kind is BlockKind.USER:
            return PathType.DATA
        if kind is BlockKind.POSMAP1:
            return PathType.POS1
        return PathType.POS2


@dataclass
class PathAccessRecord:
    """Observable footprint of one path access (for the security checker)."""

    issue_cycle: int
    leaf: int
    path_type: PathType
    read_addresses: List[int] = field(default_factory=list)
    write_addresses: List[int] = field(default_factory=list)
