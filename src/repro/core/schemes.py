"""Composition of the schemes compared in Section VI.

Each scheme builds a complete memory system (LLC + ORAM controller with
the right tree-top structure, allocation, remap policy, and dummy-slot
engine) from a :class:`~repro.config.SystemConfig`:

* ``Baseline``       — Path ORAM + Freecursive + dedicated tree-top cache
  (top 10 of 25 levels at paper scale) + subtree layout + background
  eviction;
* ``Rho``            — the relaxed-hierarchical-ORAM state of the art;
* ``IR-Alloc``       — Baseline + the IR-Alloc4 allocation (PL=36);
* ``IR-Stash``       — Baseline with the tree top in the double-indexed
  S-Stash (4-way, as the paper selects);
* ``IR-DWB``         — Baseline + dummy-to-writeback conversion;
* ``IR-ORAM``        — all three (with the combined Z=2/Z=3 allocation);
* ``LLC-D``          — Baseline + delayed block remapping;
* ``IR-Stash+IR-Alloc (LLC-D)`` — the Fig. 11 configuration;
* ``Decoupled``      — Baseline with Palermo-style read/write phase
  decoupling (deferred write bursts overlap later read phases);
* ``Pyramid``        — Baseline paired with a small hierarchical bucket
  store under periodic oblivious reshuffles (the contrasting
  trusted-processor family the distinguisher harness evaluates);
* ``Ring``           — Baseline paired with a Ring ORAM hot tree
  (Z real + S dummy permuted slots, one-slot ReadPaths,
  reverse-lexicographic EvictPaths, early reshuffles).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..cache.llc import LastLevelCache
from ..config import SystemConfig
from ..errors import ConfigError
from ..oram.controller import PathORAMController
from ..oram.decoupled import DecoupledPathORAMController
from ..oram.pyramid import PyramidController
from ..oram.rho import RhoController
from ..oram.ring import RingController
from ..stats import Stats
from .ir_alloc import PAPER_ALLOC_CONFIGS, apply_alloc_plan
from .ir_dwb import DWBEngine
from .ir_stash import SStash


@dataclass
class SimComponents:
    """Everything a simulation run needs, wired together."""

    config: SystemConfig
    controller: PathORAMController
    llc: LastLevelCache
    stats: Stats
    rng: random.Random


BuilderFn = Callable[[SystemConfig, Stats, random.Random], SimComponents]


@dataclass(frozen=True)
class Scheme:
    """A named system composition."""

    name: str
    description: str
    builder: BuilderFn

    def build(
        self,
        config: SystemConfig,
        stats: Optional[Stats] = None,
        rng: Optional[random.Random] = None,
    ) -> SimComponents:
        stats = stats if stats is not None else Stats()
        rng = rng if rng is not None else random.Random(config.seed)
        return self.builder(config, stats, rng)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _baseline(config: SystemConfig, stats: Stats, rng: random.Random,
              *, alloc: Optional[str] = None, sstash: bool = False,
              dwb: bool = False, delayed_remap: bool = False) -> SimComponents:
    if alloc is not None:
        config = config.with_oram(
            apply_alloc_plan(config.oram, PAPER_ALLOC_CONFIGS[alloc])
        )
    llc = LastLevelCache(config.llc, stats)
    treetop = SStash(config.oram, stats) if sstash else None
    controller = PathORAMController(
        config, stats, rng, treetop=treetop, delayed_remap=delayed_remap
    )
    if dwb:
        if delayed_remap:
            raise ConfigError(
                "IR-DWB requires the traditional remap policy (Section IV-D)"
            )
        controller.dwb = DWBEngine(llc, stats)
    return SimComponents(config, controller, llc, stats, rng)


def _rho(config: SystemConfig, stats: Stats, rng: random.Random) -> SimComponents:
    llc = LastLevelCache(config.llc, stats)
    controller = RhoController(config, stats, rng)
    return SimComponents(config, controller, llc, stats, rng)


def _decoupled(
    config: SystemConfig, stats: Stats, rng: random.Random
) -> SimComponents:
    llc = LastLevelCache(config.llc, stats)
    controller = DecoupledPathORAMController(config, stats, rng)
    return SimComponents(config, controller, llc, stats, rng)


def _pyramid(
    config: SystemConfig, stats: Stats, rng: random.Random
) -> SimComponents:
    llc = LastLevelCache(config.llc, stats)
    controller = PyramidController(config, stats, rng)
    return SimComponents(config, controller, llc, stats, rng)


def _ring(config: SystemConfig, stats: Stats, rng: random.Random) -> SimComponents:
    llc = LastLevelCache(config.llc, stats)
    controller = RingController(config, stats, rng)
    return SimComponents(config, controller, llc, stats, rng)


SCHEMES: Dict[str, Scheme] = {
    scheme.name: scheme
    for scheme in [
        Scheme(
            "Baseline",
            "Path ORAM + Freecursive + dedicated tree-top cache",
            lambda c, s, r: _baseline(c, s, r),
        ),
        Scheme(
            "Rho",
            "relaxed hierarchical ORAM (small hot tree, 1:2 pattern)",
            _rho,
        ),
        Scheme(
            "IR-Alloc",
            "Baseline + utilization-aware allocation (IR-Alloc4, PL=36)",
            lambda c, s, r: _baseline(c, s, r, alloc="IR-Alloc4"),
        ),
        Scheme(
            "IR-Stash",
            "Baseline with the double-indexed S-Stash tree top",
            lambda c, s, r: _baseline(c, s, r, sstash=True),
        ),
        Scheme(
            "IR-DWB",
            "Baseline + dummy-path conversion to early write-backs",
            lambda c, s, r: _baseline(c, s, r, dwb=True),
        ),
        Scheme(
            "IR-ORAM",
            "IR-Alloc + IR-Stash + IR-DWB (combined Z=2/3 allocation)",
            lambda c, s, r: _baseline(
                c, s, r, alloc="IR-ORAM", sstash=True, dwb=True
            ),
        ),
        Scheme(
            "LLC-D",
            "Baseline + delayed block remapping (Nagarajan et al.)",
            lambda c, s, r: _baseline(c, s, r, delayed_remap=True),
        ),
        Scheme(
            "IR-Stash+IR-Alloc(LLC-D)",
            "IR-Stash and IR-Alloc on top of an LLC-D baseline (Fig. 11)",
            lambda c, s, r: _baseline(
                c, s, r, alloc="IR-ORAM", sstash=True, delayed_remap=True
            ),
        ),
        Scheme(
            "Decoupled",
            "Baseline + Palermo-style read/write phase decoupling",
            _decoupled,
        ),
        Scheme(
            "Pyramid",
            "hierarchical bucket levels with periodic oblivious reshuffle",
            _pyramid,
        ),
        Scheme(
            "Ring",
            "Ring ORAM hot tree (Z+S permuted slots, one-slot reads)",
            _ring,
        ),
        Scheme(
            "IR-Alloc1",
            "Section VI-B configuration 1 (PL=43)",
            lambda c, s, r: _baseline(c, s, r, alloc="IR-Alloc1"),
        ),
        Scheme(
            "IR-Alloc2",
            "Section VI-B configuration 2 (PL=42)",
            lambda c, s, r: _baseline(c, s, r, alloc="IR-Alloc2"),
        ),
        Scheme(
            "IR-Alloc3",
            "Section VI-B configuration 3 (PL=37)",
            lambda c, s, r: _baseline(c, s, r, alloc="IR-Alloc3"),
        ),
        Scheme(
            "IR-Alloc4",
            "Section VI-B configuration 4 (PL=36)",
            lambda c, s, r: _baseline(c, s, r, alloc="IR-Alloc4"),
        ),
    ]
}


def build_scheme(
    name: str,
    config: SystemConfig,
    stats: Optional[Stats] = None,
    rng: Optional[random.Random] = None,
) -> SimComponents:
    """Build a scheme by name (KeyError lists the valid names)."""
    try:
        scheme = SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; available: {sorted(SCHEMES)}"
        ) from None
    return scheme.build(config, stats, rng)
