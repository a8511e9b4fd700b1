"""Deliberately leaky controller mutants: the distinguisher's self-test.

A statistical indistinguishability harness can pass vacuously — weak
features, too few seeds, a broken test statistic — and nothing in a clean
run would ever notice.  These mutants are the mutation-testing answer:
each one re-introduces a classic ORAM side channel, each leaking through
a *different* observable feature, and the harness
(:mod:`repro.validate.distinguish`) must flag every one of them before
its clean verdicts mean anything.

The registry deliberately lives outside
:data:`repro.core.schemes.SCHEMES`: mutants must never enter the golden
corpus, the lockstep oracle zoo, the fuzz rotation, or the CLI ``run``
scheme list.  They are reachable only through
:func:`build_mutant` / :data:`MUTANTS`.

| mutant              | leak                                | feature that catches it |
|---------------------|-------------------------------------|-------------------------|
| skip-dummies        | empty slots issue nothing           | inter-issue gaps        |
| half-rate-dummies   | dummies issued every other slot     | inter-issue gaps        |
| leaf-biased-dummies | dummy leaves from half the space    | leaf histogram          |
| biased-remap        | remap leaves from half the space    | leaf histogram          |
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..cache.llc import LastLevelCache
from ..config import SystemConfig
from ..oram.controller import PathORAMController, SlotResult
from ..oram.types import PathType
from ..stats import Stats


class _SkipDummiesController(PathORAMController):
    """Timing mutant: empty issue slots stay empty.

    The externally visible issue stream then follows the program's demand
    pattern — exactly the intensity channel the fixed-rate defense (and
    IR-ORAM's Section IV-E argument) exists to close.
    """

    SUPPORTS_NATIVE_BATCH = False

    def _dummy_slot(self, now: int) -> Optional[SlotResult]:
        return None


class _HalfRateDummiesController(PathORAMController):
    """Timing mutant: dummy paths issue only every other empty slot.

    The classic bandwidth-saving "optimization": real work always
    issues, but the filler rate halves, so issue gaps stretch to twice
    the interval exactly when the program is idle — a data-dependent
    issue cadence.
    """

    SUPPORTS_NATIVE_BATCH = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dummy_toggle = False

    def _dummy_slot(self, now: int) -> Optional[SlotResult]:
        self._dummy_toggle = not self._dummy_toggle
        if self._dummy_toggle:
            return None
        return super()._dummy_slot(now)


class _LeafBiasedDummiesController(PathORAMController):
    """Address mutant: dummy leaves drawn from the lower half of the tree.

    Real paths stay uniform, so the mix of dummy and real slots — i.e.
    the program's memory intensity — shows through the pooled leaf
    histogram.
    """

    SUPPORTS_NATIVE_BATCH = False

    def dummy_path(self, now: int) -> SlotResult:
        leaf = self.rng.randrange(max(1, self.oram.leaves // 2))
        finish_read, start, _ = self._service_path(leaf, PathType.DUMMY, now)
        finish_write = self._write_path(leaf, finish_read, PathType.DUMMY)
        return SlotResult(True, PathType.DUMMY, start, finish_read, finish_write)


def _biased_remap(config: SystemConfig, stats: Stats, rng: random.Random):
    """Address mutant: remap draws leaves from the lower half of the tree.

    A classically broken remap RNG.  Initial assignments stay uniform,
    so the bias only shows on *re-observed* blocks — chiefly the PosMap
    blocks a memory-intensive program refetches as the PLB thrashes,
    which a compute-bound program never does.
    """
    from ..core.schemes import SimComponents

    llc = LastLevelCache(config.llc, stats)
    controller = PathORAMController(config, stats, rng)
    controller.SUPPORTS_NATIVE_BATCH = False
    posmap = controller.posmap

    def biased(block: int) -> int:
        leaf = posmap._rng.randrange(max(1, posmap.leaves // 2))
        posmap._leaf_of[block] = leaf
        posmap.remap_count += 1
        return leaf

    posmap.remap = biased  # type: ignore[method-assign]
    controller.refresh_tier()
    return SimComponents(config, controller, llc, stats, rng)


def _plain(
    controller_cls,
) -> Callable[[SystemConfig, Stats, random.Random], object]:
    def build(config: SystemConfig, stats: Stats, rng: random.Random):
        from ..core.schemes import SimComponents

        llc = LastLevelCache(config.llc, stats)
        controller = controller_cls(config, stats, rng)
        return SimComponents(config, controller, llc, stats, rng)

    return build


@dataclass(frozen=True)
class Mutant:
    """One registered leaky scheme and the feature expected to catch it.

    ``programs`` is the adversary's best program pair for this leak —
    the two arms the distinguisher runs when mutation-testing itself.
    """

    name: str
    description: str
    builder: Callable
    leaks_via: str
    programs: Tuple[str, str] = ("hot-compute", "uniform-memory")


MUTANTS: Dict[str, Mutant] = {
    mutant.name: mutant
    for mutant in [
        Mutant(
            "skip-dummies",
            "no dummy paths: issue stream follows the demand pattern",
            _plain(_SkipDummiesController),
            leaks_via="issue gaps",
        ),
        Mutant(
            "half-rate-dummies",
            "dummies issued every other empty slot: data-dependent intervals",
            _plain(_HalfRateDummiesController),
            leaks_via="issue gaps",
        ),
        Mutant(
            "leaf-biased-dummies",
            "dummy leaves drawn from the lower half of the leaf space",
            _plain(_LeafBiasedDummiesController),
            leaks_via="leaf histogram",
        ),
        Mutant(
            "biased-remap",
            "remap RNG draws from the lower half of the leaf space",
            _biased_remap,
            leaks_via="leaf histogram",
            # The bias is only visible on re-observed (remapped) blocks:
            # the scan arm's sequential PosMap locality produces almost
            # no refetches, while uniform access thrashes the PLB and
            # re-reads remapped PosMap blocks constantly.
            programs=("stride-pathological", "uniform-memory"),
        ),
    ]
}


def build_mutant(
    name: str,
    config: SystemConfig,
    stats: Optional[Stats] = None,
    rng: Optional[random.Random] = None,
):
    """Build a mutant by name (KeyError lists the valid names)."""
    try:
        mutant = MUTANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown mutant {name!r}; available: {sorted(MUTANTS)}"
        ) from None
    stats = stats if stats is not None else Stats()
    rng = rng if rng is not None else random.Random(config.seed)
    return mutant.builder(config, stats, rng)
