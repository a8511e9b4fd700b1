"""Synthetic models of the paper's evaluated benchmarks (Table II).

The paper drives its simulator with Pin traces of SPEC CPU2017 and PARSEC
programs, characterized in Table II by their L2 read/write MPKI.  Those
traces are proprietary-toolchain artifacts, so each benchmark is modeled by
a generator reproducing the ORAM-relevant properties of its trace:

* **intensity** — L1-miss rate (instruction gaps between records).  The
  L1-miss intensity is the Table II L2 MPKI scaled by a reuse
  amplification: a cache-friendly program's L1 misses mostly hit the LLC,
  so its L1-miss rate is several times its L2 rate, while a streaming
  program's L1 and L2 rates nearly coincide.
* **balance** — read/write mix (Table II read vs write MPKI).
* **short-range reuse** — re-references at distances the LLC captures.
* **spill reuse** — re-references at distances just beyond LLC capacity.
  These are the accesses that miss the LLC but find their block still in
  the top tree levels (where its last fetch or write-back parked it), and
  are therefore the source of the tree-top reuse of Fig. 6 and of the
  S-Stash hits that let IR-Stash skip PosMap work.
* **spatial locality** — sequential scans, which produce PosMap-block
  sharing (16 user blocks per PosMap1 block) and thus PLB hits.
* **burstiness and quiet phases** — miss clusters and compute-only
  stretches.  Quiet phases are where the fixed-rate timing defense inserts
  its dummy paths (PT_m), so their prevalence controls how much IR-DWB can
  help a benchmark (a lot for gcc, almost nothing for cam/dee — Fig. 10).

Reuse distances are expressed in trace records and were calibrated against
the scaled default configuration (LLC = 2048 lines); the paper-scale
configuration scales them with ``distance_scale``.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, List

from ..errors import TraceError
from ..perf.native import fastpath
from .trace import Trace, TraceRecord


@dataclass(frozen=True)
class BenchmarkModel:
    """Generator parameters for one benchmark."""

    name: str
    suite: str
    read_mpki: float          # Table II (L2/LLC read misses per kilo-inst)
    write_mpki: float         # Table II (L2/LLC write misses per kilo-inst)
    amplification: float      # L1-miss rate = (read+write MPKI) * amplification
    footprint_frac: float     # fraction of user space ever touched
    stream_prob: float        # probability an access continues a scan
    reuse_prob: float         # probability of a short-range re-reference
    reuse_scale: float        # mean short reuse distance, in records
    #: probability of a *thrash* re-reference: re-access a block the LLC
    #: evicted very recently.  This is the classic capacity-thrash pattern;
    #: it is also exactly what produces ORAM tree-top hits, because a dirty
    #: eviction's write-back parks the block near the top of the tree
    #: moments before the re-reference arrives (Fig. 6 / Fig. 14).
    spill_prob: float = 0.0
    #: probability of a *mid-range* re-reference: uniform over the last few
    #: thousand records.  These reuses usually miss the LLC but land inside
    #: a hierarchical ORAM's hot tree (Rho's small tree), which is how the
    #: paper's locality benchmarks profit from Rho.
    midreuse_prob: float = 0.0
    midreuse_span: int = 8000
    #: size of the cyclic scan region in blocks (0 = whole footprint).
    #: A region above LLC capacity keeps the LLC under thrash pressure.
    scan_blocks: int = 0
    quiet_prob: float = 0.0   # probability a record follows a compute phase
    quiet_gap: int = 10_000   # mean instructions of such a compute phase
    burst_prob: float = 0.05  # probability a record starts a burst
    burst_len: int = 8        # records per burst (tiny gaps inside)

    @property
    def write_prob(self) -> float:
        total = self.read_mpki + self.write_mpki
        if total == 0:
            return 0.0
        return self.write_mpki / total

    @property
    def l1_mpki(self) -> float:
        return (self.read_mpki + self.write_mpki) * self.amplification


#: Table II of the paper, with per-benchmark locality parameters chosen to
#: reflect each program's published character (see module docstring).
BENCHMARKS: Dict[str, BenchmarkModel] = {
    model.name: model
    for model in [
        # SPEC CPU2017
        BenchmarkModel("gcc", "SPEC", 0.1, 0.3, 6.0, 0.055,
                       stream_prob=0.22, reuse_prob=0.55, reuse_scale=1000,
                       spill_prob=0.08, midreuse_prob=0.12, scan_blocks=2300,
                       quiet_prob=0.05, quiet_gap=12_000),
        BenchmarkModel("mcf", "SPEC", 19.5, 0.1, 1.6, 0.9,
                       stream_prob=0.20, reuse_prob=0.20, reuse_scale=1500,
                       spill_prob=0.08, midreuse_prob=0.04, scan_blocks=2600,
                       quiet_prob=0.01, quiet_gap=8_000,
                       burst_prob=0.10, burst_len=16),
        BenchmarkModel("xz", "SPEC", 24.9, 29.6, 1.4, 0.5,
                       stream_prob=0.35, reuse_prob=0.25, reuse_scale=1500,
                       spill_prob=0.08, midreuse_prob=0.05, scan_blocks=2500),
        BenchmarkModel("xal", "SPEC", 0.05, 0.1, 8.0, 0.05,
                       stream_prob=0.22, reuse_prob=0.55, reuse_scale=1000,
                       spill_prob=0.08, midreuse_prob=0.12, scan_blocks=2300,
                       quiet_prob=0.05, quiet_gap=15_000),
        BenchmarkModel("dee", "SPEC", 0.0, 5.7, 2.0, 0.15,
                       stream_prob=0.50, reuse_prob=0.25, reuse_scale=1500,
                       spill_prob=0.06, midreuse_prob=0.06, scan_blocks=2300,
                       quiet_prob=0.01, quiet_gap=8_000),
        BenchmarkModel("bwa", "SPEC", 0.0, 20.7, 1.2, 0.5,
                       stream_prob=0.70, reuse_prob=0.10, reuse_scale=1200,
                       spill_prob=0.05, midreuse_prob=0.03),
        BenchmarkModel("lbm", "SPEC", 0.0, 45.3, 1.1, 0.7,
                       stream_prob=0.85, reuse_prob=0.05, reuse_scale=800,
                       spill_prob=0.02, midreuse_prob=0.02),
        BenchmarkModel("cam", "SPEC", 0.01, 8.8, 1.5, 0.25,
                       stream_prob=0.50, reuse_prob=0.22, reuse_scale=1500,
                       spill_prob=0.05, midreuse_prob=0.06, scan_blocks=2400,
                       quiet_prob=0.01, quiet_gap=8_000),
        BenchmarkModel("ima", "SPEC", 0.3, 2.9, 2.5, 0.12,
                       stream_prob=0.35, reuse_prob=0.38, reuse_scale=1200,
                       spill_prob=0.08, midreuse_prob=0.1, scan_blocks=2300,
                       quiet_prob=0.03, quiet_gap=12_000),
        BenchmarkModel("rom", "SPEC", 0.02, 23.0, 1.2, 0.5,
                       stream_prob=0.65, reuse_prob=0.10, reuse_scale=1200,
                       spill_prob=0.05, midreuse_prob=0.03),
        # PARSEC
        BenchmarkModel("bla", "PARSEC", 2.6, 0.4, 2.5, 0.18,
                       stream_prob=0.32, reuse_prob=0.36, reuse_scale=1500,
                       spill_prob=0.08, midreuse_prob=0.1, scan_blocks=2400,
                       quiet_prob=0.02, quiet_gap=10_000),
        BenchmarkModel("str", "PARSEC", 2.7, 0.5, 2.5, 0.2,
                       stream_prob=0.40, reuse_prob=0.28, reuse_scale=1500,
                       spill_prob=0.08, midreuse_prob=0.08, scan_blocks=2400,
                       quiet_prob=0.02, quiet_gap=10_000),
        BenchmarkModel("fre", "PARSEC", 2.1, 0.4, 2.5, 0.15,
                       stream_prob=0.32, reuse_prob=0.38, reuse_scale=1500,
                       spill_prob=0.10, midreuse_prob=0.1, scan_blocks=2400,
                       quiet_prob=0.03, quiet_gap=10_000),
    ]
}


def benchmark_trace(
    model: BenchmarkModel,
    user_blocks: int,
    count: int,
    rng: random.Random,
    base_block: int = 0,
    region_blocks: int = 0,
    distance_scale: float = 1.0,
    llc_lines: int = 2048,
) -> Trace:
    """Generate ``count`` L1-miss records following a benchmark model.

    ``base_block``/``region_blocks`` confine the trace to a sub-region of
    the user space (used by mix traces).  ``distance_scale`` multiplies
    reuse distances and the scan region; ``llc_lines`` is the capacity of
    the LLC the trace will face, used to aim thrash re-references at
    just-evicted blocks (the generator carries a small LRU model of it).

    The record loop runs in the C kernel (``benchmark_records``) when it
    is loaded, the RNG is a plain ``random.Random`` and every integer
    the loop produces fits in int64; otherwise in :func:`_records_py`,
    its oracle.  Both make the same RNG calls, so the records and the
    RNG's final state are the same on either tier.
    """
    if count < 1:
        raise TraceError("trace needs at least one record")
    region = region_blocks or user_blocks
    footprint = max(16, min(region, int(region * model.footprint_frac)))
    scan_region = footprint
    if model.scan_blocks:
        scan_region = max(16, min(footprint, int(model.scan_blocks * distance_scale)))
    mean_gap = 1000.0 / max(model.l1_mpki, 1e-6)
    reuse_scale = max(1.0, model.reuse_scale * distance_scale)
    midreuse_span = max(64, int(model.midreuse_span * distance_scale))
    history_cap = max(64, int(4 * reuse_scale), midreuse_span + 64)
    ring_cap = max(64, llc_lines // 4)
    sizes = (
        count, scan_region, footprint, region, base_block, history_cap,
        midreuse_span, llc_lines, ring_cap, model.burst_len,
    )
    # Cumulative mode thresholds, summed left to right as the chained
    # comparisons always summed them.
    thresholds = (
        model.stream_prob,
        model.stream_prob + model.reuse_prob,
        model.stream_prob + model.reuse_prob + model.spill_prob,
        model.stream_prob + model.reuse_prob + model.spill_prob
        + model.midreuse_prob,
    )
    probs = (model.quiet_prob, model.burst_prob, model.write_prob)
    # expovariate's rates, 1.0 / mean: gaps, quiet phases (drawn only
    # with a quiet probability), short reuse and thrash distances.
    rates = (
        1.0 / mean_gap,
        1.0 / model.quiet_gap if model.quiet_prob else 0.0,
        1.0 / reuse_scale,
        1.0 / 24.0,
    )
    if _kernel_fits(rng, sizes, region, mean_gap, model.quiet_gap):
        records = fastpath.benchmark_records(
            *sizes, thresholds, probs, rates, rng.random, rng.getrandbits
        )
    else:
        records = _records_py(sizes, thresholds, probs, rates, rng)
    return Trace(model.name, records)


#: Bound on every integer the kernel handles; a gap, block or size past
#: it runs the Python loop, whose integers are unbounded.
_INT_LIMIT = 1 << 62


def _kernel_fits(rng, sizes, region, mean_gap, quiet_gap) -> bool:
    """Whether the kernel can run the loop: it is loaded, the RNG is a
    plain ``random.Random``, every size is an int in int64 (and the
    region positive, as C's ``%`` needs), and no gap can leave int64.
    A gap is at most ``int(e * mean_gap) + int(e * quiet_gap)`` with
    ``e = -log(1 - random()) <= 36.8``."""
    return (
        fastpath is not None
        and type(rng) is random.Random
        and all(
            isinstance(size, int) and -_INT_LIMIT < size < _INT_LIMIT
            for size in sizes
        )
        and region > 0
        and abs(quiet_gap) < _INT_LIMIT
        and 37 * (mean_gap + abs(quiet_gap)) < _INT_LIMIT
    )


def _records_py(sizes, thresholds, probs, rates, rng) -> List[TraceRecord]:
    """benchmark_trace's record loop in Python: the kernel's oracle and
    the tier for RNG subclasses and out-of-range parameters."""
    (
        count, scan_region, footprint, region, base_block, history_cap,
        midreuse_span, llc_lines, ring_cap, burst_len,
    ) = sizes
    stream_below, reuse_below, spill_below, midreuse_below = thresholds
    quiet_prob, burst_prob, write_prob = probs
    gap_rate, quiet_rate, reuse_rate, spill_rate = rates

    lru: "OrderedDict[int, None]" = OrderedDict()
    recently_evicted: deque = deque(maxlen=ring_cap)

    records: List[TraceRecord] = []
    history: List[int] = []
    cursor = rng.randrange(scan_region)
    burst_remaining = 0
    while len(records) < count:
        if burst_remaining > 0:
            gap = 1 + rng.randrange(3)
            burst_remaining -= 1
        else:
            gap = max(1, int(rng.expovariate(gap_rate)))
            if quiet_prob and rng.random() < quiet_prob:
                gap += int(rng.expovariate(quiet_rate))
            if rng.random() < burst_prob:
                burst_remaining = burst_len
        draw = rng.random()
        if draw < stream_below:
            cursor = (cursor + 1) % scan_region
            offset = cursor
        elif draw < reuse_below and history:
            distance = 1 + int(rng.expovariate(reuse_rate))
            offset = history[-min(distance, len(history))]
        elif draw < spill_below and recently_evicted:
            # Thrash re-reference: a block the LLC evicted moments ago,
            # biased toward the very freshest evictions (whose write-backs
            # just parked them near the top of the ORAM tree).
            back = min(
                int(rng.expovariate(spill_rate)), len(recently_evicted) - 1
            )
            offset = recently_evicted[len(recently_evicted) - 1 - back]
        elif draw < midreuse_below and history:
            distance = 1 + rng.randrange(min(len(history), midreuse_span))
            offset = history[-distance]
        else:
            offset = rng.randrange(footprint)
        history.append(offset)
        if len(history) > history_cap:
            del history[: history_cap // 4]
        # track the LLC the trace will face (pure LRU approximation)
        if offset in lru:
            lru.move_to_end(offset)
        else:
            lru[offset] = None
            if len(lru) > llc_lines:
                victim, _ = lru.popitem(last=False)
                recently_evicted.append(victim)
        block = base_block + offset % region
        is_write = rng.random() < write_prob
        records.append((gap, block, is_write))
    return records


def table2_rows() -> List[Dict[str, object]]:
    """Rows of Table II in paper order."""
    return [
        {
            "suite": model.suite,
            "benchmark": model.name,
            "read_mpki": model.read_mpki,
            "write_mpki": model.write_mpki,
        }
        for model in BENCHMARKS.values()
    ]
