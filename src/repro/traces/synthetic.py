"""Synthetic trace generators.

Three primitive access patterns compose into benchmark-like behaviour:

* :func:`random_trace` — uniform random blocks at a fixed intensity.  The
  paper uses such traces to (a) maximize middle-level tree utilization
  (Fig. 3's tail, Fig. 13), (b) drive the IR-Alloc Z-search worst case, and
  (c) measure scalability (Fig. 16).
* :func:`zipf_trace` — skewed reuse over a working set, the ingredient
  that produces PLB hits and tree-top reuse.
* :func:`strided_trace` — streaming scans with strong spatial locality.
"""

from __future__ import annotations

import random
from array import array
from typing import List

from ..errors import TraceError
from .trace import Trace, TraceRecord


def _check(count: int, footprint: int) -> None:
    if count < 1:
        raise TraceError("trace needs at least one record")
    if footprint < 1:
        raise TraceError("footprint must be positive")


def random_trace(
    count: int,
    footprint: int,
    rng: random.Random,
    gap: int = 40,
    write_fraction: float = 0.0,
    name: str = "random",
) -> Trace:
    """Uniform random accesses over ``[0, footprint)`` blocks."""
    _check(count, footprint)
    randrange, unit = rng.randrange, rng.random
    draws = [(randrange(footprint), unit() < write_fraction)
             for _ in range(count)]
    blocks, writes = zip(*draws)
    # Packed in place: every record shares the gap.
    records = array("q", [gap]) * (3 * count)
    records[1::3] = array("q", blocks)
    records[2::3] = array("q", writes)
    return Trace(name, records)


def zipf_trace(
    count: int,
    footprint: int,
    rng: random.Random,
    alpha: float = 1.1,
    gap: int = 200,
    write_fraction: float = 0.2,
    name: str = "zipf",
) -> Trace:
    """Zipf-distributed reuse: few hot blocks dominate, long cold tail.

    Rank-to-block mapping is randomized once so hot blocks scatter over the
    footprint (hot PosMap1 blocks then scatter too, as in real programs).
    """
    _check(count, footprint)
    ranks = _zipf_ranks(footprint, alpha, rng, samples=count)
    perm_cache: dict = {}

    def block_of(rank: int) -> int:
        if rank not in perm_cache:
            perm_cache[rank] = rng.randrange(footprint)
        return perm_cache[rank]

    records: List[TraceRecord] = []
    for rank in ranks:
        is_write = rng.random() < write_fraction
        records.append((gap, block_of(rank), is_write))
    return Trace(name, records)


def _zipf_ranks(
    footprint: int, alpha: float, rng: random.Random, samples: int
) -> List[int]:
    """Draw ranks via inverse-CDF over a truncated zipf distribution."""
    support = min(footprint, 4096)
    weights = [1.0 / (rank + 1) ** alpha for rank in range(support)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    ranks = []
    for _ in range(samples):
        u = rng.random()
        lo, hi = 0, support - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        ranks.append(lo)
    return ranks


def strided_trace(
    count: int,
    footprint: int,
    rng: random.Random,
    stride: int = 1,
    gap: int = 25,
    write_fraction: float = 0.5,
    name: str = "stream",
) -> Trace:
    """Sequential streaming over the footprint (lbm/bwa-like)."""
    _check(count, footprint)
    records: List[TraceRecord] = []
    cursor = rng.randrange(footprint)
    for _ in range(count):
        cursor = (cursor + stride) % footprint
        is_write = rng.random() < write_fraction
        records.append((gap, cursor, is_write))
    return Trace(name, records)
