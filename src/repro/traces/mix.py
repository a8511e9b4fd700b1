"""Trace mixing.

Two composition modes mirror the paper's setups:

* :func:`mix_traces` interleaves several programs over disjoint address
  regions — the "mix" bar of Fig. 10;
* :func:`benchmark_mix_with_random_tail` reproduces the Fig. 3 methodology:
  a long run of benchmark accesses followed by a purely random tail
  ("trace range [0B-3.7B]" then "(3.7B, 4B]").
"""

from __future__ import annotations

import random
from array import array
from typing import Sequence

from ..errors import TraceError
from .benchmarks import BENCHMARKS, benchmark_trace
from .synthetic import random_trace
from .trace import Trace, concat


def mix_traces(traces: Sequence[Trace], rng: random.Random, name: str = "mix") -> Trace:
    """Round-robin interleave with random jitter, preserving record order
    within each source trace (a multiprogrammed-style mix)."""
    if not traces:
        raise TraceError("cannot mix zero traces")
    cursors = [0] * len(traces)
    lengths = [len(t) for t in traces]
    sources = [t.packed for t in traces]
    records = array("q")
    remaining = sum(lengths)
    while remaining:
        candidates = [i for i, n in enumerate(lengths) if cursors[i] < n]
        index = candidates[rng.randrange(len(candidates))]
        at = 3 * cursors[index]
        records += sources[index][at:at + 3]
        cursors[index] += 1
        remaining -= 1
    return Trace(name, records)


def standard_mix(
    user_blocks: int,
    count: int,
    rng: random.Random,
    names: Sequence[str] = ("gcc", "mcf", "lbm"),
    llc_lines: int = 2048,
) -> Trace:
    """The paper's mix of three benchmarks over disjoint regions."""
    region = user_blocks // len(names)
    parts = [
        benchmark_trace(
            BENCHMARKS[name],
            user_blocks,
            count // len(names),
            rng,
            base_block=i * region,
            region_blocks=region,
            llc_lines=llc_lines,
        )
        for i, name in enumerate(names)
    ]
    return mix_traces(parts, rng, name="mix")


def benchmark_mix_with_random_tail(
    user_blocks: int,
    benchmark_count: int,
    random_count: int,
    rng: random.Random,
) -> Trace:
    """Fig. 3's trace: benchmark mix for ~92.5 % of the run, random tail after."""
    head = standard_mix(user_blocks, benchmark_count, rng)
    tail = random_trace(random_count, user_blocks, rng, gap=30, name="random-tail")
    return concat("mix+random", [head, tail])
