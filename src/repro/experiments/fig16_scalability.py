"""Fig. 16: scalability of IR-Alloc across protected-memory sizes.

The paper evaluates 1/2/4 GB user data (L=24/25/26) with random traces —
the performance lower bound and the worst case for background eviction —
reporting stable speedups across sizes with tiny variance across 13 random
traces.  We sweep the scaled analog (three tree depths around the default)
and average several random seeds.
"""

from __future__ import annotations

import random
import statistics
from typing import List, Optional, Sequence

from .. import api
from ..config import SystemConfig
from ..traces.synthetic import random_trace
from .common import RECORDS, ExperimentResult


def run(
    levels_sweep: Sequence[int] = (14, 15, 16),
    records: Optional[int] = None,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
) -> ExperimentResult:
    records = records if records is not None else RECORDS
    rows: List[List[object]] = []
    for levels in levels_sweep:
        config = SystemConfig.scaled(levels=levels)
        speedups = []
        for seed in seeds:
            rng = random.Random(seed)
            trace = random_trace(
                records, config.oram.user_blocks, rng, gap=30,
                name=f"random-{seed}",
            )
            baseline = api.run(api.RunSpec(
                scheme="Baseline", workload=trace.name, seed=seed,
                config=config, trace=trace,
            )).result
            ir_alloc = api.run(api.RunSpec(
                scheme="IR-Alloc", workload=trace.name, seed=seed,
                config=config, trace=trace,
            )).result
            speedups.append(ir_alloc.speedup_over(baseline))
        mean = statistics.mean(speedups)
        stdev = statistics.pstdev(speedups)
        rows.append(
            [
                levels,
                config.oram.user_blocks,
                round(mean, 3),
                round(stdev, 4),
            ]
        )
    return ExperimentResult(
        experiment_id="Fig. 16",
        title="IR-Alloc speedup on random traces across tree sizes",
        headers=["tree levels", "user blocks", "mean speedup", "stdev"],
        rows=rows,
        paper_claim="speedups stay stable across 1/2/4 GB user data with "
                    "near-zero variance across random traces",
    )
