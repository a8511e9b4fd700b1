"""Fig. 6: tree-top reuse — requested blocks found in the top levels.

Section III's tree study feeds the access stream directly into the ORAM
(the Fig. 3 methodology runs raw path accesses, not LLC-filtered misses).
We reproduce it by running with a degenerate one-line LLC so every request
reaches the controller, then histogram where each request's block was
found: the stash, a cached-top level, or a deeper (memory) level.

The paper reports ~23% of requests served from the top ten (of 25) levels,
which hold <0.01% of the ORAM space.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

from .. import api
from ..config import CacheConfig, SystemConfig
from ..traces.synthetic import zipf_trace
from .common import RECORDS, ExperimentResult


def run(
    config: Optional[SystemConfig] = None,
    records: Optional[int] = None,
    alpha: float = 1.0,
) -> ExperimentResult:
    config = config if config is not None else SystemConfig.scaled()
    records = records if records is not None else RECORDS
    # degenerate LLC: every request reaches the ORAM controller
    config = replace(config, llc=CacheConfig(sets=1, ways=1))
    rng = random.Random(17)
    trace = zipf_trace(
        records,
        footprint=min(
            config.oram.user_blocks, max(1024, config.oram.user_blocks // 16)
        ),
        rng=rng,
        alpha=alpha,
        gap=60,
        write_fraction=0.5,
    )
    result = api.run(api.RunSpec(
        scheme="Baseline", workload=trace.name, seed=1,
        config=config, trace=trace,
    )).result

    hits = result.hit_levels
    total = max(sum(hits.values()), 1.0)
    top_levels = config.oram.top_cached_levels
    rows = []
    rows.append(["stash", round(hits.get("stash", 0.0) / total, 4)])
    top_share = 0.0
    for level in range(config.oram.levels):
        share = hits.get(level, 0.0) / total
        rows.append([f"L{level}", round(share, 4)])
        if level < top_levels:
            top_share += share
    oram = config.oram
    top_capacity = sum(oram.z_per_level[l] << l for l in range(top_levels))
    capacity_share = top_capacity / oram.tree_slots()
    return ExperimentResult(
        experiment_id="Fig. 6",
        title="Where requested blocks are found (tree study, no LLC filter)",
        headers=["location", "fraction of requests"],
        rows=rows,
        paper_claim="top 10 of 25 levels hold <0.01% of space but serve "
                    "~23% of requests",
        notes=[
            f"top {top_levels} levels hold {capacity_share:.4%} of tree "
            f"slots and served {top_share:.1%} of requests",
        ],
    )
