"""Fig. 4: per-workload space utilization (gcc, lbm, and a random trace).

The paper's point: the per-level utilization trend of Fig. 3 holds for
individual workloads — middle levels stay underutilized for program
traces, higher for random traces.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import SystemConfig
from .common import ExperimentResult, cached_run


def run(
    config: Optional[SystemConfig] = None,
    records: Optional[int] = None,
    workloads: Optional[List[str]] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    config = config if config is not None else SystemConfig.scaled()
    workloads = workloads if workloads is not None else ["gcc", "lbm", "random"]
    levels = config.oram.levels
    rows = []
    for workload in workloads:
        result = cached_run(
            "Baseline", workload, config, records, seed=seed,
            utilization_snapshots=4,
        )
        series = result.utilization_series
        if not series:
            continue
        final = series[-1][1]
        rows.append([workload] + [round(u, 3) for u in final])
    headers = ["workload"] + [f"L{level}" for level in range(levels)]
    return ExperimentResult(
        experiment_id="Fig. 4",
        title="Per-workload space utilization at end of run (Baseline)",
        headers=headers,
        rows=rows,
        paper_claim="the utilization trend is the same per workload; random "
                    "traces push middle levels higher than program traces",
    )
