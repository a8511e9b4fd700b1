"""Fig. 4: per-workload space utilization (gcc, lbm, and a random trace).

The paper's point: the per-level utilization trend of Fig. 3 holds for
individual workloads — middle levels stay underutilized for program
traces, higher for random traces.
"""

from __future__ import annotations

from typing import List

from ..api import RunSpec
from .common import ExperimentResult, Results, Settings, runner

WORKLOADS = ("gcc", "lbm", "random")

#: utilization snapshots per run (the table reads the last one)
SNAPSHOTS = 4


def points(settings: Settings) -> List[RunSpec]:
    return [
        settings.point("Baseline", workload, utilization_snapshots=SNAPSHOTS)
        for workload in settings.workload_list(WORKLOADS)
    ]


def table(results: Results, settings: Settings) -> ExperimentResult:
    rows = []
    for workload in settings.workload_list(WORKLOADS):
        series = settings.result(
            results, "Baseline", workload, utilization_snapshots=SNAPSHOTS
        ).utilization_series
        if not series:
            continue
        final = series[-1][1]
        rows.append([workload] + [round(u, 3) for u in final])
    levels = settings.platform().oram.levels
    headers = ["workload"] + [f"L{level}" for level in range(levels)]
    return ExperimentResult(
        experiment_id="Fig. 4",
        title="Per-workload space utilization at end of run (Baseline)",
        headers=headers,
        rows=rows,
        paper_claim="the utilization trend is the same per workload; random "
                    "traces push middle levels higher than program traces",
    )


run = runner(points, table)
