"""Fig. 12: the four IR-Alloc configurations of Section VI-B.

Normalized execution time per configuration, with the share of time spent
on background eviction.  The paper's trend: fewer blocks per path buys
performance, but aggressive shrinking raises background-eviction time.
"""

from __future__ import annotations

from typing import List

from ..api import RunSpec
from ..core.ir_alloc import PAPER_ALLOC_CONFIGS
from .common import ExperimentResult, Results, Settings, geometric_mean, runner

CONFIGS = ["IR-Alloc1", "IR-Alloc2", "IR-Alloc3", "IR-Alloc4"]


def points(settings: Settings) -> List[RunSpec]:
    return settings.grid(["Baseline", *CONFIGS])


def table(results: Results, settings: Settings) -> ExperimentResult:
    rows = []
    ratios = {name: [] for name in CONFIGS}
    for workload in settings.workload_list():
        baseline = settings.result(results, "Baseline", workload)
        row: List[object] = [workload]
        for name in CONFIGS:
            result = settings.result(results, name, workload)
            normalized = result.cycles / max(baseline.cycles, 1)
            ratios[name].append(normalized)
            row.append(round(normalized, 3))
            row.append(round(result.eviction_cycle_share(), 3))
        rows.append(row)
    summary: List[object] = ["geomean"]
    for name in CONFIGS:
        summary.append(round(geometric_mean(ratios[name]), 3))
        summary.append("")
    rows.append(summary)
    headers = ["workload"]
    for name in CONFIGS:
        plan = PAPER_ALLOC_CONFIGS[name]
        headers.append(f"{name} (PL={plan.blocks_per_path()})")
        headers.append("evict share")
    return ExperimentResult(
        experiment_id="Fig. 12",
        title="IR-Alloc configurations: normalized time + eviction share",
        headers=headers,
        rows=rows,
        paper_claim="lower PL buys performance; aggressive configurations "
                    "(IR-Alloc3/4) spend visibly more time on background "
                    "eviction",
    )


run = runner(points, table)
