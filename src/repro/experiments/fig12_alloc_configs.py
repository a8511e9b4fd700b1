"""Fig. 12: the four IR-Alloc configurations of Section VI-B.

Normalized execution time per configuration, with the share of time spent
on background eviction.  The paper's trend: fewer blocks per path buys
performance, but aggressive shrinking raises background-eviction time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import SystemConfig
from ..core.ir_alloc import PAPER_ALLOC_CONFIGS
from .common import (
    ALL_WORKLOADS,
    ExperimentResult,
    cached_run,
    geometric_mean,
)

CONFIGS = ["IR-Alloc1", "IR-Alloc2", "IR-Alloc3", "IR-Alloc4"]


def run(
    config: Optional[SystemConfig] = None,
    records: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    workloads = workloads if workloads is not None else ALL_WORKLOADS
    rows = []
    ratios = {name: [] for name in CONFIGS}
    for workload in workloads:
        baseline = cached_run("Baseline", workload, config, records, seed=seed)
        row: List[object] = [workload]
        for name in CONFIGS:
            result = cached_run(name, workload, config, records, seed=seed)
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
