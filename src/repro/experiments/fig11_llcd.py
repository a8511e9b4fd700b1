"""Fig. 11: IR-Stash + IR-Alloc on top of an LLC-D baseline.

The paper reports a 72% average improvement over a Baseline that adopts
delayed block remapping, with mcf at 1.63x (LLC-D triples its tree-top
hits, giving IR-Stash more PosMap accesses to eliminate).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig
from .common import (
    ALL_WORKLOADS,
    ExperimentResult,
    cached_run,
    geometric_mean,
)


def run(
    config: Optional[SystemConfig] = None,
    records: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    workloads = workloads if workloads is not None else ALL_WORKLOADS
    rows = []
    speedups = []
    for workload in workloads:
        base = cached_run("LLC-D", workload, config, records, seed=seed)
        improved = cached_run(
            "IR-Stash+IR-Alloc(LLC-D)", workload, config, records, seed=seed
        )
        speedup = improved.speedup_over(base)
        speedups.append(speedup)
        rows.append([workload, round(speedup, 3)])
    rows.append(["geomean", round(geometric_mean(speedups), 3)])
    return ExperimentResult(
        experiment_id="Fig. 11",
        title="IR-Stash+IR-Alloc speedup over an LLC-D baseline",
        headers=["workload", "speedup"],
        rows=rows,
        paper_claim="72% average improvement over LLC-D; 1.63x for mcf",
    )
