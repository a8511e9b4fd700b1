"""Section VI-A ablation: IR-Alloc / IR-Stash without timing protection.

The paper notes both techniques are orthogonal to the timing-channel
defense and measures IR-Alloc at 40% speedup without it vs 41% with it
(slightly smaller, because the inevitable dummy accesses double as free
background evictions when the defense is on).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from ..config import SystemConfig
from .common import (
    ALL_WORKLOADS,
    ExperimentResult,
    cached_run,
    geometric_mean,
)

SCHEMES = ["IR-Alloc", "IR-Stash"]


def run(
    config: Optional[SystemConfig] = None,
    records: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    config = config if config is not None else SystemConfig.scaled()
    unprotected = config.with_oram(
        replace(config.oram, timing_protection=False)
    )
    workloads = workloads if workloads is not None else ALL_WORKLOADS
    rows = []
    speedups = {
        (scheme, protected): []
        for scheme in SCHEMES
        for protected in (True, False)
    }
    for workload in workloads:
        row: List[object] = [workload]
        for protected, cfg in ((True, config), (False, unprotected)):
            baseline = cached_run(
                "Baseline", workload, cfg, records, seed=seed
            )
            for scheme in SCHEMES:
                result = cached_run(scheme, workload, cfg, records, seed=seed)
                speedup = result.speedup_over(baseline)
                speedups[(scheme, protected)].append(speedup)
                row.append(round(speedup, 3))
        rows.append(row)
    rows.append(
        ["geomean"]
        + [
            round(geometric_mean(speedups[(scheme, protected)]), 3)
            for protected in (True, False)
            for scheme in SCHEMES
        ]
    )
    return ExperimentResult(
        experiment_id="Ablation (Section VI-A)",
        title="IR-Alloc / IR-Stash speedups with and without timing protection",
        headers=[
            "workload",
            "IR-Alloc (protected)",
            "IR-Stash (protected)",
            "IR-Alloc (unprotected)",
            "IR-Stash (unprotected)",
        ],
        rows=rows,
        paper_claim="IR-Alloc: 40% speedup without timing protection vs 41% "
                    "with it (dummies double as free evictions)",
    )
