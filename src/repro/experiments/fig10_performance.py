"""Fig. 10: performance of all schemes, normalized to the Baseline.

The paper's averages: Rho +11%, IR-Alloc +41%, IR-Stash +27%, IR-DWB +5%,
IR-ORAM +57% over Baseline (and +42% over Rho); LLC-D helps write-heavy
programs but slows mcf by 1.9x.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import SystemConfig
from .common import (
    ALL_WORKLOADS,
    ExperimentResult,
    cached_run,
    geometric_mean,
)

SCHEME_ORDER = [
    "Baseline",
    "Rho",
    "IR-Alloc",
    "IR-Stash",
    "IR-DWB",
    "IR-ORAM",
    "LLC-D",
]


def run(
    config: Optional[SystemConfig] = None,
    records: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    schemes: Optional[List[str]] = None,
    seed: Optional[int] = None,
) -> ExperimentResult:
    workloads = workloads if workloads is not None else ALL_WORKLOADS
    schemes = schemes if schemes is not None else SCHEME_ORDER
    rows = []
    speedups = {scheme: [] for scheme in schemes}
    for workload in workloads:
        baseline = cached_run("Baseline", workload, config, records, seed=seed)
        row: List[object] = [workload]
        for scheme in schemes:
            result = (
                baseline
                if scheme == "Baseline"
                else cached_run(scheme, workload, config, records, seed=seed)
            )
            speedup = result.speedup_over(baseline)
            speedups[scheme].append(speedup)
            row.append(round(speedup, 3))
        rows.append(row)
    rows.append(
        ["geomean"]
        + [round(geometric_mean(speedups[scheme]), 3) for scheme in schemes]
    )
    return ExperimentResult(
        experiment_id="Fig. 10",
        title="Speedup over Baseline (higher is better)",
        headers=["workload"] + schemes,
        rows=rows,
        paper_claim="averages: Rho 1.11x, IR-Alloc 1.41x, IR-Stash 1.27x, "
                    "IR-DWB 1.05x, IR-ORAM 1.57x; LLC-D slows mcf 1.9x",
    )
