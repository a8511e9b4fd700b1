"""Fig. 14: PosMap path accesses of IR-Stash, normalized to Baseline.

The paper: on average IR-Stash issues 49% of the Baseline's PosMap
accesses; per-benchmark reductions vary widely (94% for dee, small for
mcf), tracking how often the needed blocks sit in the cached tree top.
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
    ratios = []
    for workload in workloads:
        baseline = cached_run("Baseline", workload, config, records, seed=seed)
        ir_stash = cached_run("IR-Stash", workload, config, records, seed=seed)
        base_pos = baseline.posmap_paths()
        stash_pos = ir_stash.posmap_paths()
        ratio = stash_pos / base_pos if base_pos else 1.0
        ratios.append(ratio)
        rows.append(
            [workload, int(base_pos), int(stash_pos), round(ratio, 3)]
        )
    rows.append(["geomean", "", "", round(geometric_mean(ratios), 3)])
    return ExperimentResult(
        experiment_id="Fig. 14",
        title="PosMap path accesses: IR-Stash normalized to Baseline",
        headers=["workload", "Baseline PTp", "IR-Stash PTp", "ratio"],
        rows=rows,
        paper_claim="IR-Stash issues 49% of Baseline's PosMap accesses on "
                    "average (dee -94%, mcf smallest reduction)",
    )
