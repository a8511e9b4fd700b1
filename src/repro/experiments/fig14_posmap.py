"""Fig. 14: PosMap path accesses of IR-Stash, normalized to Baseline.

The paper: on average IR-Stash issues 49% of the Baseline's PosMap
accesses; per-benchmark reductions vary widely (94% for dee, small for
mcf), tracking how often the needed blocks sit in the cached tree top.
"""

from __future__ import annotations

from typing import List

from ..api import RunSpec
from .common import ExperimentResult, Results, Settings, geometric_mean, runner

SCHEMES = ("Baseline", "IR-Stash")


def points(settings: Settings) -> List[RunSpec]:
    return settings.grid(SCHEMES)


def table(results: Results, settings: Settings) -> ExperimentResult:
    rows = []
    ratios = []
    for workload in settings.workload_list():
        base_pos, stash_pos = (
            settings.result(results, scheme, workload).posmap_paths()
            for scheme in SCHEMES
        )
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


run = runner(points, table)
