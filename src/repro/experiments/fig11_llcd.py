"""Fig. 11: IR-Stash + IR-Alloc on top of an LLC-D baseline.

The paper reports a 72% average improvement over a Baseline that adopts
delayed block remapping, with mcf at 1.63x (LLC-D triples its tree-top
hits, giving IR-Stash more PosMap accesses to eliminate).
"""

from __future__ import annotations

from typing import List

from ..api import RunSpec
from .common import ExperimentResult, Results, Settings, geometric_mean, runner

SCHEMES = ("LLC-D", "IR-Stash+IR-Alloc(LLC-D)")


def points(settings: Settings) -> List[RunSpec]:
    return settings.grid(SCHEMES)


def table(results: Results, settings: Settings) -> ExperimentResult:
    rows = []
    speedups = []
    for workload in settings.workload_list():
        base, improved = (
            settings.result(results, scheme, workload) for scheme in SCHEMES
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


run = runner(points, table)
