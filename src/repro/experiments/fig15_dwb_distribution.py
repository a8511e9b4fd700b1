"""Fig. 15: path-access type distribution under IR-DWB.

The paper: IR-DWB converts enough dummy slots into useful early
write-backs to shrink the dummy share from ~11% to ~6% on average.
"""

from __future__ import annotations

from typing import List

from ..api import RunSpec
from ..oram.types import PathType
from .common import ExperimentResult, Results, Settings, runner

SCHEMES = ("Baseline", "IR-DWB")


def points(settings: Settings) -> List[RunSpec]:
    return settings.grid(SCHEMES)


def table(results: Results, settings: Settings) -> ExperimentResult:
    rows = []
    base_dummy_total = base_total = 0.0
    dwb_dummy_total = dwb_total = 0.0
    for workload in settings.workload_list():
        baseline, dwb = (
            settings.result(results, scheme, workload) for scheme in SCHEMES
        )
        base_frac = baseline.dummy_fraction()
        dwb_frac = dwb.dummy_fraction()
        converted = dwb.counters.get("dwb.converted_slots", 0.0)
        rows.append(
            [
                workload,
                round(base_frac, 3),
                round(dwb_frac, 3),
                int(converted),
            ]
        )
        base_dummy_total += baseline.path_counts[PathType.DUMMY.value]
        base_total += baseline.total_paths()
        dwb_dummy_total += dwb.path_counts[PathType.DUMMY.value]
        dwb_total += dwb.total_paths()
    rows.append(
        [
            "average",
            round(base_dummy_total / max(base_total, 1), 3),
            round(dwb_dummy_total / max(dwb_total, 1), 3),
            "",
        ]
    )
    return ExperimentResult(
        experiment_id="Fig. 15",
        title="Dummy-path share: Baseline vs IR-DWB",
        headers=["workload", "dummy frac (Baseline)", "dummy frac (IR-DWB)",
                 "converted slots"],
        rows=rows,
        paper_claim="IR-DWB reduces the average dummy share from ~11% to ~6%",
    )


run = runner(points, table)
