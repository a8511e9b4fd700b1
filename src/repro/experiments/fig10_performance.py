"""Fig. 10: performance of all schemes, normalized to the Baseline.

The paper's averages: Rho +11%, IR-Alloc +41%, IR-Stash +27%, IR-DWB +5%,
IR-ORAM +57% over Baseline (and +42% over Rho); LLC-D helps write-heavy
programs but slows mcf by 1.9x.
"""

from __future__ import annotations

from typing import List, Sequence

from ..api import RunSpec
from .common import ExperimentResult, Results, Settings, geometric_mean, runner

SCHEME_ORDER = [
    "Baseline",
    "Rho",
    "IR-Alloc",
    "IR-Stash",
    "IR-DWB",
    "IR-ORAM",
    "LLC-D",
]


def points(
    settings: Settings, schemes: Sequence[str] = SCHEME_ORDER
) -> List[RunSpec]:
    return settings.grid(["Baseline", *schemes])


def table(
    results: Results,
    settings: Settings,
    schemes: Sequence[str] = SCHEME_ORDER,
) -> ExperimentResult:
    rows = []
    speedups = {scheme: [] for scheme in schemes}
    for workload in settings.workload_list():
        baseline = settings.result(results, "Baseline", workload)
        row: List[object] = [workload]
        for scheme in schemes:
            result = settings.result(results, scheme, workload)
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
        headers=["workload"] + list(schemes),
        rows=rows,
        paper_claim="averages: Rho 1.11x, IR-Alloc 1.41x, IR-Stash 1.27x, "
                    "IR-DWB 1.05x, IR-ORAM 1.57x; LLC-D slows mcf 1.9x",
    )


#: ``run(config, records, workloads, seed, schemes=SCHEME_ORDER)``
run = runner(points, table)
