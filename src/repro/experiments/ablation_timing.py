"""Section VI-A ablation: IR-Alloc / IR-Stash without timing protection.

The paper notes both techniques are orthogonal to the timing-channel
defense and measures IR-Alloc at 40% speedup without it vs 41% with it
(slightly smaller, because the inevitable dummy accesses double as free
background evictions when the defense is on).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from ..api import RunSpec
from ..config import SystemConfig
from .common import ExperimentResult, Results, Settings, geometric_mean, runner

SCHEMES = ["IR-Alloc", "IR-Stash"]


def _platforms(settings: Settings) -> List[Tuple[bool, SystemConfig]]:
    """``(timing protected, platform)``, protected first."""
    config = settings.platform()
    unprotected = config.with_oram(
        replace(config.oram, timing_protection=False)
    )
    return [(True, config), (False, unprotected)]


def points(settings: Settings) -> List[RunSpec]:
    return [
        settings.point(scheme, workload, cfg)
        for workload in settings.workload_list()
        for _, cfg in _platforms(settings)
        for scheme in ["Baseline", *SCHEMES]
    ]


def table(results: Results, settings: Settings) -> ExperimentResult:
    rows = []
    speedups = {
        (scheme, protected): []
        for scheme in SCHEMES
        for protected in (True, False)
    }
    for workload in settings.workload_list():
        row: List[object] = [workload]
        for protected, cfg in _platforms(settings):
            baseline = settings.result(results, "Baseline", workload, cfg)
            for scheme in SCHEMES:
                result = settings.result(results, scheme, workload, cfg)
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


run = runner(points, table)
