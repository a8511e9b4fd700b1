"""Fig. 5: block migration behaviour during path writes.

Section III-C observes that *pre-existing* stash blocks (blocks that were
in the stash before the current path's read phase) tend to be written to
top levels — two random paths rarely overlap deeply — while blocks just
fetched from the path flush back to the same or deeper levels.
"""

from __future__ import annotations

import random
from typing import Optional

from ..config import SystemConfig
from ..core.schemes import build_scheme
from ..sim.simulator import Simulator
from ..sim.runner import make_workload
from .common import RECORDS, ExperimentResult


def run(
    config: Optional[SystemConfig] = None,
    records: Optional[int] = None,
    workload: str = "mix",
) -> ExperimentResult:
    config = config if config is not None else SystemConfig.scaled()
    records = records if records is not None else RECORDS
    components = build_scheme("Baseline", config)
    components.controller.track_migration = True
    trace = make_workload(workload, config, records, seed=13)
    Simulator(components, trace).run()

    stats = components.stats
    pre = stats.histogram("migration.preexisting")
    fetched = stats.histogram("migration.fetched")
    levels = config.oram.levels
    pre_total = max(sum(pre.values()), 1.0)
    fetched_total = max(sum(fetched.values()), 1.0)
    rows = []
    for level in range(levels):
        rows.append(
            [
                level,
                round(pre.get(level, 0.0) / pre_total, 4),
                round(fetched.get(level, 0.0) / fetched_total, 4),
            ]
        )
    pre_top = sum(pre.get(level, 0.0) for level in range(levels // 2)) / pre_total
    fetched_top = (
        sum(fetched.get(level, 0.0) for level in range(levels // 2)) / fetched_total
    )
    return ExperimentResult(
        experiment_id="Fig. 5",
        title="Write-phase placement levels: pre-existing vs fetched blocks",
        headers=["level", "pre-existing frac", "fetched frac"],
        rows=rows,
        paper_claim="pre-existing stash blocks land near the top; fetched "
                    "blocks flush to the same or deeper levels",
        notes=[
            f"fraction placed in the top half of the tree: "
            f"pre-existing {pre_top:.2f} vs fetched {fetched_top:.2f}",
        ],
    )
