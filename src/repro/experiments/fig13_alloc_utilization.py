"""Fig. 13: tree level utilization under IR-Alloc.

Same methodology as Fig. 3 but with the IR-Alloc allocation: the shrunken
middle levels now run at higher utilization (well above 50% for random
traces, with the top levels close to full), which is where the increased
background-eviction pressure comes from.
"""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from .common import ExperimentResult
from .fig03_utilization import run as run_fig03


def run(
    config: Optional[SystemConfig] = None,
    records: Optional[int] = None,
    snapshots: int = 5,
) -> ExperimentResult:
    result = run_fig03(
        config=config, records=records, snapshots=snapshots, scheme="IR-Alloc"
    )
    result.experiment_id = "Fig. 13"
    result.title = "Space utilization per tree level over time (IR-Alloc)"
    result.paper_claim = (
        "with shrunken middle buckets the top/middle levels run at much "
        "higher utilization; random traces push them above 50%"
    )
    return result
