"""Fig. 2: the distribution of path-access types under the Baseline.

The paper reports, across benchmarks with T=1000: PT_d ~56% of memory
accesses, PT_p ~33% (Pos1 about 4x Pos2), PT_m the remaining ~11%.
"""

from __future__ import annotations

from typing import List

from ..api import RunSpec
from ..oram.types import PathType
from .common import ExperimentResult, Results, Settings, runner


def points(settings: Settings) -> List[RunSpec]:
    return settings.grid(["Baseline"])


def table(results: Results, settings: Settings) -> ExperimentResult:
    rows = []
    for workload in settings.workload_list():
        counts = settings.result(results, "Baseline", workload).path_counts
        pos1 = counts.get(PathType.POS1.value, 0.0)
        pos2 = counts.get(PathType.POS2.value, 0.0)
        data = counts.get(PathType.DATA.value, 0.0)
        dummy = counts.get(PathType.DUMMY.value, 0.0)
        other = counts.get(PathType.EVICTION.value, 0.0)
        total = max(pos1 + pos2 + data + dummy + other, 1.0)
        rows.append(
            [
                workload,
                pos1 / total,
                pos2 / total,
                data / total,
                dummy / total,
                other / total,
            ]
        )
    # unweighted mean across workloads, matching the paper's aggregation
    count = max(len(rows), 1)
    rows.append(
        ["average"]
        + [sum(row[col] for row in rows) / count for col in range(1, 6)]
    )
    return ExperimentResult(
        experiment_id="Fig. 2",
        title="Distribution of path-access types (Baseline)",
        headers=["workload", "PTp(Pos1)", "PTp(Pos2)", "PTd", "PTm", "evict"],
        rows=rows,
        paper_claim="PTd ~56%, PTp ~33% (Pos1 ~ 4x Pos2), PTm ~11%",
    )


run = runner(points, table)
