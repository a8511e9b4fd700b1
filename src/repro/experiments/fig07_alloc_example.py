"""Fig. 7: the IR-Alloc allocation example.

Pure configuration arithmetic at paper scale (L=25, top 10 levels cached):
the Z=2/3/4 range allocation needs 43 blocks per path, vs 60 for Path ORAM
with the 10-level tree-top cache and 100 without it.
"""

from __future__ import annotations

from ..core.ir_alloc import PAPER_ALLOC_CONFIGS, AllocPlan
from .common import ExperimentResult


def run() -> ExperimentResult:
    uniform_cached = AllocPlan("uniform+top10", ())
    uniform_uncached = AllocPlan("uniform", (), top_cached=0)
    rows = [
        ["Path ORAM (no tree-top cache)", "Z=4 everywhere",
         uniform_uncached.blocks_per_path()],
        ["Path ORAM + 10-level top cache", "Z=4 everywhere",
         uniform_cached.blocks_per_path()],
    ]
    for name in ("IR-ORAM", "IR-Alloc1", "IR-Alloc2", "IR-Alloc3", "IR-Alloc4"):
        plan = PAPER_ALLOC_CONFIGS[name]
        ranges = ", ".join(
            f"Z={z} for L{first}-{last}" for first, last, z in plan.ranges
        )
        rows.append([name, ranges, plan.blocks_per_path()])
    return ExperimentResult(
        experiment_id="Fig. 7",
        title="IR-Alloc allocation strategies: blocks fetched per path (PL)",
        headers=["allocation", "ranges (else Z=4)", "PL"],
        rows=rows,
        paper_claim="IR-Alloc accesses 43 blocks per path vs 60 (cached "
                    "baseline) and 100 (uncached Path ORAM)",
    )
