"""The IR-Alloc greedy Z-search of Section IV-B, end to end.

Runs the application-independent search (random traces, the two
constraints) on a given geometry and reports the chosen allocation next to
the hand-tuned plans of Section VI-B.
"""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from ..perf.engine import cached_z_allocation
from ..sim.runner import random_trace_evaluator
from .common import ExperimentResult


def run(
    config: Optional[SystemConfig] = None,
    records: int = 1200,
    max_space_reduction: float = 0.03,
    max_eviction_increase: float = 0.15,
    seed: int = 99,
) -> ExperimentResult:
    config = config if config is not None else SystemConfig.scaled(levels=12)
    evaluate = random_trace_evaluator(config, records=records, seed=seed)
    uniform = config.oram
    # Disk-memoized through the engine's artifact cache: re-runs (and the
    # fig12/fig13 regenerators sharing a geometry) skip the greedy search.
    best = cached_z_allocation(
        config,
        records=records,
        seed=seed,
        max_space_reduction=max_space_reduction,
        max_eviction_increase=max_eviction_increase,
    )
    uniform_eval = evaluate(uniform)
    best_eval = evaluate(best)
    rows = [
        ["z vector", str(list(uniform.z_per_level)), str(list(best.z_per_level))],
        ["blocks per path (PL)", uniform.blocks_per_path(), best.blocks_per_path()],
        ["space reduction", "0.0%",
         f"{best.space_reduction_vs_uniform():.2%}"],
        ["random-trace cycles", int(uniform_eval["cycles"]),
         int(best_eval["cycles"])],
        ["background evictions", int(uniform_eval["evictions"]),
         int(best_eval["evictions"])],
        ["speedup", 1.0,
         round(uniform_eval["cycles"] / max(best_eval["cycles"], 1), 3)],
    ]
    return ExperimentResult(
        experiment_id="Z-search (Section IV-B)",
        title=f"Greedy utilization-aware allocation search (L={uniform.levels})",
        headers=["metric", "uniform Z=4", "searched"],
        rows=rows,
        paper_claim="the search shrinks middle-level buckets under the "
                    "<=1% space and <=15% eviction-increase constraints, "
                    "application-independently",
    )
