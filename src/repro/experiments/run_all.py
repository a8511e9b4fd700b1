"""Run every experiment regenerator and print the paper-vs-measured tables.

Driven by ``repro experiments`` (``python -m repro experiments --help``)::

    python -m repro experiments                          # full suite
    python -m repro experiments "Fig. 10" "Fig. 14"      # a subset
    python -m repro experiments --records 2000 --workloads gcc,mcf --jobs 2

The settings (records, seed, platform, workloads) travel inside every
work item, so ``--jobs`` workers run exactly what the serial loop runs.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence, Tuple

from .. import api
from . import (
    ablation_timing,
    fig02_path_types,
    fig03_utilization,
    fig04_utilization_per_bench,
    fig05_migration,
    fig06_treetop_reuse,
    fig07_alloc_example,
    fig10_performance,
    fig11_llcd,
    fig12_alloc_configs,
    fig13_alloc_utilization,
    fig14_posmap,
    fig15_dwb_distribution,
    fig16_scalability,
    table1_config,
    table2_benchmarks,
    zsearch,
)
from .common import ALL_WORKLOADS, CONFIG, RECORDS, SEED, ExperimentResult

#: the settings of a regenerator that slices the simulation matrix
MATRIX = ("config", "records", "seed", "workloads")

#: (id, regenerator, the settings it takes); a regenerator that takes no
#: setting keeps its own platform, trace length or seeds
ALL_EXPERIMENTS: List[
    Tuple[str, Callable[..., ExperimentResult], Tuple[str, ...]]
] = [
    ("Table I", table1_config.run, ()),
    ("Table II", table2_benchmarks.run, ("records",)),
    ("Fig. 2", fig02_path_types.run, MATRIX),
    ("Fig. 3", fig03_utilization.run, ("records",)),
    ("Fig. 4", fig04_utilization_per_bench.run, ("records", "seed")),
    ("Fig. 5", fig05_migration.run, ("records",)),
    ("Fig. 6", fig06_treetop_reuse.run, ("records",)),
    ("Fig. 7", fig07_alloc_example.run, ()),
    ("Fig. 10", fig10_performance.run, MATRIX),
    ("Fig. 11", fig11_llcd.run, MATRIX),
    ("Fig. 12", fig12_alloc_configs.run, MATRIX),
    ("Fig. 13", fig13_alloc_utilization.run, ("records",)),
    ("Fig. 14", fig14_posmap.run, MATRIX),
    ("Fig. 15", fig15_dwb_distribution.run, MATRIX),
    ("Fig. 16", fig16_scalability.run, ("records",)),
    ("Ablation", ablation_timing.run, ("records", "seed", "workloads")),
    ("Z-search", zsearch.run, ()),
]


def _run_named(item: Tuple[str, dict]) -> Tuple[str, ExperimentResult, float]:
    """Worker for parallel regeneration (module-level, picklable): one
    ``(id, settings)`` item."""
    name, settings = item
    runner, takes = {n: (r, t) for n, r, t in ALL_EXPERIMENTS}[name]
    start = time.time()
    result = runner(**{key: settings[key] for key in takes})
    return name, result, time.time() - start


def main(
    ids: Sequence[str] = (),
    jobs: int = 1,
    records: int = RECORDS,
    seed: int = SEED,
    config: str = CONFIG,
    workloads: Sequence[str] = ALL_WORKLOADS,
) -> List[ExperimentResult]:
    """Regenerate ``ids`` (every experiment when empty) and print each
    table; ``config`` names the platform (``scaled`` or ``paper``)."""
    settings = {
        "config": api.RunSpec(config_name=config).resolve_config(),
        "records": records,
        "seed": seed,
        "workloads": list(workloads),
    }
    selected = set(ids)
    items = [
        (name, settings) for name, _, _ in ALL_EXPERIMENTS
        if not selected or name in selected
    ]
    # Through the warm-pool engine: regenerator wall times recorded on
    # previous runs order the dispatch longest-first, so the slowest
    # figure starts immediately instead of queueing behind quick tables.
    from ..perf.engine import engine_map, get_priors

    priors = get_priors()
    rows = engine_map(
        _run_named,
        items,
        jobs=jobs,
        cost=lambda item: priors.predict("experiments", item[0]) or 1.0,
    )
    results = []
    for name, result, elapsed in rows:
        priors.observe("experiments", name, elapsed)
        print(result.to_text())
        print(f"[{name} regenerated in {elapsed:.1f}s]")
        print()
        results.append(result)
    priors.save()
    return results
