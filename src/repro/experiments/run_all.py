"""Run every experiment regenerator and print the paper-vs-measured tables.

Driven by ``repro experiments`` (``python -m repro experiments --help``)::

    python -m repro experiments                          # full suite
    python -m repro experiments "Fig. 10" "Fig. 14"      # a subset
    python -m repro experiments --records 2000 --workloads gcc,mcf --jobs 2

The settings (records, seed, platform, workloads) travel inside every
work item, so ``--jobs`` workers run exactly what the serial loop runs.
A work item is a self-contained regenerator or one simulation point of
the matrix figures; a point several figures share runs once.
"""

from __future__ import annotations

import sys
import time
from types import ModuleType
from typing import List, Sequence, Tuple

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
from .common import (
    ALL_WORKLOADS,
    CONFIG,
    RECORDS,
    SEED,
    ExperimentResult,
    Settings,
    distinct,
)

#: the settings of a regenerator that slices the simulation matrix
MATRIX = ("config", "records", "seed", "workloads")

#: (id, regenerator module, the settings it takes).  A module with
#: ``points`` and ``table`` slices the simulation matrix; any other runs
#: whole in one task.  A regenerator that takes no setting keeps its own
#: platform, trace length or seeds.
ALL_EXPERIMENTS: List[Tuple[str, ModuleType, Tuple[str, ...]]] = [
    ("Table I", table1_config, ()),
    ("Table II", table2_benchmarks, ("records",)),
    ("Fig. 2", fig02_path_types, MATRIX),
    ("Fig. 3", fig03_utilization, ("records",)),
    ("Fig. 4", fig04_utilization_per_bench, ("records", "seed")),
    ("Fig. 5", fig05_migration, ("records",)),
    ("Fig. 6", fig06_treetop_reuse, ("records",)),
    ("Fig. 7", fig07_alloc_example, ()),
    ("Fig. 10", fig10_performance, MATRIX),
    ("Fig. 11", fig11_llcd, MATRIX),
    ("Fig. 12", fig12_alloc_configs, MATRIX),
    ("Fig. 13", fig13_alloc_utilization, ("records",)),
    ("Fig. 14", fig14_posmap, MATRIX),
    ("Fig. 15", fig15_dwb_distribution, MATRIX),
    ("Fig. 16", fig16_scalability, ("records",)),
    ("Ablation", ablation_timing, ("records", "seed", "workloads")),
    ("Z-search", zsearch, ()),
]


def _work(task):
    """Worker of the fan-out (module-level, picklable): a self-contained
    regenerator's table, or one simulation point's result."""
    if isinstance(task, api.RunSpec):
        from ..perf.engine import run_spec_warm

        return run_spec_warm(task).result
    name, kwargs = task
    module = {n: m for n, m, _ in ALL_EXPERIMENTS}[name]
    return module.run(**kwargs)


def main(
    ids: Sequence[str] = (),
    jobs: int = 1,
    records: int = RECORDS,
    seed: int = SEED,
    config: str = CONFIG,
    workloads: Sequence[str] = ALL_WORKLOADS,
) -> List[ExperimentResult]:
    """Regenerate ``ids`` (every experiment when empty) and print each
    table; ``config`` names the platform (``scaled`` or ``paper``).

    The self-contained regenerators and the distinct simulation points of
    the matrix figures run in one fan-out over ``jobs`` workers, so a
    point several figures share is simulated once.  The tables then print
    in :data:`ALL_EXPERIMENTS` order.
    """
    harness = {
        "config": api.RunSpec(config_name=config).resolve_config(),
        "records": records,
        "seed": seed,
        "workloads": list(workloads),
    }
    selected = [
        (name, module, {key: harness[key] for key in takes})
        for name, module, takes in ALL_EXPERIMENTS
        if not ids or name in ids
    ]
    matrix = {
        name: Settings(**kwargs)
        for name, module, kwargs in selected if hasattr(module, "points")
    }
    wholes = [
        (name, kwargs) for name, _, kwargs in selected if name not in matrix
    ]
    points = distinct(
        spec
        for name, module, _ in selected if name in matrix
        for spec in module.points(matrix[name])
    )
    from ..perf.engine import engine_map

    api._check_run_knobs()
    start = time.perf_counter()
    outs = engine_map(_work, wholes + list(points.values()), jobs=jobs)
    tables = {name: out for (name, _), out in zip(wholes, outs)}
    results = dict(zip(points, outs[len(wholes):]))
    printed = []
    for name, module, _ in selected:
        if name in matrix:
            tables[name] = module.table(results, matrix[name])
        print(tables[name].to_text())
        print()
        printed.append(tables[name])
    print(
        f"[{len(selected)} experiments, {len(points)} simulation points "
        f"in {time.perf_counter() - start:.1f}s]",
        file=sys.stderr,
    )
    return printed
