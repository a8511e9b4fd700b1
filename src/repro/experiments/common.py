"""Shared infrastructure for the experiment regenerators.

Results are plain tables (:class:`ExperimentResult`) so the harness can
print them, benchmarks can assert on them, and EXPERIMENTS.md can embed
them.  Simulation runs are memoized per (scheme, workload, records, config)
because several figures slice the same underlying matrix (Fig. 10/11/14/15
all share runs).

The harness settings are plain arguments: ``repro experiments`` hands its
``--records/--seed/--config/--workloads`` to :func:`run_all.main`, which
puts them into every work item.  A regenerator called without them runs
at the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import api
from ..config import SystemConfig
from ..sim.results import SimulationResult
from ..traces.benchmarks import BENCHMARKS

#: paper order of evaluated workloads, plus the mix bar of Fig. 10
ALL_WORKLOADS: Tuple[str, ...] = tuple(BENCHMARKS) + ("mix",)

#: default trace length per workload
RECORDS = 5000

#: default base seed of the simulation matrix
SEED = 7

#: default named platform (see :meth:`repro.api.RunSpec.resolve_config`)
CONFIG = "scaled"


@dataclass
class ExperimentResult:
    """A regenerated table or figure."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    paper_claim: str = ""
    notes: List[str] = field(default_factory=list)

    def to_text(self) -> str:
        widths = [len(str(h)) for h in self.headers]
        formatted_rows = []
        for row in self.rows:
            cells = [_fmt(cell) for cell in row]
            formatted_rows.append(cells)
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.paper_claim:
            lines.append(f"paper: {self.paper_claim}")
        lines.append(
            "  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for cells in formatted_rows:
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(cells, widths))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def column(self, header: str) -> List[object]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_map(self, key_header: Optional[str] = None) -> Dict[object, List[object]]:
        key_index = 0 if key_header is None else self.headers.index(key_header)
        return {row[key_index]: row for row in self.rows}


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


# ----------------------------------------------------------------------
# memoized simulation matrix
# ----------------------------------------------------------------------
_CACHE: Dict[Tuple, SimulationResult] = {}


def cached_run(
    scheme: str,
    workload: str,
    config: Optional[SystemConfig] = None,
    records: Optional[int] = None,
    seed: Optional[int] = None,
    utilization_snapshots: int = 0,
) -> SimulationResult:
    """Run (or reuse) one simulation of the experiment matrix."""
    if config is None:
        config = api.RunSpec(config_name=CONFIG).resolve_config()
    records = records if records is not None else RECORDS
    seed = seed if seed is not None else SEED
    key = (scheme, workload, records, seed, utilization_snapshots, repr(config))
    if key not in _CACHE:
        _CACHE[key] = api.run(
            api.RunSpec(
                scheme=scheme,
                workload=workload,
                records=records,
                seed=seed,
                config=config,
                utilization_snapshots=utilization_snapshots,
            )
        ).result
    return _CACHE[key]


def clear_cache() -> None:
    _CACHE.clear()


def geometric_mean(values: Sequence[float]) -> float:
    cleaned = [v for v in values if v > 0]
    if not cleaned:
        return 0.0
    product = 1.0
    for value in cleaned:
        product *= value
    return product ** (1.0 / len(cleaned))
