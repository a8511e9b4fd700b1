"""Shared infrastructure for the experiment regenerators.

Results are plain tables (:class:`ExperimentResult`) so the harness can
print them, benchmarks can assert on them, and EXPERIMENTS.md can embed
them.  Several figures slice one scheme x workload simulation matrix
(Fig. 2, 10, 12, 14 and 15 all run the Baseline), so each of those
regenerators is split in two: ``points(settings)`` lists the specs it
needs (:class:`Settings`), and ``table(results, settings)`` renders its
table from a mapping of :func:`repro.api.campaign_key` to result.  Its
``run(...)`` composes the two (:func:`runner`);
:func:`run_all.main` instead simulates the union of the selected
figures' points once.

The harness settings are plain arguments: ``repro experiments`` hands
its ``--records/--seed/--config/--workloads`` to :func:`run_all.main`,
which passes each regenerator the settings it takes.  A regenerator
called without them runs at the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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
# the simulation matrix
# ----------------------------------------------------------------------
#: simulation results keyed by :func:`repro.api.campaign_key`
Results = Mapping[str, SimulationResult]


@dataclass(frozen=True)
class Settings:
    """The settings a matrix regenerator runs at; ``None`` takes the
    harness default (:data:`CONFIG`, :data:`RECORDS`, :data:`SEED`, and
    the regenerator's own workload list).

    :meth:`point` builds the spec of one simulation; a regenerator's
    ``points`` lists them and its ``table`` looks each result up through
    :meth:`result` with the same arguments.
    """

    config: Optional[SystemConfig] = None
    records: Optional[int] = None
    workloads: Optional[Sequence[str]] = None
    seed: Optional[int] = None

    def platform(self) -> SystemConfig:
        if self.config is not None:
            return self.config
        return api.RunSpec(config_name=CONFIG).resolve_config()

    def workload_list(
        self, default: Sequence[str] = ALL_WORKLOADS
    ) -> Sequence[str]:
        return self.workloads if self.workloads is not None else default

    def point(
        self,
        scheme: str,
        workload: str,
        config: Optional[SystemConfig] = None,
        utilization_snapshots: int = 0,
    ) -> api.RunSpec:
        """One simulation; ``config`` overrides :meth:`platform`."""
        return api.RunSpec(
            scheme=scheme,
            workload=workload,
            records=self.records if self.records is not None else RECORDS,
            seed=self.seed if self.seed is not None else SEED,
            config=config if config is not None else self.platform(),
            utilization_snapshots=utilization_snapshots,
        )

    def grid(self, schemes: Sequence[str]) -> List[api.RunSpec]:
        """Every scheme in ``schemes`` on every workload."""
        return [
            self.point(scheme, workload)
            for workload in self.workload_list()
            for scheme in schemes
        ]

    def result(self, results: Results, *args, **kwargs) -> SimulationResult:
        """The result of ``self.point(*args, **kwargs)`` in ``results``."""
        return results[api.campaign_key(self.point(*args, **kwargs))]


def distinct(specs: Iterable[api.RunSpec]) -> Dict[str, api.RunSpec]:
    """``specs`` keyed by :func:`repro.api.campaign_key`, first seen first,
    so a point listed more than once is simulated once."""
    unique: Dict[str, api.RunSpec] = {}
    for spec in specs:
        unique.setdefault(api.campaign_key(spec), spec)
    return unique


def runner(
    points: Callable[..., List[api.RunSpec]],
    table: Callable[..., ExperimentResult],
) -> Callable[..., ExperimentResult]:
    """A matrix regenerator's ``run(config=None, records=None,
    workloads=None, seed=None, **extra)``: simulate each distinct point of
    ``points(settings, **extra)`` once, in this process, and render
    ``table(results, settings, **extra)``."""

    def run(config=None, records=None, workloads=None, seed=None, **extra):
        settings = Settings(config, records, workloads, seed)
        unique = distinct(points(settings, **extra))
        outs = api.run_many(list(unique.values()), jobs=1)
        results = {key: out.result for key, out in zip(unique, outs)}
        return table(results, settings, **extra)

    return run


def geometric_mean(values: Sequence[float]) -> float:
    cleaned = [v for v in values if v > 0]
    if not cleaned:
        return 0.0
    product = 1.0
    for value in cleaned:
        product *= value
    return product ** (1.0 / len(cleaned))
