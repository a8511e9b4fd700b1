"""Design-space sweeps over the platform's knobs.

DESIGN.md calls out several design choices whose sensitivity is worth
measuring beyond the paper's own figures: the issue interval T, the number
of cached top levels, the PLB size, the stash eviction threshold, and the
S-Stash associativity.  :func:`sweep_parameter` runs any of them over a
value list and reports cycles, path counts, and the mechanism counters
that explain the trend.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..api import RunSpec, run_many
from ..config import SystemConfig
from ..errors import ConfigError
from ..perf.engine import get_priors
from ..sim.results import SimulationResult

#: knob name -> function(config, value) -> new config
KNOBS: Dict[str, Callable[[SystemConfig, Any], SystemConfig]] = {
    "issue_interval": lambda c, v: c.with_oram(
        replace(c.oram, issue_interval=v)
    ),
    "top_cached_levels": lambda c, v: c.with_oram(
        replace(c.oram, top_cached_levels=v)
    ),
    "plb_sets": lambda c, v: c.with_oram(replace(c.oram, plb_sets=v)),
    "stash_capacity": lambda c, v: c.with_oram(
        replace(c.oram, stash_capacity=v, eviction_threshold=(v * 3) // 4)
    ),
    "eviction_threshold": lambda c, v: c.with_oram(
        replace(c.oram, eviction_threshold=v)
    ),
}


@dataclass
class SweepPoint:
    value: Any
    result: SimulationResult

    @property
    def cycles(self) -> int:
        return self.result.cycles


@dataclass
class SweepResult:
    """Results of one parameter sweep on one scheme+workload."""

    parameter: str
    scheme: str
    workload: str
    points: List[SweepPoint] = field(default_factory=list)

    def speedups(self) -> List[float]:
        """Speedup of each point relative to the first."""
        if not self.points:
            return []
        base = self.points[0].cycles
        return [base / max(point.cycles, 1) for point in self.points]

    def best(self) -> SweepPoint:
        return min(self.points, key=lambda point: point.cycles)

    def table(self) -> List[List[Any]]:
        rows = []
        for point, speedup in zip(self.points, self.speedups()):
            result = point.result
            rows.append(
                [
                    point.value,
                    result.cycles,
                    round(speedup, 3),
                    int(result.total_paths()),
                    int(result.posmap_paths()),
                    round(result.dummy_fraction(), 3),
                    int(result.background_evictions()),
                ]
            )
        return rows

    HEADERS = [
        "value",
        "cycles",
        "speedup",
        "paths",
        "posmap paths",
        "dummy frac",
        "evictions",
    ]


def sweep_parameter(
    parameter: str,
    values: Sequence[Any],
    scheme: str = "Baseline",
    workload: str = "mix",
    config: Optional[SystemConfig] = None,
    records: int = 3000,
    seed: int = 7,
    jobs: int = 1,
) -> SweepResult:
    """Run ``scheme`` on ``workload`` across every value of one knob.

    With ``jobs > 1`` the points fan out over worker processes through
    :func:`repro.api.run_many` (each point is an independent simulation);
    results are identical to the serial run and stay in ``values`` order.
    Each point's wall time updates the ``points`` priors, so the next
    sweep dispatches its stragglers first.
    """
    if parameter not in KNOBS:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; options: {sorted(KNOBS)}"
        )
    base = config if config is not None else SystemConfig.scaled()
    sweep = SweepResult(parameter=parameter, scheme=scheme, workload=workload)
    specs = [
        RunSpec(
            scheme=scheme,
            workload=workload,
            records=records,
            seed=seed,
            config=KNOBS[parameter](base, value),
        )
        for value in values
    ]
    priors = get_priors()
    for value, out in zip(values, run_many(specs, jobs=jobs)):
        priors.observe_point(scheme, workload, records, out.wall_s)
        sweep.points.append(SweepPoint(value=value, result=out.result))
    priors.save()
    return sweep
