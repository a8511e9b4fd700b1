"""Workloads, measurement loop and output check of the simulator benchmark.

Every repetition is one cold ``repro.api.run(RunSpec(...))`` call with
``jobs=1``, no warm pool and no artifact cache, in the calling process.
The ``repro`` package must be importable before this module is used.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_FILE = HERE / "expected_digests.json"

#: ``--seed`` selects one of this many input seeds, each with a recorded
#: expected output digest, so every run's output can be checked exactly.
INPUT_SEEDS = 16
#: the traced layer table must account for all but this share of ``wall_s``
CLOSURE_TOLERANCE = 0.05
#: untraced repetitions a measuring run makes even past its time budget
MIN_REPS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scheme on a trace at a tree depth."""

    name: str
    scheme: str
    trace: str
    levels: int
    records: int

    def spec(self, seed: int):
        from repro.api import RunSpec

        return RunSpec(
            scheme=self.scheme,
            workload=self.trace,
            records=self.records,
            seed=seed % INPUT_SEEDS,
            levels=self.levels,
            jobs=1,
        )

    def identity(self) -> Dict[str, object]:
        """The fields an expected digest depends on."""
        return {
            "scheme": self.scheme,
            "trace": self.trace,
            "levels": self.levels,
            "records": self.records,
        }


#: Why these three, and the measured shares behind the choice: README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("real-random", "IR-ORAM", "random", 16, 4000),
        Workload("sparse-xal", "Baseline", "xal", 16, 20000),
        Workload("deep-writes", "Baseline", "lbm", 19, 5000),
    )
}

#: (name, unit) of every metric a ``--trace 0`` run reports
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("paths_per_s", "paths/s"),
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
)

#: (name, unit) of every metric a ``--trace 1`` run reports
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((metric, "s") for metric, _, _ in layers.LAYERS),
    (layers.SIM_ROOT_METRIC, "s"),
    *((metric, "count") for metric, _ in layers.CALL_METRICS),
    ("cache.llc.hit_ratio", "ratio"),
    ("oram.stash.peak", "blocks"),
    ("oram.plb.hit_ratio", "ratio"),
    ("mem.dram.row_hit_ratio", "ratio"),
    ("core.ir_stash.place_ratio", "ratio"),
    ("perf.batch.paths", "count"),
    ("perf.batch.share", "ratio"),
    ("paths.data", "count"),
    ("paths.pos1", "count"),
    ("paths.pos2", "count"),
    ("paths.dummy", "count"),
    ("paths.eviction", "count"),
    ("paths.dwb", "count"),
    ("requests.read", "count"),
    ("requests.wb", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
)

#: per-layer metric -> path type whose count it reports
_PATH_METRICS = {
    "paths.data": "PTd",
    "paths.pos1": "PTp.pos1",
    "paths.pos2": "PTp.pos2",
    "paths.dummy": "PTm",
    "paths.eviction": "evict",
    "paths.dwb": "dwb",
}


def prepare() -> Dict[str, object]:
    """Load the native kernel and the simulator modules before any timing.

    The kernel compiles on first use; loading it here keeps that one-time
    cost, and the lazy imports inside ``repro.api.run``, out of ``setup_s``.
    Returns the facts recorded with every result.
    """
    from repro.perf import native
    import repro.api  # noqa: F401
    import repro.core.schemes  # noqa: F401
    import repro.sim.runner  # noqa: F401
    import repro.sim.simulator  # noqa: F401

    return {
        "native": native.available(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest(result) -> str:
    """sha256 over cycles, instructions, path counts and counters."""
    payload = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "path_counts": result.path_counts,
        "counters": result.counters,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expected_digest(workload: Workload, seed: int) -> Optional[str]:
    """The recorded digest for this workload and seed, if it is current."""
    try:
        table = json.loads(DIGESTS_FILE.read_text())
    except FileNotFoundError:
        return None
    entry = table.get(workload.name)
    if entry is None or entry["workload"] != workload.identity():
        return None
    return entry["digests"][seed % INPUT_SEEDS]


def record_digests() -> None:
    """Run every workload once per input seed and write the digest table."""
    from repro.api import run

    table = {}
    for workload in WORKLOADS.values():
        digests = []
        for seed in range(INPUT_SEEDS):
            _clear_caches()
            digests.append(digest(run(workload.spec(seed)).result))
        table[workload.name] = {
            "workload": workload.identity(),
            "digests": digests,
        }
    DIGESTS_FILE.write_text(json.dumps(table, indent=1) + "\n")


def _clear_caches() -> None:
    """Empty the simulator's process-wide memo caches (cold repetitions)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in list(vars(module).values()):
            if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                value.cache_clear()


@dataclass
class Rep:
    """One ``repro.api.run`` call and what was measured around it."""

    traced: bool
    wall_s: float
    setup_s: float
    sim_s: float
    digest: str
    cycles: int
    paths: float
    layer: Dict[str, float] = field(default_factory=dict)
    #: mean of the reference-kernel times just before and just after
    ref_s: float = hostspeed.REFERENCE_S

    @property
    def slowdown(self) -> float:
        """How much slower than the reference host this repetition ran."""
        return self.ref_s / hostspeed.REFERENCE_S


def run_once(spec, traced: bool) -> Rep:
    """One cold repetition, traced or not."""
    from repro.api import run

    _clear_caches()
    gc.collect()
    with layers.instrument(traced) as probe:
        start = time.perf_counter_ns()
        out = run(spec)
        end = time.perf_counter_ns()
    result = out.result
    rep = Rep(
        traced=traced,
        wall_s=(end - start) / 1e9,
        setup_s=(probe.sim_start_ns - start) / 1e9,
        sim_s=(probe.sim_end_ns - probe.sim_start_ns) / 1e9,
        digest=digest(result),
        cycles=result.cycles,
        paths=result.total_paths(),
    )
    if traced:
        rep.layer = _layer_metrics(rep, probe, out)
    return rep


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_metrics(rep: Rep, probe: layers.Probe, out) -> Dict[str, float]:
    counters = out.result.counters
    paths = out.result.path_counts
    metrics: Dict[str, float] = dict(probe.layer_s)
    metrics.update(probe.calls)
    get = counters.get
    metrics["cache.llc.hit_ratio"] = _ratio(
        get("llc.hits", 0), get("llc.hits", 0) + get("llc.misses", 0)
    )
    metrics["oram.stash.peak"] = probe.stash_peak
    # Translations that found the whole PosMap chain on chip, out of all
    # translation attempts (each miss costs one PosMap fetch path).
    translated = get("translation.completed", 0)
    metrics["oram.plb.hit_ratio"] = _ratio(
        translated, translated + get("plb.miss_fetches", 0)
    )
    metrics["mem.dram.row_hit_ratio"] = _ratio(
        get("dram.row_hits", 0), get("dram.accesses", 0)
    )
    placed = get("sstash.placed", 0)
    metrics["core.ir_stash.place_ratio"] = _ratio(
        placed, placed + get("sstash.placement_skips", 0)
    )
    batched = out.stats.counters.get("engine.batch.paths", 0)
    metrics["perf.batch.paths"] = batched
    metrics["perf.batch.share"] = _ratio(batched, paths.get("PTm", 0))
    for metric, path_type in _PATH_METRICS.items():
        metrics[metric] = paths.get(path_type, 0)
    metrics["requests.read"] = get("requests.read", 0)
    metrics["requests.wb"] = get("requests.wb", 0)
    metrics["trace.unattributed_share"] = _ratio(
        rep.wall_s - sum(probe.layer_s.values()), rep.wall_s
    )
    return metrics


@dataclass
class Report:
    """The outcome of one measuring run."""

    attempted: int = 0
    failed: int = 0
    reps: List[Rep] = field(default_factory=list)
    #: metric -> (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def as_json(self) -> Dict[str, object]:
        return {
            "correct": self.attempted > 0 and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _problems(rep: Rep, expected: Optional[str]) -> List[str]:
    problems = []
    if expected is not None and rep.digest != expected:
        problems.append(f"digest {rep.digest[:12]} != expected {expected[:12]}")
    if rep.traced:
        share = rep.layer["trace.unattributed_share"]
        if abs(share) > CLOSURE_TOLERANCE:
            problems.append(
                f"layer table leaves {share:.1%} of traced wall_s unattributed"
            )
    return problems


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    expected: Optional[str] = None,
) -> Report:
    """Repeat the workload for about ``seconds`` and summarize.

    Untraced, repetitions continue while the next one (predicted from the
    last) still fits the budget, with at least :data:`MIN_REPS`, and the
    reference kernel runs before the first repetition and after each one.
    Traced, untraced and traced repetitions alternate, at least one of
    each.  A repetition fails when it raises, when its digest differs from
    ``expected`` (or, with no expected digest, from the first repetition's),
    or when its traced layer table does not close.
    """
    spec = workload.spec(seed)
    kinds = (False, True) if traced else (False,)
    minimum = 1 if traced else MIN_REPS
    report = Report()
    tried = {kind: 0 for kind in kinds}
    last = {kind: 0.0 for kind in kinds}
    start = time.perf_counter()
    kernel_before = None if traced else hostspeed.kernel_s()
    for index in itertools.count():
        kind = kinds[index % len(kinds)]
        elapsed = time.perf_counter() - start
        if tried[kind] >= minimum and elapsed + last[kind] > seconds:
            break
        tried[kind] += 1
        report.attempted += 1
        began = time.perf_counter()
        try:
            rep = run_once(spec, kind)
        except Exception:
            report.failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            if kernel_before is not None:
                kernel_after = hostspeed.kernel_s()
                rep.ref_s = (kernel_before + kernel_after) / 2
                kernel_before = kernel_after
            if expected is None:
                expected = rep.digest
            problems = _problems(rep, expected)
            if problems:
                report.failed += 1
                print(f"perfbench: {workload.name}: " + "; ".join(problems),
                      file=sys.stderr)
            else:
                report.reps.append(rep)
        last[kind] = time.perf_counter() - began
    _summarize(report, traced)
    return report


def _median(values) -> float:
    return statistics.median(list(values))


def _summarize(report: Report, traced: bool) -> None:
    untraced = [rep for rep in report.reps if not rep.traced]
    traced_reps = [rep for rep in report.reps if rep.traced]
    if not traced:
        if not untraced:
            return
        # Host times as they would read at the reference host speed.
        values = {
            "paths_per_s": _median(
                r.paths / r.sim_s * r.slowdown for r in untraced
            ),
            "setup_s": _median(r.setup_s / r.slowdown for r in untraced),
            "wall_s": _median(r.wall_s / r.slowdown for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            "sim_cycles": untraced[0].cycles,
        }
        report.metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        return
    if not (untraced and traced_reps):
        return
    values = {
        name: _median(r.layer[name] for r in traced_reps)
        for name in traced_reps[0].layer
    }
    values["trace.overhead"] = _median(r.wall_s for r in traced_reps) / _median(
        r.wall_s for r in untraced
    )
    report.metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
