"""Adversarial trace distinguisher: definitional security as a two-sample test.

The obliviousness checks in :mod:`repro.security` verify *marginal*
properties of one run (uniform leaves, fixed issue rate).  This module
plays the actual indistinguishability game: the adversary names two
access programs (:data:`repro.traces.ADVERSARY_PROGRAMS`), the harness
runs each arm across many derived seeds recording the full externally
observable trace — cleartext path addresses and issue times, via the
controller observer hook and
:class:`~repro.security.obliviousness.AccessRecorder` — and then asks a
two-sample statistical test whether the arms can be told apart.

Per-run histograms are extracted for each observable feature (leaf
buckets, leaf-rank concentration, inter-issue gaps, active-burst
lengths, per-path address counts, per-superlevel touch counts).  The
test statistic per feature is the total-variation distance between the
two arms' mean histograms; its p-value comes from a run-label
permutation test (exact enumeration when the label space is small,
seeded sampling otherwise), which is distribution-free and exact under
the null "both arms draw traces from the same distribution".  Holm
correction handles the multiple features, and a feature only *flags*
when both the corrected p-value clears ``alpha`` and the effect size
clears ``effect_floor`` — two independent gates, so neither sampling
noise nor a tiny-but-significant artifact produces a verdict alone.

Vacuity control: :data:`repro.security.mutants.MUTANTS` registers
deliberately leaky schemes the harness *must* flag (mutation testing the
test itself); :func:`run_suite` fails if any clean scheme flags or any
mutant slips through.  Everything derives from one base seed, so a
verdict is replayable bit-for-bit from its JSON artifact
(``repro validate --distinguish --replay FILE``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..core.schemes import SCHEMES, build_scheme
from ..oram.types import PathAccessRecord
from ..perf.engine import cache_root
from ..security.mutants import MUTANTS, build_mutant
from ..security.obliviousness import AccessRecorder
from ..sim.simulator import Simulator
from ..stats import Stats
from ..traces.adversarial import DEFAULT_PROGRAM_PAIR, build_program


def default_artifact_dir() -> str:
    """Where verdicts persist unless told otherwise:
    ``validate/distinguish`` under the cache root (``REPRO_CACHE_DIR``)."""
    return os.path.join(cache_root(), "validate", "distinguish")


#: Issue interval for the game, overriding the tiny preset's 250.  The
#: timing defense only closes the intensity channel when the interval
#: dominates worst-case path service (the paper's standing assumption
#: for T); at 250 the memory is the bottleneck, issue times track
#: data-dependent DRAM texture, and *every* scheme is distinguishable.
DISTINGUISH_INTERVAL = 1500

#: Feature extraction bucket counts.
LEAF_BUCKETS = 16
RANK_BUCKETS = 16
RANK_SAMPLE = 64
GAP_BUCKETS = 16
BURST_BUCKETS = 12
SIZE_BUCKETS = 16

#: Exact permutation enumeration cap: above this many distinct labelings
#: the test falls back to seeded sampling.
EXACT_LABELINGS_CAP = 1000

FEATURE_NAMES = (
    "leaf_hist",
    "leaf_rank",
    "gap_hist",
    "burst_hist",
    "size_hist",
    "level_touch",
)


@dataclass(frozen=True)
class DistinguishSpec:
    """One fully determined instance of the distinguishability game."""

    scheme: str
    program_a: str
    program_b: str
    seeds: int
    records: int
    permutations: int
    base_seed: int = 1
    alpha: float = 0.05
    effect_floor: float = 0.08

    def to_json(self) -> Dict:
        return {
            "scheme": self.scheme,
            "program_a": self.program_a,
            "program_b": self.program_b,
            "seeds": self.seeds,
            "records": self.records,
            "permutations": self.permutations,
            "base_seed": self.base_seed,
            "alpha": self.alpha,
            "effect_floor": self.effect_floor,
        }

    @staticmethod
    def from_json(data: Dict) -> "DistinguishSpec":
        return DistinguishSpec(**{
            key: data[key] for key in (
                "scheme", "program_a", "program_b", "seeds", "records",
                "permutations", "base_seed", "alpha", "effect_floor",
            )
        })


@dataclass
class FeatureVerdict:
    """Two-sample outcome for one observable feature."""

    name: str
    statistic: float
    p_value: float
    corrected_p: float
    flagged: bool


@dataclass
class DistinguisherReport:
    """Verdict of one game: can the two arms be told apart?"""

    spec: DistinguishSpec
    features: List[FeatureVerdict]
    paths_per_run: List[int] = field(default_factory=list)

    @property
    def distinguishable(self) -> bool:
        return any(feature.flagged for feature in self.features)

    def to_json(self) -> Dict:
        return {
            "spec": self.spec.to_json(),
            "distinguishable": self.distinguishable,
            "paths_per_run": self.paths_per_run,
            "features": [
                {
                    "name": f.name,
                    "statistic": f.statistic,
                    "p_value": f.p_value,
                    "corrected_p": f.corrected_p,
                    "flagged": f.flagged,
                }
                for f in self.features
            ],
        }


@dataclass(frozen=True)
class DistinguishBudget:
    """Seed/record/permutation sizes for one suite tier."""

    seeds: int
    records: int
    permutations: int


BUDGETS: Dict[str, DistinguishBudget] = {
    # 6 seeds/arm keeps the label space (C(12,6)=924) inside the exact-
    # enumeration cap: p-values are deterministic, with enough
    # resolution (2/924) to clear Holm's alpha/m strictest threshold.
    "small": DistinguishBudget(seeds=6, records=260, permutations=400),
    "full": DistinguishBudget(seeds=8, records=600, permutations=1500),
}


# ----------------------------------------------------------------------
# deterministic seed derivation (same scheme as the fuzzer: every run
# seed is a pure function of the base seed, so artifacts replay exactly)
# ----------------------------------------------------------------------
def derive_seed(base_seed: int, *labels) -> int:
    material = ":".join([str(base_seed)] + [str(label) for label in labels])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# trace capture and feature extraction
# ----------------------------------------------------------------------
def _build_components(scheme: str, config: SystemConfig, run_seed: int):
    stats = Stats()
    rng = random.Random(run_seed)
    if scheme in SCHEMES:
        return build_scheme(scheme, config, stats, rng)
    return build_mutant(scheme, config, stats, rng)


def capture_trace(
    scheme: str, program: str, records: int, run_seed: int
) -> Tuple[List[PathAccessRecord], object]:
    """One instrumented run: returns the recorded trace and components.

    The observer hook is the only instrumentation; it is the same
    attachment the bit-identity tests use, so a captured run's cycles
    and counters match an uncaptured run exactly.
    """
    config = SystemConfig.tiny(issue_interval=DISTINGUISH_INTERVAL)
    components = _build_components(scheme, config, run_seed)
    recorder = AccessRecorder()
    components.controller.observer = recorder
    trace = build_program(
        program, components.config, records,
        random.Random(derive_seed(run_seed, "trace")),
    )
    Simulator(components, trace).run()
    return recorder.records, components


def extract_features(
    records: Sequence[PathAccessRecord], components
) -> Dict[str, List[float]]:
    """Per-run histograms of everything the adversary observes.

    All features are functions of cleartext addresses and issue cycles
    only — never of :class:`PathType`, which an attacker outside the
    TCB cannot see.
    """
    oram = components.config.oram
    layout = components.controller.layout
    row_blocks = components.config.dram.row_blocks
    interval = oram.issue_interval

    leaf_hist = [0.0] * LEAF_BUCKETS
    size_hist = [0.0] * SIZE_BUCKETS
    level_touch = [0.0] * (len(layout.superlevel_row_base) + 1)

    for record in records:
        leaf_hist[min(LEAF_BUCKETS - 1,
                      record.leaf * LEAF_BUCKETS // oram.leaves)] += 1
        size_hist[min(SIZE_BUCKETS - 1, len(record.read_addresses) // 8)] += 1
        for address in record.read_addresses:
            row = address // row_blocks
            if row >= layout.total_rows:
                # Region beyond the main tree: Rho's small tree or the
                # Pyramid levels.
                level_touch[-1] += 1
            else:
                index = bisect_right(layout.superlevel_row_base, row) - 1
                level_touch[max(0, index)] += 1

    # Leaf-rank concentration: the top per-leaf counts, location-blind.
    # Catches remap bugs that concentrate mass on *some* leaves even
    # when the raw histogram stays balanced.  Concentration statistics
    # are sample-size dependent (the max of a multinomial grows with
    # n), so they are computed over a fixed-size systematic subsample —
    # otherwise two programs of different duration would "differ" on
    # trace length alone, which is observable under any ORAM and
    # deliberately outside the game.
    # The subsample is drawn with a fixed-seed RNG rather than a
    # systematic stride: a stride can alias with periodic structure in
    # the path stream (e.g. the eviction cadence) at a rate that depends
    # on the trace length, which would reintroduce the very
    # length-sensitivity the subsample exists to remove.
    leaf_rank = [0.0] * RANK_BUCKETS
    count = len(records)
    if count > RANK_SAMPLE:
        picks = random.Random(0xC0FFEE).sample(range(count), RANK_SAMPLE)
        sampled = [records[index].leaf for index in picks]
    else:
        sampled = [record.leaf for record in records]
    if sampled:
        sample_leaves: Counter = Counter(sampled)
        for index, (_, tally) in enumerate(
            sample_leaves.most_common(RANK_BUCKETS)
        ):
            leaf_rank[index] = float(tally)

    # Inter-issue gaps, log-bucketed by excess over the fixed interval:
    # bucket 0 is "exactly on the protected cadence", higher buckets are
    # exponentially longer stalls.
    gap_hist = [0.0] * GAP_BUCKETS
    times = [record.issue_cycle for record in records]
    gaps = [b - a for a, b in zip(times, times[1:])]
    for gap in gaps:
        excess = gap - interval
        if excess <= 0:
            gap_hist[0] += 1
        else:
            gap_hist[min(GAP_BUCKETS - 1, 1 + int(math.log2(excess)))] += 1

    # Burst lengths: runs of consecutive on-cadence issues that were
    # *terminated* by a long stall, log-bucketed by absolute length.  A
    # protected scheme never breaks cadence, so both arms produce the
    # all-zero histogram; an unprotected one issues in demand-shaped
    # bursts.  The final (censored) run is dropped — its length is just
    # the trace duration, which is observable under any ORAM and
    # deliberately outside the game.
    burst_hist = [0.0] * BURST_BUCKETS
    run_length = 0
    for gap in gaps:
        if gap <= 3 * interval // 2:
            run_length += 1
        else:
            burst_hist[_burst_bucket(run_length)] += 1
            run_length = 0

    return {
        "leaf_hist": leaf_hist,
        "leaf_rank": leaf_rank,
        "gap_hist": gap_hist,
        "burst_hist": burst_hist,
        "size_hist": size_hist,
        "level_touch": level_touch,
    }


def _burst_bucket(run_length: int) -> int:
    """Log-bucket a terminated on-cadence run by its absolute length.

    Terminated runs are geometric-ish (each gap independently breaks or
    extends the run), so their length distribution is length-invariant —
    a longer trace sees *more* runs, not longer ones.  Bucket 0 holds
    back-to-back stalls (run length zero).
    """
    return min(BURST_BUCKETS - 1, run_length.bit_length())


def _normalize(histogram: Sequence[float]) -> List[float]:
    total = sum(histogram)
    if total <= 0:
        return [0.0] * len(histogram)
    return [value / total for value in histogram]


def _mean(vectors: Sequence[Sequence[float]]) -> List[float]:
    count = len(vectors)
    return [
        sum(vector[i] for vector in vectors) / count
        for i in range(len(vectors[0]))
    ]


def _total_variation(p: Sequence[float], q: Sequence[float]) -> float:
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


# ----------------------------------------------------------------------
# the two-sample permutation test
# ----------------------------------------------------------------------
def _labeling_statistic(
    pooled: Sequence[Sequence[float]], arm_a: Sequence[int]
) -> float:
    group_a = [pooled[i] for i in arm_a]
    in_a = set(arm_a)
    group_b = [pooled[i] for i in range(len(pooled)) if i not in in_a]
    return _total_variation(_mean(group_a), _mean(group_b))


def permutation_p_value(
    pooled: Sequence[Sequence[float]],
    observed: float,
    permutations: int,
    seed: int,
) -> float:
    """P(two-sample TV >= observed) under run-label exchange.

    Exact over all labelings when feasible — a deterministic p-value
    with no sampling noise — else a seeded Monte Carlo estimate with
    the conventional +1 correction.
    """
    count = len(pooled)
    half = count // 2
    total = math.comb(count, half)
    tolerance = 1e-12
    if total <= EXACT_LABELINGS_CAP:
        hits = sum(
            1
            for labeling in itertools.combinations(range(count), half)
            if _labeling_statistic(pooled, labeling) >= observed - tolerance
        )
        return hits / total
    rng = random.Random(seed)
    indices = list(range(count))
    hits = 0
    for _ in range(permutations):
        rng.shuffle(indices)
        if _labeling_statistic(pooled, indices[:half]) >= observed - tolerance:
            hits += 1
    return (1 + hits) / (permutations + 1)


def _holm_correct(p_values: Sequence[float]) -> List[float]:
    """Holm step-down adjusted p-values (monotone, clamped to 1)."""
    count = len(p_values)
    order = sorted(range(count), key=lambda i: p_values[i])
    corrected = [0.0] * count
    running = 0.0
    for rank, index in enumerate(order):
        adjusted = min(1.0, (count - rank) * p_values[index])
        running = max(running, adjusted)
        corrected[index] = running
    return corrected


# ----------------------------------------------------------------------
# the game
# ----------------------------------------------------------------------
def run_game(
    spec: DistinguishSpec,
    progress: Optional[Callable[[str], None]] = None,
) -> DistinguisherReport:
    """Play one distinguishability game and return the verdict."""
    # Trace *length* is outside the game: a program's duration is
    # observable even under a perfect ORAM (the machine either halts or
    # issues dummies forever), so every feature is a length-invariant
    # shape — normalized histograms, fixed-size subsamples for
    # concentration, terminated-run burst buckets — never a raw count.
    arm_features: Dict[str, List[Dict[str, List[float]]]] = {"a": [], "b": []}
    paths_per_run: List[int] = []
    for arm, program in (("a", spec.program_a), ("b", spec.program_b)):
        for index in range(spec.seeds):
            run_seed = derive_seed(spec.base_seed, spec.scheme, arm, index)
            records, components = capture_trace(
                spec.scheme, program, spec.records, run_seed
            )
            paths_per_run.append(len(records))
            arm_features[arm].append(extract_features(records, components))
            if progress is not None:
                progress(
                    f"  {spec.scheme}: arm {arm} ({program}) "
                    f"run {index + 1}/{spec.seeds}: {len(records)} paths"
                )

    verdicts: List[FeatureVerdict] = []
    raw_p: List[float] = []
    statistics: List[float] = []
    for feature_index, name in enumerate(FEATURE_NAMES):
        runs_a = [_normalize(run[name]) for run in arm_features["a"]]
        runs_b = [_normalize(run[name]) for run in arm_features["b"]]
        observed = _total_variation(_mean(runs_a), _mean(runs_b))
        p_value = permutation_p_value(
            runs_a + runs_b,
            observed,
            spec.permutations,
            derive_seed(spec.base_seed, spec.scheme, "perm", feature_index),
        )
        statistics.append(observed)
        raw_p.append(p_value)

    corrected = _holm_correct(raw_p)
    for name, statistic, p_value, corrected_p in zip(
        FEATURE_NAMES, statistics, raw_p, corrected
    ):
        verdicts.append(
            FeatureVerdict(
                name=name,
                statistic=statistic,
                p_value=p_value,
                corrected_p=corrected_p,
                flagged=(
                    corrected_p <= spec.alpha
                    and statistic >= spec.effect_floor
                ),
            )
        )
    return DistinguisherReport(
        spec=spec, features=verdicts, paths_per_run=paths_per_run
    )


# ----------------------------------------------------------------------
# the suite: clean schemes must pass, every mutant must flag
# ----------------------------------------------------------------------
@dataclass
class SuiteReport:
    """Aggregate verdict across clean schemes and leaky mutants."""

    reports: Dict[str, DistinguisherReport]
    clean_failures: List[str]
    mutant_escapes: List[str]
    artifact_paths: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.clean_failures and not self.mutant_escapes


def _spec_for(
    name: str, pair: Tuple[str, str], budget: DistinguishBudget, base_seed: int
) -> DistinguishSpec:
    return DistinguishSpec(
        scheme=name,
        program_a=pair[0],
        program_b=pair[1],
        seeds=budget.seeds,
        records=budget.records,
        permutations=budget.permutations,
        base_seed=base_seed,
    )


def save_report(report: DistinguisherReport, artifact_dir: str) -> str:
    os.makedirs(artifact_dir, exist_ok=True)
    spec = report.spec
    slug = spec.scheme.replace("/", "_").replace(" ", "_")
    path = os.path.join(
        artifact_dir, f"distinguish-{slug}-seed{spec.base_seed}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def replay(path: str) -> Tuple[DistinguisherReport, List[str]]:
    """Re-run a persisted game and diff the verdict against the artifact.

    Returns the fresh report and a list of mismatch descriptions (empty
    when the artifact reproduces bit-for-bit — the expected case, since
    every run seed derives from the recorded base seed).
    """
    with open(path, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    spec = DistinguishSpec.from_json(recorded["spec"])
    report = run_game(spec)
    mismatches: List[str] = []
    if report.distinguishable != recorded["distinguishable"]:
        mismatches.append(
            f"verdict: got {report.distinguishable}, "
            f"recorded {recorded['distinguishable']}"
        )
    recorded_features = {f["name"]: f for f in recorded["features"]}
    for feature in report.features:
        old = recorded_features.get(feature.name)
        if old is None:
            mismatches.append(f"{feature.name}: missing from artifact")
            continue
        if abs(feature.statistic - old["statistic"]) > 1e-12 or \
                abs(feature.p_value - old["p_value"]) > 1e-12:
            mismatches.append(
                f"{feature.name}: stat/p {feature.statistic:.6g}/"
                f"{feature.p_value:.6g} vs recorded "
                f"{old['statistic']:.6g}/{old['p_value']:.6g}"
            )
    return report, mismatches


def run_suite(
    budget: str = "small",
    schemes: Optional[Sequence[str]] = None,
    mutants: Optional[Sequence[str]] = None,
    base_seed: int = 1,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SuiteReport:
    """Clean schemes must be indistinguishable; every mutant must flag.

    Every verdict persists under ``artifact_dir``, by default
    :func:`default_artifact_dir`.
    """
    if artifact_dir is None:
        artifact_dir = default_artifact_dir()
    sizes = BUDGETS[budget]
    scheme_names = sorted(SCHEMES) if schemes is None else list(schemes)
    mutant_names = sorted(MUTANTS) if mutants is None else list(mutants)

    reports: Dict[str, DistinguisherReport] = {}
    artifact_paths: Dict[str, str] = {}
    clean_failures: List[str] = []
    mutant_escapes: List[str] = []

    for name in scheme_names:
        report = run_game(
            _spec_for(name, DEFAULT_PROGRAM_PAIR, sizes, base_seed), progress
        )
        reports[name] = report
        artifact_paths[name] = save_report(report, artifact_dir)
        if report.distinguishable:
            clean_failures.append(name)
        if progress is not None:
            verdict = "DISTINGUISHABLE" if report.distinguishable else "clean"
            progress(f"scheme {name}: {verdict}")

    for name in mutant_names:
        mutant = MUTANTS[name]
        report = run_game(
            _spec_for(name, mutant.programs, sizes, base_seed), progress
        )
        reports[name] = report
        artifact_paths[name] = save_report(report, artifact_dir)
        if not report.distinguishable:
            mutant_escapes.append(name)
        if progress is not None:
            verdict = "flagged" if report.distinguishable else "ESCAPED"
            progress(f"mutant {name} (leaks via {mutant.leaks_via}): {verdict}")

    return SuiteReport(
        reports=reports,
        clean_failures=clean_failures,
        mutant_escapes=mutant_escapes,
        artifact_paths=artifact_paths,
    )
