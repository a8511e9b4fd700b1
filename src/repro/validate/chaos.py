"""Deterministic fault injection for the supervised execution engine.

The chaos harness proves the engine's fault-tolerance claims the same way
the oracle proves protocol conformance: by *construction*.  A
:class:`ChaosPlan` derives, from a seed, which task indices crash their
worker (``os._exit``), which hang past their deadline, and which cache
files get torn — then :func:`run_chaos` executes a full scheme-zoo sweep
under that plan and asserts the results are bit-identical to a plain
serial loop, that the supervision counters actually registered the
injected faults, and that a checkpointed-then-resumed run reproduces the
uninterrupted one exactly.

Faults fire **once**: each injection claims a marker file with
``O_CREAT | O_EXCL`` before firing, so the supervisor's re-dispatch of
the same task runs clean.  That mirrors the real failure model
(operational faults — an OOM-killed worker, a wedged NFS mount — don't
deterministically recur) and is what makes bit-identical recovery
possible at all.

The injections are seed-replayable: the same ``--seed`` crashes and
hangs the same task indices and tears the same cache files, so a chaos
failure in CI reproduces locally with one command (``repro validate
--chaos --seed N``).  The report's ``crash_indices``, ``hang_indices``,
``torn_files`` and ``quarantined`` replay exactly, and so do the
``engine.respawns`` and ``engine.timeouts`` counts.  ``engine.retries``
and the ``engine.retry`` entries of the report's ``events`` do not: a
crash charges a retry to every sibling in flight at that moment, and how
many are in flight depends on timing (6 or 7 at ``--seed 7``, for
instance).  The results themselves always equal the serial loop's.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..errors import AuditError
from ..perf import engine

#: wall seconds a hung worker sleeps; the supervisor's deadline kill is
#: what ends it, the sleep itself is just a backstop
HANG_SECONDS = 60.0

#: supervision forced during a chaos run (``engine_map`` keywords):
#: tiny-config points finish well under a second, so a 10 s deadline only
#: fires on injected hangs
SUPERVISION = {"timeout": 10.0, "retries": 3, "respawns": 10}


@dataclass(frozen=True)
class ChaosPlan:
    """Which task indices fault, derived deterministically from a seed."""

    seed: int
    crash_indices: Tuple[int, ...]
    hang_indices: Tuple[int, ...]
    marker_dir: str

    @staticmethod
    def make(
        n_items: int,
        seed: int,
        marker_dir: str,
        crashes: int = 2,
        hangs: int = 1,
    ) -> "ChaosPlan":
        rng = random.Random(seed)
        indices = list(range(n_items))
        rng.shuffle(indices)
        picked = indices[: min(crashes + hangs, n_items)]
        return ChaosPlan(
            seed=seed,
            crash_indices=tuple(sorted(picked[:crashes])),
            hang_indices=tuple(sorted(picked[crashes:crashes + hangs])),
            marker_dir=marker_dir,
        )

    def claim(self, kind: str, index: int) -> bool:
        """Atomically claim one injection; False if it already fired."""
        path = os.path.join(self.marker_dir, f"{kind}-{index}")
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            return False


class ChaosWorker:
    """Picklable worker over ``(index, spec)`` tasks with fault injection.

    On the first dispatch of a crash index the worker process dies with
    ``os._exit`` (no cleanup, no exception — exactly what the OOM killer
    does); on the first dispatch of a hang index it sleeps past every
    deadline.  Re-dispatches find the marker claimed and run the spec
    normally through the warm-cache path.
    """

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan

    def __call__(self, task: Tuple[int, object]):
        index, spec = task
        if index in self.plan.crash_indices and self.plan.claim("crash", index):
            os._exit(17)
        if index in self.plan.hang_indices and self.plan.claim("hang", index):
            time.sleep(HANG_SECONDS)
        return engine.run_spec_warm(spec)


def tear_cache_files(
    cache_dir: str, seed: int, fraction: float = 0.5
) -> List[str]:
    """Corrupt a deterministic sample of on-disk cache files in place.

    Pickled artifacts are truncated to half their length (a torn write).
    Returns the damaged paths.
    """
    rng = random.Random(seed)
    victims: List[str] = []
    candidates: List[str] = []
    for root, _dirs, files in os.walk(cache_dir):
        for name in sorted(files):
            if name.endswith(".pkl"):
                candidates.append(os.path.join(root, name))
    for path in candidates:
        if rng.random() < fraction:
            data = open(path, "rb").read()
            with open(path, "wb") as handle:
                handle.write(data[: max(1, len(data) // 2)])
            victims.append(path)
    return victims


@contextmanager
def _cache_dir(path: str) -> Iterator[None]:
    """Point the engine's disk cache (``REPRO_CACHE_DIR``) at ``path``;
    set in the environment so forked pool workers share it."""
    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = path
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved


def _chaos_specs(budget: str):
    from ..api import RunSpec
    from ..core.schemes import SCHEMES

    records = 150 if budget == "small" else 400
    return [
        RunSpec(
            scheme=scheme,
            workload="mix",
            records=records,
            seed=11,
            config_name="tiny",
        )
        for scheme in sorted(SCHEMES)
    ]


def run_chaos(
    budget: str = "small", jobs: int = 3, seed: int = 7
) -> Dict[str, object]:
    """Full chaos pass; raises :class:`~repro.errors.AuditError` on drift.

    Three legs, each injecting seed-replayable faults:

    1. **sweep under fire** — the scheme zoo runs through the supervised
       engine with injected worker crashes and a hang; every result must
       be bit-identical to the serial loop and the retry/respawn/timeout
       counters must have registered the faults;
    2. **checkpoint round trip** — one scheme runs checkpointed, then the
       checkpoint resumes and must reproduce the uninterrupted cycles and
       counters exactly;
    3. **torn caches** — a persisted Z-search outcome is corrupted in
       place; reading it back must quarantine it (``engine.cache.corrupt``),
       and the re-run search must return the same Z vector.
    """
    from .. import api

    specs = _chaos_specs(budget)
    report: Dict[str, object] = {
        "budget": budget,
        "seed": seed,
        "jobs": jobs,
        "points": len(specs),
    }
    events: List[Tuple[str, dict]] = []

    # Serial ground truth, engine-free.
    expected = [api.run(spec) for spec in specs]

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        markers = os.path.join(scratch, "markers")
        hang_markers = os.path.join(scratch, "hang-markers")
        cache_dir = os.path.join(scratch, "cache")
        os.makedirs(markers)
        os.makedirs(hang_markers)
        # Crashes and hangs inject in separate legs: a crash breaks the
        # whole pool, which re-dispatches a concurrently-hung sibling
        # before its deadline expires — masking the timeout path the hang
        # leg exists to exercise.
        plan = ChaosPlan.make(len(specs), seed, markers, crashes=2, hangs=0)
        hang_specs = specs[: min(4, len(specs))]
        hang_plan = ChaosPlan.make(
            len(hang_specs), seed + 1, hang_markers, crashes=0, hangs=1
        )
        report["crash_indices"] = list(plan.crash_indices)
        report["hang_indices"] = list(hang_plan.hang_indices)
        with _cache_dir(cache_dir):
            engine.reset()
            engine.set_event_hook(
                lambda kind, **data: events.append((kind, data))
            )
            try:
                before = engine.engine_counters()
                outs = engine.engine_map(
                    ChaosWorker(plan),
                    list(enumerate(specs)),
                    jobs=max(2, jobs),
                    **SUPERVISION,
                )
                counters = {
                    key: value - before.get(key, 0)
                    for key, value in engine.engine_counters().items()
                }
                _check_sweep(specs, expected, outs, plan, counters)

                before = engine.engine_counters()
                hung = engine.engine_map(
                    ChaosWorker(hang_plan),
                    list(enumerate(hang_specs)),
                    jobs=2,
                    **SUPERVISION,
                )
                hang_counters = {
                    key: value - before.get(key, 0)
                    for key, value in engine.engine_counters().items()
                }
                _check_sweep(
                    hang_specs,
                    expected[: len(hang_specs)],
                    hung,
                    hang_plan,
                    hang_counters,
                )
                for key, value in hang_counters.items():
                    counters[key] = counters.get(key, 0) + value
                report["counters"] = {
                    key: value
                    for key, value in sorted(counters.items())
                    if key.startswith("engine.")
                }

                # Leg 3: persist a Z-search outcome, tear it, and read it
                # back.
                engine.reset()
                probe_spec = specs[
                    plan.crash_indices[0] if plan.crash_indices else 0
                ]
                probe_config = probe_spec.resolve_config()
                searched = engine.cached_z_allocation(
                    probe_config, records=probe_spec.records, seed=seed
                )
                report["torn_files"] = len(
                    tear_cache_files(cache_dir, seed, fraction=1.0)
                )
                _require(
                    report["torn_files"] > 0,
                    "nothing persisted to tear; leg 3 proved nothing",
                )
                engine.reset()  # drop in-memory copies; force disk loads
                again = engine.cached_z_allocation(
                    probe_config, records=probe_spec.records, seed=seed
                )
                _require(
                    again.z_per_level == searched.z_per_level,
                    "post-tear Z-search drifted from the first search",
                )
                corrupt = engine.engine_counters().get(
                    "engine.cache.corrupt", 0
                )
                _require(
                    corrupt >= report["torn_files"],
                    "torn cache files were loaded without quarantine",
                )
                report["quarantined"] = corrupt
            finally:
                engine.set_event_hook(None)
                engine.reset()

        # Leg 2: checkpoint/resume round trip, outside the scratch cache.
        ckpt = os.path.join(scratch, "chaos.ckpt")
        spec = specs[0]
        api.run(spec, checkpoint_every=40, checkpoint_path=ckpt)
        resumed = api.resume_run(ckpt)
        _require(
            resumed.cycles == expected[0].cycles
            and resumed.result.counters == expected[0].result.counters,
            "checkpoint resume drifted from the uninterrupted run",
        )
        report["resume_cycles"] = resumed.cycles

    report["events"] = [kind for kind, _data in events]
    return report


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AuditError(f"chaos: {message}")


def _check_sweep(specs, expected, outs, plan: ChaosPlan, counters) -> None:
    _require(len(outs) == len(specs), "sweep dropped results")
    for index, (want, got) in enumerate(zip(expected, outs)):
        _require(
            got.cycles == want.cycles
            and got.result.counters == want.result.counters,
            f"point {index} ({specs[index].scheme}) drifted under faults",
        )
    injected = len(plan.crash_indices) + len(plan.hang_indices)
    _require(
        counters.get("engine.retries", 0) >= injected,
        "injected faults did not register as retries",
    )
    if plan.crash_indices or plan.hang_indices:
        _require(
            counters.get("engine.respawns", 0) >= 1,
            "worker crash/hang did not force a pool respawn",
        )
    if plan.hang_indices:
        _require(
            counters.get("engine.timeouts", 0) >= len(plan.hang_indices),
            "injected hang did not register as a timeout",
        )
