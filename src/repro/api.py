"""The single run facade: build a :class:`RunSpec`, get a :class:`RunResult`.

Every in-repo entry point — the CLI, the experiment harness, the sweep
engine, the benchmark harness, and the examples — constructs simulations
through this module instead of wiring components by hand.

Quickstart::

    from repro.api import RunSpec, ObsOptions, run

    out = run(RunSpec(scheme="IR-ORAM", workload="gcc", records=4000))
    print(out.cycles, out.result.breakdown.fractions())

    traced = run(RunSpec(
        scheme="Baseline", workload="mix",
        obs=ObsOptions(trace_out="trace.jsonl", metrics_out="metrics.json"),
    ))

Observability (``obs=``) never changes simulation results: traced runs are
cycle- and counter-bit-identical to untraced ones (see
:mod:`repro.obs.tracer`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from . import stats_keys as sk
from .config import SystemConfig, env_number
from .errors import ConfigError
from .obs import (
    CallbackSink,
    JsonlSink,
    MemorySink,
    TraceEvent,
    Tracer,
)
from .sim.results import SimulationResult
from .stats import Stats
from .traces.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sim.persistence import CampaignJournal

#: named platform configurations accepted by :attr:`RunSpec.config_name`
CONFIG_NAMES = ("scaled", "paper", "tiny")


@dataclass(frozen=True)
class ObsOptions:
    """What to observe during a run (all off by default).

    ``trace_out`` streams every event to a JSONL file; ``ring_size`` keeps
    the most recent events in memory (:meth:`RunResult.events`);
    ``callback`` receives every event live; ``progress_every`` emits a
    progress snapshot every N issued paths; ``metrics_out`` writes the
    final :class:`~repro.stats.Stats` registry as JSON.

    ``audit`` attaches the online
    :class:`~repro.validate.invariants.InvariantAuditor`, sweeping the
    protocol invariants every ``audit_every`` issued paths (0 = the
    auditor's default cadence).  The ``REPRO_AUDIT`` environment knob
    overrides both for every run in the process: unset, blank or ``0``
    leaves them alone, ``1`` audits at the default cadence, any larger
    integer at that cadence, and anything else is a ``ConfigError``.
    Audited runs stay cycle- and counter-bit-identical to unaudited
    ones; a violation raises :class:`~repro.errors.AuditError`.
    """

    trace_out: Optional[str] = None
    metrics_out: Optional[str] = None
    ring_size: int = 0
    progress_every: int = 0
    callback: Optional[Callable[[TraceEvent], None]] = None
    audit: bool = False
    audit_every: int = 0

    @property
    def tracing(self) -> bool:
        """Does this configuration need a live event tracer?"""
        return bool(
            self.trace_out
            or self.ring_size
            or self.progress_every
            or self.callback is not None
        )

    @property
    def enabled(self) -> bool:
        return self.tracing or self.metrics_out is not None


@dataclass(frozen=True)
class RunSpec:
    """One fully specified simulation.

    ``config`` wins when given; otherwise ``config_name`` (+ ``levels``
    for the scaled and tiny platforms; the paper platform refuses it)
    selects a named platform.  ``trace`` runs a pre-built
    :class:`~repro.traces.trace.Trace` instead of generating the named
    ``workload``.  Specs are frozen, comparable, and picklable (with
    the exception of ``obs.callback``), so they fan out across worker
    processes unchanged.
    """

    scheme: str = "Baseline"
    workload: str = "mix"
    records: int = 4000
    seed: int = 7
    config: Optional[SystemConfig] = None
    config_name: str = "scaled"
    levels: Optional[int] = None
    jobs: int = 1
    utilization_snapshots: int = 0
    trace: Optional[Trace] = None
    obs: ObsOptions = ObsOptions()

    def resolve_config(self) -> SystemConfig:
        """The platform this spec runs on."""
        if self.config is not None:
            return self.config
        if self.config_name == "scaled":
            if self.levels is not None:
                return SystemConfig.scaled(levels=self.levels)
            return SystemConfig.scaled()
        if self.config_name == "paper":
            if self.levels is not None:
                raise ConfigError(
                    "the paper platform is Table I's fixed 25-level tree; "
                    "levels applies to the scaled and tiny platforms"
                )
            return SystemConfig.paper()
        if self.config_name == "tiny":
            if self.levels is not None:
                return SystemConfig.tiny(levels=self.levels)
            return SystemConfig.tiny()
        raise ConfigError(
            f"unknown config name {self.config_name!r}; "
            f"options: {CONFIG_NAMES}"
        )

    def with_obs(self, obs: ObsOptions) -> "RunSpec":
        return replace(self, obs=obs)


@dataclass
class RunResult:
    """A finished run: the simulation result plus everything observed."""

    spec: RunSpec
    result: SimulationResult
    stats: Stats
    wall_s: float

    # -- convenience views -------------------------------------------------
    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def breakdown(self):
        return self.result.breakdown

    @property
    def counters(self) -> Dict[str, float]:
        return self.result.counters

    def events(self) -> List[TraceEvent]:
        """Events retained by the in-memory ring (``obs.ring_size``)."""
        tracer = self.stats.tracer
        return tracer.memory_events() if tracer is not None else []

    def metrics_json(self, indent: Optional[int] = None) -> str:
        return self.stats.to_json(indent=indent)

    def prometheus_text(self, prefix: str = "repro") -> str:
        return self.stats.to_prometheus_text(prefix=prefix)


def _audit_options(obs: ObsOptions):
    """Resolve the audit request: ``(enabled, cadence-or-None)``.

    ``REPRO_AUDIT`` wins over the spec so CI (and the warm-pool workers,
    which re-read the environment) can force auditing on without touching
    call sites: unset, blank or ``0`` defers to the spec, ``1`` enables
    at the default cadence, ``N > 1`` enables at cadence ``N``, and a
    malformed or negative value raises :class:`ConfigError`.
    """
    every = env_number("REPRO_AUDIT", 0)
    if every:
        return True, (every if every > 1 else None)
    return obs.audit, (obs.audit_every or None)


def _check_run_knobs() -> None:
    """Parse the knob every run reads (``REPRO_AUDIT``) before a fan-out
    starts a worker pool, so a malformed one raises :class:`ConfigError`
    here instead of failing in each worker, where the pool would retry it
    like a crash."""
    env_number("REPRO_AUDIT", 0)


def _build_tracer(obs: ObsOptions) -> Optional[Tracer]:
    if not obs.tracing:
        return None
    tracer = Tracer(progress_every=obs.progress_every)
    if obs.trace_out:
        tracer.add_sink(JsonlSink(obs.trace_out))
    if obs.ring_size:
        tracer.add_sink(MemorySink(capacity=obs.ring_size))
    if obs.callback is not None:
        tracer.add_sink(CallbackSink(obs.callback))
    return tracer


def _chain_slot_observer(controller, observe: Callable) -> None:
    """Append ``observe`` to the controller's slot-observer chain."""
    previous = controller.slot_observer
    if previous is None:
        controller.slot_observer = observe
    else:
        def chained(result, _previous=previous, _observe=observe):
            _previous(result)
            _observe(result)

        controller.slot_observer = chained


def run(
    spec: RunSpec,
    artifacts=None,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    checkpoint_limit: int = 0,
) -> RunResult:
    """Run one :class:`RunSpec` to completion.

    ``artifacts`` is an optional :class:`repro.perf.engine.ArtifactCache`
    supplying pre-built workload traces.  Everything it caches is a pure
    function of the config and seed, so injected runs are cycle- and
    counter-bit-identical to cold ones; the cache's hit/miss deltas are
    recorded into :attr:`RunResult.stats` under ``engine.*`` *after* the
    simulation result snapshots its counters, keeping ``result.counters``
    clean.

    ``checkpoint_every=N`` writes a resumable mid-run checkpoint to
    ``checkpoint_path`` every N issued paths (``checkpoint_limit`` bounds
    how many; each write replaces the last).  Checkpointing follows the
    same bit-identity contract as observability: a checkpointed run — and
    a run resumed from any of its checkpoints via :func:`resume_run` —
    produces exactly the cycles and counters of an uninterrupted one.
    """
    # Imported here: the scheme zoo and trace generators are heavy, and
    # several modules import repro.api at module load.
    from .core.schemes import build_scheme
    from .sim.runner import make_workload
    from .sim.simulator import Simulator

    start = time.perf_counter()
    config = spec.resolve_config()
    engine_before = dict(artifacts.counters) if artifacts is not None else {}
    if spec.trace is not None:
        trace = spec.trace
    elif artifacts is not None:
        trace = artifacts.trace_for(
            spec.workload, config, spec.records, spec.seed
        )
    else:
        trace = make_workload(spec.workload, config, spec.records, spec.seed)
    components = build_scheme(
        spec.scheme, config, Stats(), random.Random(spec.seed)
    )
    simulator = Simulator(components, trace)
    if checkpoint_every:
        from .sim.checkpoint import CheckpointManager

        if not checkpoint_path:
            raise ConfigError(
                "checkpoint_every requires a checkpoint_path to write to"
            )
        # The frozen spec drops obs: callbacks don't pickle, and a resumed
        # run attaches its own observability anyway.
        simulator.checkpointer = CheckpointManager(
            checkpoint_every,
            checkpoint_path,
            spec=spec.with_obs(ObsOptions()),
            limit=checkpoint_limit,
        )
    return _execute(spec, simulator, start, artifacts, engine_before)


def _execute(
    spec: RunSpec,
    simulator,
    start: float,
    artifacts=None,
    engine_before: Optional[Dict[str, int]] = None,
    resume: bool = False,
) -> RunResult:
    """The body :func:`run` and :func:`resume_run` share: attach the
    tracer, the auditor and the checkpoint observer, run (or resume) the
    simulator, then record the bookkeeping that must stay out of the
    result."""
    components = simulator.components
    stats = simulator.stats
    tracer = _build_tracer(spec.obs)
    stats.tracer = tracer
    audit, audit_every = _audit_options(spec.obs)
    auditor = None
    if audit:
        from .validate.invariants import attach_auditor

        auditor = attach_auditor(
            components,
            every=audit_every,
            check_rate=components.config.oram.timing_protection,
        )
    manager = simulator.checkpointer
    if manager is not None:
        # Observers are stripped on pickling, so a resumed run re-joins
        # the chain and keeps checkpointing where the original left off.
        _chain_slot_observer(components.controller, manager.observe)
    try:
        if resume:
            result = simulator.resume()
        else:
            result = simulator.run(
                utilization_snapshots=spec.utilization_snapshots
            )
        if auditor is not None:
            auditor.final_check(result)
    finally:
        if tracer is not None:
            tracer.close()
    if artifacts is not None:
        # Recorded after the Simulator snapshots result.counters, so the
        # engine's bookkeeping never leaks into simulation results.
        for key, value in artifacts.counters.items():
            delta = value - engine_before.get(key, 0)
            if delta:
                stats.set(key, delta)
    if manager is not None and manager.saves:
        # Same post-snapshot rule as the engine counters above.
        stats.set(sk.CHECKPOINT_SAVES, manager.saves)
    _record_batch_counters(components.controller, stats)
    if spec.obs.metrics_out:
        with open(spec.obs.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(stats.to_json(indent=1))
            handle.write("\n")
    return RunResult(spec, result, stats, time.perf_counter() - start)


def _record_batch_counters(controller, stats: Stats) -> None:
    """Surface ``engine.batch.*`` and ``engine.tier.*`` bookkeeping after
    the result snapshot.

    Batch execution stats describe *how* the run executed, never what it
    simulated, so — like the artifact-cache counters — they are recorded
    only after :class:`SimulationResult` has snapshotted ``counters``.
    """
    batch = getattr(controller, "batch_counters", None)
    if batch is None:
        return
    for key, value in batch.items():
        stats.set(key, value)
    for key, value in controller.tier_counters().items():
        stats.set(key, value)


def run_many(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    on_result: Optional[Callable[[int, RunResult], None]] = None,
) -> List[RunResult]:
    """Run independent specs, fanned out over worker processes.

    ``jobs`` defaults to the maximum ``spec.jobs`` across the batch.
    Results come back in input order and are bit-identical to a serial
    loop (each spec carries its own seed).  Specs with an
    ``obs.callback`` cannot cross process boundaries; run those serially.
    With ``jobs > 1`` in-memory ring events are dropped on the way back
    (tracers do not pickle); use ``trace_out`` files instead.

    Execution goes through the warm-pool engine
    (:mod:`repro.perf.engine`): workers persist across calls, workload
    traces are cached per process, and specs dispatch one at a time in
    input order, so no worker idles while specs remain.  ``on_result(i,
    result)`` runs here as spec ``i`` finishes, before the next result
    is awaited.
    """
    from .perf.engine import engine_map, run_spec_warm

    specs = list(specs)
    if jobs is None:
        jobs = max((spec.jobs for spec in specs), default=1)
    _check_run_knobs()
    return engine_map(run_spec_warm, specs, jobs=jobs, on_result=on_result)


def resume_run(
    checkpoint: str, obs: Optional[ObsOptions] = None
) -> RunResult:
    """Resume a run from a mid-stream checkpoint written by :func:`run`.

    The restored simulator continues from the exact inter-slot boundary
    the checkpoint froze and finishes with cycles and counters
    bit-identical to the uninterrupted run.  Observability is re-attached
    fresh (``obs`` overrides the checkpointed spec's options), and the
    run keeps checkpointing on its original cadence and path.
    """
    from .sim.checkpoint import load_checkpoint

    start = time.perf_counter()
    payload = load_checkpoint(checkpoint)
    spec = payload.spec if payload.spec is not None else RunSpec()
    if obs is not None:
        spec = spec.with_obs(obs)
    return _execute(spec, payload.sim, start, resume=True)


def campaign_key(spec: RunSpec) -> str:
    """Stable journal key identifying what a spec computes.

    Every input that changes the simulation result participates;
    observability and job-count knobs do not.  A pre-built ``trace`` has
    no key (its content is not the ``workload`` name), so a spec with one
    raises :class:`ConfigError`.
    """
    if spec.trace is not None:
        raise ConfigError(
            "a spec with a pre-built trace has no campaign key; "
            "name a workload instead"
        )
    config = spec.resolve_config()
    return "|".join((
        spec.scheme,
        spec.workload,
        str(spec.records),
        str(spec.seed),
        str(spec.utilization_snapshots),
        config.fingerprint(),
    ))


def run_campaign(
    specs: Sequence[RunSpec],
    journal: Union[str, "CampaignJournal"],
    jobs: int = 1,
) -> List[SimulationResult]:
    """Run a batch of specs with crash-resumable journaling.

    Each finished point is appended to ``journal`` (a path or a
    :class:`~repro.sim.persistence.CampaignJournal`) before the next one
    is awaited; re-running the same campaign after a crash skips every
    journaled point and simulates only the remainder.  Results return in
    input order regardless of how many came from the journal.
    """
    from .sim.persistence import CampaignJournal

    if not isinstance(journal, CampaignJournal):
        journal = CampaignJournal(journal)
    specs = list(specs)
    keys = [campaign_key(spec) for spec in specs]
    todo = [index for index, key in enumerate(keys) if not journal.done(key)]
    run_many(
        [specs[index] for index in todo], jobs=jobs,
        on_result=lambda n, out: journal.record(keys[todo[n]], out.result),
    )
    return [journal.get(key) for key in keys]


def summarize_trace(path: str) -> Dict[str, Any]:
    """Aggregate a JSONL trace file (``repro inspect``)."""
    from .obs.inspect import summarize_trace as _summarize

    return _summarize(path)


__all__ = [
    "CONFIG_NAMES",
    "ObsOptions",
    "RunSpec",
    "RunResult",
    "run",
    "resume_run",
    "run_many",
    "run_campaign",
    "campaign_key",
    "summarize_trace",
]
