"""Persistent warm-pool execution engine with per-process artifact caching.

Independent simulation points (:class:`repro.api.RunSpec`) fan out over
worker processes through :func:`repro.api.run_many`, which rests on three
cooperating pieces:

* **Warm pool** — one long-lived :class:`~concurrent.futures.\
  ProcessPoolExecutor` per process, created on first use with an
  initializer that imports the scheme zoo, and reused by every subsequent
  ``run_many``/``sweep_parameter``/``experiments`` call.  The pool is
  recreated only when a caller asks for more workers than it has or when
  a ``REPRO_*`` environment variable changes (forked workers snapshot the
  environment).

* **Artifact cache** — a per-process, in-memory :class:`ArtifactCache`
  holding the generated workload traces.  Everything cached is a pure
  function of the config and trace seed, so injection never changes
  simulation results — the equivalence tests in ``tests/test_engine.py``
  assert bit-identical cycles and counters against the serial loop.
  Z-search outcomes persist under ``.repro_cache/`` (see
  :func:`cache_root`), keyed by a salt over every source file of the
  package, so code changes invalidate stale entries automatically.

* **Individual dispatch** — items are submitted one at a time with at
  most ``jobs`` in flight, so a straggler never strands pre-chunked work
  on an idle worker.  A caller may pass a ``cost`` estimator to dispatch
  longest-expected-first; ``repro experiments`` does, from the figure
  wall times recorded by previous runs (``priors.json``).  Results still
  return in input order, so callers are deterministic for every
  ``--jobs`` value.

Cache-hit counters surface through the normal stats/obs layer under the
``engine.*`` namespace, recorded per run after the simulation result is
snapshotted, so simulation counters stay bit-identical.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .. import stats_keys as sk
from ..config import ORAMConfig, SystemConfig
from ..errors import EngineFaultError
from ..obs import events as ev

T = TypeVar("T")
R = TypeVar("R")


#: schema version of the on-disk cache; bump on layout changes
CACHE_SCHEMA = 1

#: EWMA weight of the newest wall-time observation in the priors store
PRIOR_ALPHA = 0.5


# ----------------------------------------------------------------------
# cache location + code salt
# ----------------------------------------------------------------------
def cache_root() -> str:
    """Directory of the on-disk artifact cache.

    ``REPRO_CACHE_DIR`` overrides; the default is ``.repro_cache`` under
    the current working directory (shared by parent and forked workers).
    """
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.getcwd(), ".repro_cache"
    )


def disk_cache_enabled() -> bool:
    """On-disk persistence can be disabled with ``REPRO_DISK_CACHE=0``."""
    return os.environ.get("REPRO_DISK_CACHE", "1") != "0"


def _quarantine(path: str) -> None:
    """Move a corrupt cache file aside (``<name>.corrupt``) for post-mortem.

    Renaming rather than deleting keeps the evidence while guaranteeing
    the bad bytes are never loaded again; failures here are best-effort
    (another process may have already quarantined or replaced the file).
    """
    try:
        os.replace(path, f"{path}.corrupt")
    except OSError:
        pass


def _code_salt(root: str) -> str:
    """Digest over every ``*.py`` and ``*.c`` source under ``root``.

    A Z-search runs whole simulations, so any source of the package can
    change its outcome; salting over all of them (in sorted relative-path
    order) means no edit can ever get a stale entry back.
    """
    sources = []
    for folder, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith((".py", ".c")):
                path = os.path.join(folder, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                sources.append((rel, path))
    digest = hashlib.sha256(str(CACHE_SCHEMA).encode())
    for rel, path in sorted(sources):
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()[:16]


_SALT: Optional[str] = None


def code_salt() -> str:
    """The salt over this package's sources (computed once per process)."""
    global _SALT
    if _SALT is None:
        _SALT = _code_salt(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    return _SALT


# ----------------------------------------------------------------------
# the per-process artifact cache
# ----------------------------------------------------------------------
class ArtifactCache:
    """Config-derived artifacts shared across runs in a process.

    Traces live in memory only; Z-search outcomes go to disk.  All values
    are pure functions of their keys, so sharing them between runs (or
    loading a Z vector from disk) cannot change simulation behaviour.
    Counters use the ``engine.*`` keys from :mod:`repro.stats_keys`.
    """

    def __init__(self, disk_dir: Optional[str] = None) -> None:
        self.disk_dir = disk_dir if disk_dir is not None else cache_root()
        self.counters: Dict[str, int] = {}
        self._traces: Dict[Tuple, Any] = {}

    # -- counters ----------------------------------------------------------
    def _bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- disk helpers ------------------------------------------------------
    def _disk_path(self, kind: str, key: str) -> str:
        return os.path.join(self.disk_dir, kind, f"{key}.pkl")

    def _disk_load(self, kind: str, key: str) -> Optional[Any]:
        if not disk_cache_enabled():
            return None
        path = self._disk_path(kind, key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # A torn or corrupt entry (killed writer, bad disk) must not
            # be silently retried forever: quarantine it aside so the next
            # store rebuilds it, and surface the event as a counter.
            _quarantine(path)
            self._bump(sk.ENGINE_CACHE_CORRUPT)
            _bump_local(sk.ENGINE_CACHE_CORRUPT)
            return None

    def _disk_store(self, kind: str, key: str, value: Any) -> None:
        if not disk_cache_enabled():
            return
        path = self._disk_path(kind, key)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- workload traces ---------------------------------------------------
    def trace_for(
        self, name: str, config: SystemConfig, records: int, seed: int
    ):
        """The (deterministic) workload trace for one simulation point."""
        from ..sim.runner import make_workload

        key = (
            name,
            records,
            seed,
            config.oram.user_blocks,
            config.llc.lines,
        )
        trace = self._traces.get(key)
        if trace is None:
            self._bump(sk.ENGINE_TRACE_MISSES)
            trace = make_workload(name, config, records, seed)
            self._traces[key] = trace
        else:
            self._bump(sk.ENGINE_TRACE_HITS)
        return trace

    # -- Z-search outcomes -------------------------------------------------
    def zsearch_get(self, digest: str) -> Optional[List[int]]:
        loaded = self._disk_load("zsearch", digest)
        if isinstance(loaded, list) and all(
            isinstance(z, int) for z in loaded
        ):
            self._bump(sk.ENGINE_ZSEARCH_HITS)
            return loaded
        self._bump(sk.ENGINE_ZSEARCH_MISSES)
        return None

    def zsearch_put(self, digest: str, z_vector: Sequence[int]) -> None:
        self._disk_store("zsearch", digest, [int(z) for z in z_vector])


_CACHE: Optional[ArtifactCache] = None


def get_cache() -> ArtifactCache:
    """The process-wide artifact cache (created lazily)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = ArtifactCache()
    return _CACHE


# ----------------------------------------------------------------------
# wall-time priors (``repro experiments`` dispatch order)
# ----------------------------------------------------------------------
class PriorStore:
    """EWMA wall seconds per experiment, persisted as ``priors.json``.

    ``repro experiments`` reads them to dispatch its slowest figures
    first and records each regeneration's wall time afterwards.  Priors
    only influence dispatch *order*, never results, so a missing, stale,
    or corrupt store degrades to input-order dispatch.  The file keeps
    its ``{"experiments": {name: seconds}}`` layout; any other table in
    it is ignored and dropped on the next :meth:`save`.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path if path is not None else os.path.join(
            cache_root(), "priors.json"
        )
        self.data: Dict[str, float] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            entries = raw.get("experiments") if isinstance(raw, dict) else None
            if isinstance(entries, dict):
                self.data = {str(k): float(v) for k, v in entries.items()}
        except FileNotFoundError:
            pass
        except Exception:
            # Corrupt priors only cost dispatch-order quality, but a torn
            # file left in place would fail on every load: quarantine it
            # and count the event like any other cache corruption.
            _quarantine(self.path)
            _bump_local(sk.ENGINE_CACHE_CORRUPT)
            self.data = {}

    def predict(self, key: str) -> Optional[float]:
        return self.data.get(key)

    def observe(self, key: str, seconds: float) -> None:
        old = self.data.get(key)
        self.data[key] = (
            seconds
            if old is None
            else PRIOR_ALPHA * seconds + (1.0 - PRIOR_ALPHA) * old
        )

    def save(self) -> None:
        if not disk_cache_enabled():
            return
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(
                    {"experiments": self.data}, handle, indent=1,
                    sort_keys=True,
                )
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


_PRIORS: Optional[PriorStore] = None


def get_priors() -> PriorStore:
    global _PRIORS
    if _PRIORS is None:
        _PRIORS = PriorStore()
    return _PRIORS


# ----------------------------------------------------------------------
# the warm pool
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_ENV: Dict[str, str] = {}
_COUNTERS: Dict[str, int] = {}


def _bump_local(key: str, amount: int = 1) -> None:
    _COUNTERS[key] = _COUNTERS.get(key, 0) + amount


def engine_counters() -> Dict[str, int]:
    """Pool-lifecycle counters of this process (starts, reuses, tasks)."""
    return dict(_COUNTERS)


def _worker_init() -> None:
    """Warm a pool worker: import the heavy modules once."""
    import repro.core.schemes  # noqa: F401  (imports the scheme zoo)
    import repro.sim.simulator  # noqa: F401
    import repro.traces.benchmarks  # noqa: F401
    import repro.validate  # noqa: F401  (auditor, for REPRO_AUDIT runs)


def _repro_env() -> Dict[str, str]:
    return {
        key: value
        for key, value in os.environ.items()
        if key.startswith("REPRO_")
    }


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent executor, grown or recycled as needed.

    The pool is recreated when more workers are requested than exist, when
    a worker died (broken pool), or when the ``REPRO_*`` environment
    changed — forked workers snapshot the environment at creation, so a
    stale pool would otherwise run with outdated knobs.
    """
    global _POOL, _POOL_WORKERS, _POOL_ENV
    env = _repro_env()
    if _POOL is not None:
        broken = getattr(_POOL, "_broken", False)
        if broken or _POOL_WORKERS < workers or _POOL_ENV != env:
            _POOL.shutdown(wait=True)
            _POOL = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init
        )
        _POOL_WORKERS = workers
        _POOL_ENV = env
        _bump_local(sk.ENGINE_POOL_STARTS)
    else:
        _bump_local(sk.ENGINE_POOL_REUSES)
    return _POOL


def shutdown() -> None:
    """Shut the warm pool down (atexit, and explicitly from tests)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None


atexit.register(shutdown)


def reset() -> None:
    """Forget all process-wide engine state (pool, caches, priors).

    Test hook: combined with ``REPRO_CACHE_DIR`` this yields a fully
    isolated engine per test.
    """
    global _CACHE, _PRIORS
    shutdown()
    _CACHE = None
    _PRIORS = None
    _COUNTERS.clear()


# ----------------------------------------------------------------------
# scheduling + supervision
# ----------------------------------------------------------------------
#: optional observer of supervision events; called as ``hook(kind, **data)``
#: with the ``engine.*`` kinds from :mod:`repro.obs.events`.  Process-wide
#: (the engine itself is process-wide state); tests and the chaos harness
#: install one to assert recovery behaviour.
_EVENT_HOOK: Optional[Callable[..., None]] = None


def set_event_hook(hook: Optional[Callable[..., None]]) -> None:
    """Install (or clear, with ``None``) the supervision event observer."""
    global _EVENT_HOOK
    _EVENT_HOOK = hook


def _emit(kind: str, **data: Any) -> None:
    if _EVENT_HOOK is not None:
        _EVENT_HOOK(kind, **data)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly hung) pool down without waiting on its workers."""
    global _POOL
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except OSError:
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    if _POOL is pool:
        _POOL = None


@dataclass
class _TaskState:
    """Supervision bookkeeping for one in-flight item."""

    index: int
    attempt: int  # 0 on the first dispatch
    deadline: Optional[float]  # monotonic seconds, None = unbounded


class _Supervisor:
    """Drives one ``engine_map`` call through crashes, hangs, and respawns.

    Recovery never changes *what* is computed — workers are pure functions
    of their item, so a re-dispatched task returns bit-identical results —
    only *where* it runs.  The escalation ladder:

    1. a task raising an exception is retried with exponential backoff,
       up to ``retries`` times, then surfaces as
       :class:`~repro.errors.EngineFaultError`;
    2. a crashed worker breaks the pool; the pool is respawned and every
       in-flight task re-dispatched (each crash victim charged a retry,
       whether the crash shows up in a wait or at submit time);
    3. a task running past the caller's ``timeout`` gets the pool killed
       and is charged a retry like a crash (without a ``timeout`` no task
       has a deadline: the engine never guesses a ceiling);
    4. after ``respawns`` pool failures in one call, the engine
       degrades: every unfinished item runs serially in-process.
    """

    def __init__(
        self,
        worker: Callable[[T], R],
        items: List[T],
        jobs: int,
        order: List[int],
        retries: int,
        respawns: int,
        timeout: Optional[float],
    ) -> None:
        self.worker = worker
        self.items = items
        self.jobs = jobs
        self.results: Dict[int, R] = {}
        self.pending: List[int] = list(order)  # dispatch order, front first
        self.attempts: Dict[int, int] = {}
        self.inflight: Dict[Any, _TaskState] = {}
        self.pool_failures = 0
        self.retry_budget = retries
        self.max_respawns = respawns
        self.timeout = timeout

    # -- policy -------------------------------------------------------------
    def _charge_retry(self, index: int, cause: str) -> None:
        attempt = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempt
        if attempt > self.retry_budget:
            raise EngineFaultError(
                f"task {index} failed {attempt} times (last cause: {cause}); "
                f"retry budget of {self.retry_budget} exhausted"
            )
        _bump_local(sk.ENGINE_RETRIES)
        _emit(ev.ENGINE_RETRY, index=index, attempt=attempt, cause=cause)
        # Exponential backoff: transient faults (OOM-killed sibling, disk
        # pressure) get breathing room; capped so hard failures fail fast.
        time.sleep(min(0.05 * (2 ** (attempt - 1)), 1.0))

    # -- dispatch -----------------------------------------------------------
    def _submit(self, pool: ProcessPoolExecutor, index: int) -> None:
        try:
            future = pool.submit(self.worker, self.items[index])
        except BrokenExecutor:
            # The pool died between refills; put the item back so the
            # respawn path re-dispatches it instead of dropping it.
            self.pending.insert(0, index)
            raise
        self.inflight[future] = _TaskState(
            index=index,
            attempt=self.attempts.get(index, 0),
            deadline=(
                None if self.timeout is None
                else time.monotonic() + self.timeout
            ),
        )
        if self.attempts.get(index, 0) == 0:
            _bump_local(sk.ENGINE_TASKS)

    def _refill(self, pool: ProcessPoolExecutor) -> None:
        while self.pending and len(self.inflight) < self.jobs:
            self._submit(pool, self.pending.pop(0))

    def _respawn(self, pool: ProcessPoolExecutor, cause: str) -> None:
        """Kill the pool and push every in-flight task back to pending."""
        displaced = sorted(state.index for state in self.inflight.values())
        self.inflight.clear()
        _kill_pool(pool)
        self.pool_failures += 1
        _bump_local(sk.ENGINE_RESPAWNS)
        _emit(ev.ENGINE_RESPAWN, cause=cause, inflight=len(displaced))
        # Re-dispatch in front of untouched work: these items were already
        # charged wall time, and finishing them first keeps tail latency low.
        self.pending[:0] = [
            index for index in displaced if index not in self.results
        ]

    def _degraded(self) -> List[R]:
        _bump_local(sk.ENGINE_DEGRADED)
        _emit(ev.ENGINE_DEGRADED, remaining=len(self.items) - len(self.results))
        for index in range(len(self.items)):
            if index not in self.results:
                self.results[index] = self.worker(self.items[index])
        return [self.results[index] for index in range(len(self.items))]

    # -- the loop -----------------------------------------------------------
    def run(self) -> List[R]:
        while len(self.results) < len(self.items):
            if self.pool_failures > self.max_respawns:
                return self._degraded()
            pool = get_pool(self.jobs)
            try:
                self._refill(pool)
            except BrokenExecutor:
                # CPython marks a pool broken before it fails the in-flight
                # futures, so a submit can see a crash before any wait does.
                self._charge_victims()
                self._respawn(pool, cause="broken_pool")
                continue
            try:
                self._step(pool)
            except BrokenExecutor:
                self._respawn(pool, cause="broken_pool")
        return [self.results[index] for index in range(len(self.items))]

    def _harvest(self, future, state: _TaskState) -> bool:
        """Record a finished task's result, or charge and requeue it.

        Returns True when the task's worker died with the pool.
        """
        try:
            self.results[state.index] = future.result()
        except BrokenExecutor:
            self._charge_retry(state.index, cause="worker_crash")
            self.pending.insert(0, state.index)
            return True
        except Exception as exc:
            self._charge_retry(
                state.index, cause=f"{type(exc).__name__}: {exc}"
            )
            self.pending.insert(0, state.index)
        return False

    def _charge_victims(self) -> None:
        """Settle the in-flight tasks of a pool found broken at submit time.

        Finished tasks are harvested as :meth:`_step` would; the rest are
        crash victims whose futures the dying pool has yet to fail, so each
        is charged a retry and left for :meth:`_respawn` to re-dispatch.
        """
        for future, state in list(self.inflight.items()):
            if future.done():
                del self.inflight[future]
                self._harvest(future, state)
            else:
                self._charge_retry(state.index, cause="worker_crash")

    def _step(self, pool: ProcessPoolExecutor) -> None:
        """One wait + harvest round; raises BrokenExecutor on pool death."""
        if not self.inflight:
            return
        now = time.monotonic()
        deadlines = [
            state.deadline
            for state in self.inflight.values()
            if state.deadline is not None
        ]
        timeout = max(0.0, min(deadlines) - now) if deadlines else None
        done, _ = wait(
            set(self.inflight), timeout=timeout, return_when=FIRST_COMPLETED
        )
        broken = False
        for future in done:
            broken |= self._harvest(future, self.inflight.pop(future))
        if broken:
            # The whole pool died; the remaining in-flight futures are
            # doomed too.  Respawn once.
            raise BrokenProcessPool("worker crashed mid-task")
        self._expire(pool)

    def _expire(self, pool: ProcessPoolExecutor) -> None:
        """Charge tasks past their deadline and kill the pool under them."""
        now = time.monotonic()
        expired = [
            (future, state)
            for future, state in self.inflight.items()
            if state.deadline is not None and now >= state.deadline
        ]
        if not expired:
            return
        try:
            for future, state in expired:
                if future.done():
                    continue  # finished between wait() and here
                _bump_local(sk.ENGINE_TIMEOUTS)
                _emit(
                    ev.ENGINE_TIMEOUT,
                    index=state.index,
                    deadline_s=round(state.deadline - now, 3),
                )
                self._charge_retry(state.index, cause="timeout")
        except EngineFaultError:
            # Out of retries: the hung worker must not outlive the error,
            # or the interpreter cannot exit until it finishes.
            _kill_pool(pool)
            raise
        # A hung worker can't be cancelled individually — concurrent.futures
        # offers no per-task kill — so the whole pool goes.
        raise BrokenProcessPool("task exceeded its deadline")


def engine_map(
    worker: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    cost: Optional[Callable[[T], float]] = None,
    retries: int = 2,
    respawns: int = 3,
    timeout: Optional[float] = None,
) -> List[R]:
    """Map a picklable worker over items through the supervised warm pool.

    Items are submitted individually — longest-expected-first when a
    ``cost`` estimator is given (stable for ties, so input order is the
    tiebreak) — with at most ``jobs`` in flight, so a straggler never
    strands pre-chunked work on an idle worker.  Results return in input
    order.  With ``jobs <= 1`` (or one item) this is a plain in-process
    loop.

    Worker crashes, hangs, and broken pools are handled by
    :class:`_Supervisor`: tasks are retried (at most ``retries`` times
    each), the pool respawned (at most ``respawns`` times per call; a
    task has a deadline only when ``timeout`` is given, that many seconds
    after its dispatch), and as a last resort the remaining items run
    serially in-process — in every case returning exactly what the serial
    loop would have returned.  Recovery activity surfaces through the
    ``engine.retries`` / ``engine.respawns`` / ``engine.timeouts`` /
    ``engine.degraded`` counters and the :func:`set_event_hook` observer.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    jobs = min(jobs, len(items))
    order = list(range(len(items)))
    if cost is not None:
        costs = [float(cost(item)) for item in items]
        order.sort(key=lambda index: -costs[index])
    return _Supervisor(
        worker, items, jobs, order, retries, respawns, timeout
    ).run()


# ----------------------------------------------------------------------
# simulation-point execution (warm workers)
# ----------------------------------------------------------------------
def run_spec_warm(spec) -> Any:
    """Run one :class:`repro.api.RunSpec` with artifact injection."""
    from .. import api

    return api.run(spec, artifacts=get_cache())


# ----------------------------------------------------------------------
# memoized Z-search (IR-Alloc greedy search, Section IV-B)
# ----------------------------------------------------------------------
def memoized_evaluator(evaluate: Callable) -> Callable:
    """Memoize a Z-search evaluation callback by candidate Z vector.

    The greedy search re-visits overlapping candidates across iterations;
    the evaluator is deterministic per vector, so memoization is free
    speedup with identical outcomes.
    """
    memo: Dict[Tuple[int, ...], Dict[str, float]] = {}

    def wrapped(oram: ORAMConfig) -> Dict[str, float]:
        key = tuple(oram.z_per_level)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = evaluate(oram)
        return hit

    return wrapped


def zsearch_digest(
    config: SystemConfig,
    records: int,
    seed: int,
    max_space_reduction: float,
    max_eviction_increase: float,
    min_z: int,
) -> str:
    payload = (
        f"{code_salt()}:{config.fingerprint()}:{records}:{seed}:"
        f"{max_space_reduction}:{max_eviction_increase}:{min_z}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def cached_z_allocation(
    config: SystemConfig,
    records: int = 1200,
    seed: int = 99,
    max_space_reduction: float = 0.03,
    max_eviction_increase: float = 0.15,
    min_z: int = 1,
) -> ORAMConfig:
    """The greedy Z-search outcome for a geometry, disk-memoized.

    The search itself is expensive (dozens of random-trace simulations);
    its outcome is a pure function of the inputs hashed by
    :func:`zsearch_digest`, so re-runs of ``repro zsearch`` and the
    Z-search experiment skip straight to the stored allocation.
    """
    from ..core.ir_alloc import find_z_allocation
    from ..sim.runner import random_trace_evaluator

    cache = get_cache()
    digest = zsearch_digest(
        config, records, seed, max_space_reduction,
        max_eviction_increase, min_z,
    )
    vector = cache.zsearch_get(digest)
    if vector is not None and len(vector) == config.oram.levels:
        return config.oram.with_z_vector(vector)
    evaluate = memoized_evaluator(
        random_trace_evaluator(config, records=records, seed=seed)
    )
    best = find_z_allocation(
        config.oram,
        evaluate,
        max_space_reduction=max_space_reduction,
        max_eviction_increase=max_eviction_increase,
        min_z=min_z,
    )
    cache.zsearch_put(digest, best.z_per_level)
    return best
