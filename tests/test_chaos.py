"""Chaos tests: the supervised engine under crashes, hangs, and torn caches.

Every recovery path must return exactly what the serial loop returns —
fault tolerance that changes results would be worse than crashing.
Faults are injected deterministically (marker files claimed with
``O_CREAT | O_EXCL`` make each one fire exactly once), so these tests are
seed-stable across runs and ``--jobs`` values.
"""

import multiprocessing
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import api
from repro.config import SystemConfig
from repro.errors import EngineFaultError
from repro.perf import engine
from repro.validate.chaos import ChaosPlan, ChaosWorker, tear_cache_files


@pytest.fixture(autouse=True)
def isolated_engine(tmp_path, monkeypatch):
    """Every test gets a private cache dir and a fresh engine."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    engine.reset()
    yield
    engine.set_event_hook(None)
    engine.reset()


class FaultyDouble:
    """Picklable worker over ``(index, value)``: fault once, then double.

    ``crash``/``hang``/``explode`` name the indices that fault on their
    first dispatch (claimed via marker files, so re-dispatches run
    clean); ``explode_always`` raises on every dispatch.
    """

    def __init__(
        self,
        marker_dir,
        crash=(),
        hang=(),
        explode=(),
        explode_always=(),
        hang_s=30.0,
    ):
        self.marker_dir = str(marker_dir)
        self.crash = tuple(crash)
        self.hang = tuple(hang)
        self.explode = tuple(explode)
        self.explode_always = tuple(explode_always)
        self.hang_s = hang_s

    def _claim(self, kind, index):
        path = os.path.join(self.marker_dir, f"{kind}-{index}")
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            return False

    def __call__(self, task):
        index, value = task
        if index in self.crash and self._claim("crash", index):
            os._exit(17)
        if index in self.hang and self._claim("hang", index):
            time.sleep(self.hang_s)
        if index in self.explode and self._claim("explode", index):
            raise RuntimeError(f"injected fault at {index}")
        if index in self.explode_always:
            raise RuntimeError(f"permanent fault at {index}")
        return value * 2


class ParentSafeCrash:
    """Crashes (once per index) only inside pool workers, never in the
    parent — safe for exercising the degrade-to-serial path in-process."""

    def __init__(self, marker_dir, parent_pid):
        self.marker_dir = str(marker_dir)
        self.parent_pid = parent_pid

    def __call__(self, task):
        index, value = task
        if os.getpid() != self.parent_pid:
            path = os.path.join(self.marker_dir, f"crash-{index}")
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                os._exit(17)
            except FileExistsError:
                pass
        return value * 2


class BrokenAtSubmitPool:
    """Synchronous stand-in for the process pool.

    With ``break_after`` set, that many submits return futures that never
    finish (their worker died) and the next submit raises
    ``BrokenProcessPool`` — the window in which CPython has marked a pool
    broken but not yet failed its in-flight futures.  Without it, every
    submit runs the task at once.
    """

    def __init__(self, break_after=None):
        self.break_after = break_after

    def submit(self, fn, item):
        future = Future()
        if self.break_after is None:
            future.set_result(fn(item))
        elif self.break_after == 0:
            raise BrokenProcessPool("a worker died")
        else:
            self.break_after -= 1
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _double_task(task):
    return task[1] * 2


def _tasks(n):
    return [(index, index + 10) for index in range(n)]


def _expected(n):
    return [(index + 10) * 2 for index in range(n)]


class TestSupervision:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_worker_crash_recovers_in_order(self, tmp_path, jobs):
        worker = FaultyDouble(tmp_path / "m", crash=(2,))
        (tmp_path / "m").mkdir()
        before = engine.engine_counters()
        out = engine.engine_map(worker, _tasks(8), jobs=jobs)
        assert out == _expected(8)
        counters = engine.engine_counters()
        assert counters.get("engine.retries", 0) > before.get(
            "engine.retries", 0
        )
        assert counters.get("engine.respawns", 0) >= 1

    def test_hang_past_timeout_is_killed_and_retried(self, tmp_path):
        (tmp_path / "m").mkdir()
        worker = FaultyDouble(tmp_path / "m", hang=(1,), hang_s=30.0)
        start = time.monotonic()
        out = engine.engine_map(worker, _tasks(4), jobs=2, timeout=1.0)
        assert out == _expected(4)
        assert time.monotonic() - start < 25  # the 30 s sleep was killed
        counters = engine.engine_counters()
        assert counters.get("engine.timeouts", 0) >= 1
        assert counters.get("engine.respawns", 0) >= 1

    def test_timeout_out_of_retries_kills_the_pool(self, tmp_path):
        """The error that ends a call on a timeout leaves no pool and no
        hung worker behind to hold the interpreter's exit."""
        (tmp_path / "m").mkdir()
        worker = FaultyDouble(tmp_path / "m", hang=(0,), hang_s=10.0)
        before = {child.pid for child in multiprocessing.active_children()}
        with pytest.raises(EngineFaultError, match="timeout"):
            engine.engine_map(
                worker, _tasks(2), jobs=2, timeout=1.0, retries=0
            )
        assert engine._POOL is None
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = {
                child.pid for child in multiprocessing.active_children()
            } - before
            if not alive:
                break
            time.sleep(0.05)
        assert not alive

    def test_transient_exception_is_retried(self, tmp_path):
        (tmp_path / "m").mkdir()
        worker = FaultyDouble(tmp_path / "m", explode=(3,))
        out = engine.engine_map(worker, _tasks(6), jobs=2)
        assert out == _expected(6)
        assert engine.engine_counters().get("engine.retries", 0) >= 1

    def test_deterministic_failure_exhausts_budget(self, tmp_path):
        (tmp_path / "m").mkdir()
        worker = FaultyDouble(tmp_path / "m", explode_always=(2,))
        with pytest.raises(EngineFaultError, match="task 2"):
            engine.engine_map(worker, _tasks(5), jobs=2, retries=1)

    def test_degrades_to_serial_after_respawn_budget(self, tmp_path):
        (tmp_path / "m").mkdir()
        worker = ParentSafeCrash(tmp_path / "m", parent_pid=os.getpid())
        out = engine.engine_map(
            worker, _tasks(6), jobs=2, retries=10, respawns=0
        )
        assert out == _expected(6)
        assert engine.engine_counters().get("engine.degraded", 0) == 1

    def test_broken_pool_at_submit_charges_inflight(self, monkeypatch):
        pools = [BrokenAtSubmitPool(break_after=1), BrokenAtSubmitPool()]
        monkeypatch.setattr(
            engine, "get_pool",
            lambda workers: pools.pop(0) if len(pools) > 1 else pools[0],
        )
        out = engine.engine_map(_double_task, _tasks(4), jobs=2)
        assert out == _expected(4)
        counters = engine.engine_counters()
        # Task 0 was in flight on the pool that broke when task 1 was
        # submitted: it is the crash victim and pays one retry.
        assert counters.get("engine.retries", 0) == 1
        assert counters.get("engine.respawns", 0) == 1

    def test_event_hook_sees_recovery(self, tmp_path):
        (tmp_path / "m").mkdir()
        events = []
        engine.set_event_hook(lambda kind, **data: events.append(kind))
        worker = FaultyDouble(tmp_path / "m", crash=(1,))
        engine.engine_map(worker, _tasks(4), jobs=2)
        assert "engine.retry" in events
        assert "engine.respawn" in events


class TestSweepBitIdentity:
    """Injected faults during a real scheme sweep must not change results."""

    SCHEMES = ["Baseline", "IR-ORAM", "Rho", "IR-DWB"]

    def _specs(self):
        return [
            api.RunSpec(
                scheme=scheme, workload="mix", records=120, seed=11,
                config=SystemConfig.tiny(),
            )
            for scheme in self.SCHEMES
        ]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_crash_mid_sweep_bit_identical(self, tmp_path, jobs):
        specs = self._specs()
        serial = [api.run(spec) for spec in specs]
        markers = tmp_path / "markers"
        markers.mkdir()
        plan = ChaosPlan.make(
            len(specs), seed=3, marker_dir=str(markers), crashes=1, hangs=0
        )
        assert plan.crash_indices  # the plan actually injects something
        outs = engine.engine_map(
            ChaosWorker(plan), list(enumerate(specs)), jobs=jobs, retries=4
        )
        for want, got in zip(serial, outs):
            assert got.cycles == want.cycles
            assert got.result.counters == want.result.counters
        assert engine.engine_counters().get("engine.respawns", 0) >= 1

    def test_hang_mid_sweep_bit_identical(self, tmp_path):
        specs = self._specs()
        serial = [api.run(spec) for spec in specs]
        markers = tmp_path / "markers"
        markers.mkdir()
        plan = ChaosPlan.make(
            len(specs), seed=5, marker_dir=str(markers), crashes=0, hangs=1
        )
        assert plan.hang_indices
        outs = engine.engine_map(
            ChaosWorker(plan), list(enumerate(specs)), jobs=2, timeout=10.0
        )
        for want, got in zip(serial, outs):
            assert got.cycles == want.cycles
            assert got.result.counters == want.result.counters
        assert engine.engine_counters().get("engine.timeouts", 0) >= 1


class TestCorruptionQuarantine:
    def test_torn_artifact_is_quarantined_not_swallowed(self):
        cache = engine.get_cache()
        path = cache._disk_path("zsearch", "deadbeef")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"\x80\x04 torn mid-write")
        assert cache._disk_load("zsearch", "deadbeef") is None
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert cache.counters.get("engine.cache.corrupt") == 1
        assert engine.engine_counters().get("engine.cache.corrupt") == 1

    def test_missing_artifact_is_silent(self):
        cache = engine.get_cache()
        assert cache._disk_load("zsearch", "nothere") is None
        assert cache.counters.get("engine.cache.corrupt") is None

    def test_store_is_atomic_no_tmp_left_behind(self):
        cache = engine.get_cache()
        cache._disk_store("zsearch", "abc123", {"some": "value"})
        directory = os.path.dirname(cache._disk_path("zsearch", "abc123"))
        assert not [
            name for name in os.listdir(directory) if name.endswith(".tmp")
        ]
        assert cache._disk_load("zsearch", "abc123") == {"some": "value"}

    def test_tear_cache_files_is_deterministic(self, tmp_path):
        for name in ("a", "b", "c", "d"):
            (tmp_path / f"{name}.pkl").write_bytes(b"x" * 64)
        first = tear_cache_files(str(tmp_path), seed=9)
        for name in ("a", "b", "c", "d"):
            (tmp_path / f"{name}.pkl").write_bytes(b"x" * 64)
        second = tear_cache_files(str(tmp_path), seed=9)
        assert first == second


class TestChaosPlan:
    def test_plan_is_deterministic(self, tmp_path):
        a = ChaosPlan.make(12, seed=7, marker_dir=str(tmp_path))
        b = ChaosPlan.make(12, seed=7, marker_dir=str(tmp_path))
        assert a.crash_indices == b.crash_indices
        assert a.hang_indices == b.hang_indices
        assert not set(a.crash_indices) & set(a.hang_indices)

    def test_claim_fires_once(self, tmp_path):
        plan = ChaosPlan.make(4, seed=7, marker_dir=str(tmp_path))
        assert plan.claim("crash", 0) is True
        assert plan.claim("crash", 0) is False
        assert plan.claim("hang", 0) is True
