"""Slot-drain equivalence: drained, stepped, pure Python.

An unhooked run drains its issue slots, dummy paths included, in the
native ``drain_slots`` kernel; a hooked one steps them one at a time.
The contract (docs/simulator.md, "The slot drain") is that this is *pure
execution strategy*: simulated cycles, counters, path counts, RNG
stream, and stash/tree/DRAM state are bit-identical drained, stepped or
on the pure-Python fallbacks.  These tests pin that contract for every
registered scheme, audited runs included, and for checkpoint/resume
digests with natives on and off.
"""

import os
import random

import pytest

from repro import api
from repro.config import SystemConfig
from repro.core.schemes import SCHEMES, build_scheme
from repro.perf import native
from repro.validate import golden

from tests.tiers import snapshot

ALL_SCHEMES = sorted(SCHEMES)
KERNEL_SCHEMES = ["Baseline", "IR-Stash", "IR-Alloc", "IR-ORAM"]
#: uneven chunk sizes so batch boundaries never line up with anything
KERNEL_CHUNKS = (1, 3, 64, 120)
needs_native = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


def _disable_natives(monkeypatch):
    """Force every pure-Python fallback, the slot drain included."""
    monkeypatch.setattr("repro.mem.dram._native", None)
    monkeypatch.setattr("repro.oram.controller._fastpath", None)


def _fingerprint(result):
    return (
        result.cycles,
        tuple(sorted(result.path_counts.items())),
        tuple(sorted(result.counters.items())),
    )


def _step_every_slot(monkeypatch):
    """Step every slot, as a hooked run does: a no-op slot observer."""
    def hooked(*args, **kwargs):
        components = build_scheme(*args, **kwargs)
        components.controller.slot_observer = lambda result: None
        return components
    monkeypatch.setattr("repro.core.schemes.build_scheme", hooked)


def _run_sim(scheme, seed=11, records=200):
    config = SystemConfig.tiny()
    return api.run(api.RunSpec(
        scheme=scheme, workload="random", config=config, records=records,
        seed=seed,
    )).result


def _controller_state(controller):
    return snapshot(controller, ("rng", "stash", "tree", "dram", "counters"))


class TestKernelLockstep:
    """Empty-queue drained slots vs a stepped Python twin, state mid-run."""

    @needs_native
    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    def test_batch_matches_per_path_loop(self, scheme):
        batched, reference = (build_scheme(
            scheme, SystemConfig.scaled(levels=13), rng=random.Random(7)
        ).controller for _ in range(2))
        reference._native = None
        assert batched._serve and not reference._tier
        interval = batched.oram.issue_interval
        now_a = now_b = 0
        for chunk in KERNEL_CHUNKS:
            left = chunk
            while left:  # IR-DWB hands each dummy slot back to Python
                _, _, now_a, slots, _, _ = batched.drain_slots(now_a, left)
                left -= slots
            for _ in range(chunk):
                res = reference.step(now_b)
                now_b = max(now_b + interval, res.finish_write)
            # Full controller state, not just cycles: RNG stream, stash
            # contents in order, per-level occupancy, DRAM bank state.
            assert _controller_state(batched) == _controller_state(reference)
            assert now_a == now_b


class TestRecordedDummyCycles:
    """Cross-machine determinism: 1500 dummy paths at L=13, drained in
    chunks of 512, end at the same recorded cycle on every tier.  The
    figures are simulated, not measured, so they hold on any host."""

    PATHS = 1500
    CHUNK = 512
    CYCLES = {
        "Baseline": 1252416,
        "IR-Alloc": 891908,
        "IR-Stash": 1252416,
        "IR-ORAM": 974532,
    }
    TIERS = [pytest.param("batch", marks=needs_native), "per-access", "python"]

    def _drain(self, scheme, tier):
        # Back to back, no evictions, no IR-DWB conversions: only dummies.
        controller = build_scheme(scheme, SystemConfig.scaled(
            levels=13, issue_interval=0, allow_background_eviction=False,
        ), rng=random.Random(7)).controller
        controller.dwb = None
        now = done = 0
        while done < self.PATHS:
            chunk = min(self.CHUNK, self.PATHS - done)
            if tier == "batch":
                _, _, now, issued, _, _ = controller.drain_slots(now, chunk)
                assert issued == chunk
            else:
                for _ in range(chunk):
                    now = controller.dummy_path(now).finish_write
            done += chunk
        if native.fastpath is not None:
            ran = {
                "batch": "engine.tier.batch_paths",
                "per-access": "engine.tier.kernel_paths",
                "python": "engine.tier.python_paths",
            }[tier]
            assert controller.tier_counters()[ran] == self.PATHS
        return now

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("scheme", sorted(CYCLES))
    def test_final_cycle_matches_record(self, scheme, tier, monkeypatch):
        if tier == "python":
            _disable_natives(monkeypatch)
        assert self._drain(scheme, tier) == self.CYCLES[scheme]


class TestFullRunEquivalence:
    """Whole simulations across every scheme and execution strategy."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_batch_vs_no_batch(self, scheme, monkeypatch):
        batched = _fingerprint(_run_sim(scheme))
        _step_every_slot(monkeypatch)
        per_access = _fingerprint(_run_sim(scheme))
        assert batched == per_access

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_batch_vs_pure_python(self, scheme, monkeypatch):
        batched = _fingerprint(_run_sim(scheme))
        _disable_natives(monkeypatch)
        pure = _fingerprint(_run_sim(scheme))
        assert batched == pure

    @pytest.mark.parametrize("scheme", ["Baseline", "IR-ORAM", "Decoupled"])
    def test_audited_runs_identical(self, scheme, monkeypatch):
        """REPRO_AUDIT steps every slot for the invariant auditor; the
        audited run must match the drained one."""
        batched = _fingerprint(_run_sim(scheme))
        monkeypatch.setenv("REPRO_AUDIT", "1")
        audited = _fingerprint(_run_sim(scheme))
        assert batched == audited


class TestCheckpointBatchGuard:
    """Resume digests are identical with the fastpath on and off."""

    @pytest.mark.parametrize("scheme", ["Baseline", "IR-ORAM"])
    def test_resume_digest_matches_without_natives(
        self, scheme, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        spec = api.RunSpec(
            scheme=scheme,
            workload="mix",
            records=golden.GOLDEN_RECORDS,
            seed=golden.GOLDEN_SEED,
            config_name="tiny",
        )

        def checkpoint_and_resume(tag):
            path = str(tmp_path / f"{tag}.ckpt")
            full = api.run(spec, checkpoint_every=60, checkpoint_path=path)
            assert os.path.exists(path)
            resumed = api.resume_run(path)
            return (
                golden.entry_from(full)["digest"],
                golden.entry_from(resumed)["digest"],
                resumed.cycles,
            )

        with_natives = checkpoint_and_resume("native")
        _disable_natives(monkeypatch)
        without_natives = checkpoint_and_resume("pure")
        assert with_natives == without_natives
        # Checkpointed and uninterrupted digests agree in both modes.
        assert with_natives[0] == with_natives[1]


class TestBatchExecution:
    """The drain's dummy paths run in the kernel, as the stats say."""

    @needs_native
    def test_batch_counters_surface_in_stats(self):
        out = api.run(
            api.RunSpec(
                scheme="Baseline",
                workload="random",
                records=200,
                seed=5,
                config_name="tiny",
            )
        )
        assert out.stats.get("engine.batch.paths") > 0
        assert out.stats.get("engine.batch.calls") > 0
        # Execution bookkeeping never leaks into simulated counters.
        assert "engine.batch.paths" not in out.result.counters


class TestDecoupledScheme:
    """Palermo-style decoupling defers every dummy write burst."""

    def test_defers_every_write_and_saves_cycles(self):
        decoupled = _run_sim("Decoupled", seed=9)
        baseline = _run_sim("Baseline", seed=9)
        deferred = decoupled.counters.get("decouple.deferred_writes")
        assert deferred is not None and deferred > 0
        assert deferred == sum(decoupled.path_counts.values())
        assert decoupled.cycles < baseline.cycles
