"""Whole-run batch fastpath equivalence: batched, per-access, pure Python.

The native ``drain_slots`` kernel runs consecutive issue slots per
Python call, and ``run_batch`` whole stretches of dummy paths; the
contract (docs/simulator.md, "The slot drain") is that both are *pure
execution strategy* — simulated cycles, counters, path counts, RNG
stream, and stash/tree/DRAM state are bit-identical whether slots drain
through the kernels, step one by one, or run the pure-Python fallbacks.  These tests
pin that contract for every registered scheme, audited runs included,
and for checkpoint/resume digests with natives on and off.
"""

import os
import random

import pytest

from repro import api
from repro.config import SystemConfig
from repro.core.schemes import SCHEMES, build_scheme
from repro.validate import golden

from tests.tiers import snapshot

ALL_SCHEMES = sorted(SCHEMES)
KERNEL_SCHEMES = ["Baseline", "IR-Stash", "IR-Alloc", "IR-ORAM"]
#: uneven chunk sizes so batch boundaries never line up with anything
KERNEL_CHUNKS = (1, 3, 64, 120)


def _disable_natives(monkeypatch):
    """Force every pure-Python fallback, including the batch kernel."""
    import repro.mem.dram as dram
    import repro.oram.controller as controller

    monkeypatch.setattr(dram, "_native", None)
    monkeypatch.setattr(controller, "_fastpath", None)


def _fingerprint(result):
    return (
        result.cycles,
        tuple(sorted(result.path_counts.items())),
        tuple(sorted(result.counters.items())),
    )


def _run_sim(scheme, seed=11, records=200):
    config = SystemConfig.tiny()
    return api.run(api.RunSpec(
        scheme=scheme, workload="random", config=config, records=records,
        seed=seed,
    )).result


def _controller_state(controller):
    return snapshot(controller, ("rng", "stash", "tree", "dram", "counters"))


class TestKernelLockstep:
    """run_dummy_batch vs the dummy_path loop, state compared mid-run."""

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    def test_batch_matches_per_path_loop(self, scheme):
        from repro.perf import native

        if native.fastpath is None:
            pytest.skip("native kernels unavailable; nothing to compare")

        def build(natives):
            config = SystemConfig.scaled(levels=13)
            controller = build_scheme(
                scheme, config, rng=random.Random(7)
            ).controller
            if not natives:
                controller._native = None
            return controller

        batched = build(natives=True)
        assert batched._native is not None
        reference = build(natives=False)
        interval = 50
        now_a = now_b = 0
        for chunk in KERNEL_CHUNKS:
            issued, now_a, _ = batched.run_dummy_batch(now_a, chunk, interval)
            assert issued == chunk
            for _ in range(chunk):
                res = reference.dummy_path(now_b)
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

    def _drain(self, scheme, tier):
        from repro.perf import native

        controller = build_scheme(
            scheme, SystemConfig.scaled(levels=13), rng=random.Random(7)
        ).controller
        if tier == "per-access":
            controller.SUPPORTS_NATIVE_BATCH = False
        now = done = 0
        while done < self.PATHS:
            chunk = min(self.CHUNK, self.PATHS - done)
            issued, now, _ = controller.run_dummy_batch(now, chunk)
            assert issued == chunk
            done += issued
        if native.fastpath is not None:
            ran = {
                "batch": "engine.tier.batch_paths",
                "per-access": "engine.tier.kernel_paths",
                "python": "engine.tier.python_paths",
            }[tier]
            assert controller.tier_counters()[ran] == self.PATHS
        return now

    @pytest.mark.parametrize("tier", ["batch", "per-access", "python"])
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
        monkeypatch.setenv("REPRO_BATCH_SLOTS", "0")
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
        """REPRO_AUDIT flushes the batch at every slot boundary; the
        invariant auditor must see identical state either way."""
        monkeypatch.setenv("REPRO_AUDIT", "1")
        batched = _fingerprint(_run_sim(scheme))
        monkeypatch.setenv("REPRO_BATCH_SLOTS", "0")
        per_access = _fingerprint(_run_sim(scheme))
        assert batched == per_access


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
    """The batch kernel actually runs — and says so in the run stats."""

    def test_batch_counters_surface_in_stats(self, monkeypatch):
        from repro.perf import native

        if native.fastpath is None:
            pytest.skip("native kernels unavailable")
        monkeypatch.setenv("REPRO_BATCH_SLOTS", "256")
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
