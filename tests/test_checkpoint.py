"""Checkpoint/resume tests: frozen runs must finish bit-identical.

The contract under test (docs/resilience.md): a run checkpointed every N
accesses and resumed from the latest checkpoint produces exactly the
cycles, counters, and golden digest of the uninterrupted run — for every
scheme, audited or not.  The golden corpus committed at
``benchmarks/golden/tiny.json`` supplies the ground truth, so these tests
also prove resumed runs match what *previous* builds recorded.
"""

import gc
import json
import os
import pickle
import shutil
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import api
from repro.config import SystemConfig
from repro.core.schemes import SCHEMES
from repro.errors import CheckpointError, ConfigError, ProtocolError
from repro.mem.layout import TreeLayout
from repro.oram.controller import PathORAMController
from repro.perf import engine, native
from repro.sim import checkpoint as ckpt_mod
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.persistence import CampaignJournal
from repro.sim.runner import make_workload
from repro.validate import golden


@pytest.fixture(autouse=True)
def isolated_engine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    engine.reset()
    yield
    engine.reset()


def _golden_spec(scheme, workload="mix"):
    return api.RunSpec(
        scheme=scheme,
        workload=workload,
        records=golden.GOLDEN_RECORDS,
        seed=golden.GOLDEN_SEED,
        config_name="tiny",
    )


def _corpus():
    return golden.load()["entries"]


class TestResumeMatchesGolden:
    @given(
        scheme=st.sampled_from(sorted(SCHEMES)),
        workload=st.sampled_from(golden.GOLDEN_WORKLOADS),
        every=st.integers(min_value=10, max_value=250),
        audit=st.booleans(),
    )
    def test_checkpoint_resume_reproduces_golden_digest(
        self, scheme, workload, every, audit
    ):
        """Checkpoint at a drawn cadence, resume, compare to the corpus."""
        expected = _corpus()[golden.entry_key(_golden_spec(scheme, workload))]
        spec = _golden_spec(scheme, workload)
        # Hypothesis reruns the body per example, so the function-scoped
        # ``monkeypatch`` fixture cannot serve; a context per example can.
        with pytest.MonkeyPatch.context() as monkeypatch, \
                tempfile.TemporaryDirectory() as scratch:
            if audit:
                monkeypatch.setenv("REPRO_AUDIT", "1")
            else:
                monkeypatch.delenv("REPRO_AUDIT", raising=False)
            path = os.path.join(scratch, "run.ckpt")
            full = api.run(spec, checkpoint_every=every, checkpoint_path=path)
            assert golden.entry_from(full)["digest"] == expected["digest"]
            if os.path.exists(path):  # every > total paths writes none
                resumed = api.resume_run(path)
                entry = golden.entry_from(resumed)
                assert entry["digest"] == expected["digest"]
                assert resumed.cycles == expected["cycles"]
                assert entry["counters"] == expected["counters"]

    def test_resume_is_deterministic(self, tmp_path):
        spec = _golden_spec("IR-ORAM")
        path = str(tmp_path / "run.ckpt")
        api.run(spec, checkpoint_every=60, checkpoint_path=path)
        first = api.resume_run(path)
        second = api.resume_run(path)
        assert first.cycles == second.cycles
        assert first.result.counters == second.result.counters

    def test_resumed_run_keeps_checkpointing(self, tmp_path):
        spec = _golden_spec("Baseline")
        path = str(tmp_path / "run.ckpt")
        full = api.run(spec, checkpoint_every=40, checkpoint_path=path)
        saves_full = full.stats.get("checkpoint.saves")
        assert saves_full and saves_full > 1
        before = os.path.getmtime(path)
        resumed = api.resume_run(path)
        # The resumed run re-arms the same cadence and rewrites the file.
        assert resumed.stats.get("checkpoint.saves") > 0
        assert os.path.getmtime(path) >= before

    def test_checkpoint_limit_bounds_saves(self, tmp_path):
        spec = _golden_spec("Baseline")
        path = str(tmp_path / "run.ckpt")
        out = api.run(
            spec, checkpoint_every=30, checkpoint_path=path,
            checkpoint_limit=1,
        )
        assert out.stats.get("checkpoint.saves") == 1

    def test_saves_counter_stays_out_of_result_counters(self, tmp_path):
        spec = _golden_spec("Baseline")
        path = str(tmp_path / "run.ckpt")
        out = api.run(spec, checkpoint_every=50, checkpoint_path=path)
        assert "checkpoint.saves" not in out.result.counters
        assert out.stats.get("checkpoint.saves") > 0


@pytest.mark.skipif(native.fastpath is None,
                    reason="native kernels unavailable")
class TestKernelStateRebuild:
    """The controller's kernel state is process-local: a pickle drops it,
    unpickling (or swapping a container and rebinding) rebuilds it over
    the live state."""

    def test_pickled_controller_carries_no_kernel_state(self):
        controller = PathORAMController(SystemConfig.tiny())
        assert controller.__getstate__()["_kstate"] is None
        payload = pickle.dumps(controller)
        assert b"KernelState" not in payload
        restored = pickle.loads(payload)
        assert restored._kstate is not None
        assert restored._kstate is not controller._kstate

    def test_resumed_run_runs_on_the_kernel_tier(self, tmp_path):
        spec = _golden_spec("IR-ORAM")
        path = str(tmp_path / "run.ckpt")
        full = api.run(spec, checkpoint_every=60, checkpoint_path=path)
        frozen = load_checkpoint(path).sim.controller
        assert frozen._kstate is not None
        at_resume = frozen.batch_counters["engine.tier.kernel_paths"]
        resumed = api.resume_run(path)
        assert resumed.stats.get("engine.tier.kernel_paths") > at_resume
        assert resumed.stats.get("engine.tier.python_paths") == 0
        assert (golden.entry_from(resumed)["digest"]
                == golden.entry_from(full)["digest"])

    def test_adopted_layout_is_the_one_the_state_holds(self):
        config = SystemConfig.tiny()
        controller = PathORAMController(config)
        replaced = controller.layout.path_table
        layout = TreeLayout(config.oram, config.dram)
        controller.layout = layout
        controller._bind_kernel_state()
        gc.collect()
        # The new state exports the adopted table and released the old.
        with pytest.raises(BufferError):
            layout.path_table.append(0)
        replaced.append(0)
        replaced.pop()
        for leaf in range(config.oram.leaves):
            assert native.fastpath.dram_triples(controller._kstate, leaf) == (
                controller.dram.decompose_batch(layout.path_addresses(leaf))
            )


class TestCheckpointFormat:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "missing.ckpt"))

    def test_torn_file_raises(self, tmp_path):
        spec = _golden_spec("Baseline")
        path = str(tmp_path / "run.ckpt")
        api.run(spec, checkpoint_every=50, checkpoint_path=path)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="torn or unreadable"):
            load_checkpoint(path)

    def test_version_mismatch_raises(self, tmp_path, monkeypatch):
        spec = _golden_spec("Baseline")
        path = str(tmp_path / "run.ckpt")
        api.run(spec, checkpoint_every=50, checkpoint_path=path)
        payload = pickle.load(open(path, "rb"))
        payload.version = 999
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(path)

    def test_foreign_build_salt_refuses_resume(self, tmp_path, monkeypatch):
        spec = _golden_spec("Baseline")
        path = str(tmp_path / "run.ckpt")
        api.run(spec, checkpoint_every=50, checkpoint_path=path)
        monkeypatch.setattr(ckpt_mod, "_SALT", "deadbeef" * 8)
        with pytest.raises(CheckpointError, match="different simulator"):
            load_checkpoint(path)

    def test_salt_covers_the_c_kernels(self, tmp_path):
        """The salt digests every source of the package, so an edit to
        the C kernels refuses a checkpoint taken before it."""
        package = os.path.dirname(os.path.dirname(ckpt_mod.__file__))
        copy = tmp_path / "repro"
        shutil.copytree(
            package, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        assert ckpt_mod._salt_of(str(copy)) == ckpt_mod._code_salt()
        kernels = copy / "perf" / "_fastpath.c"
        kernels.write_bytes(kernels.read_bytes() + b"\n/* edited */\n")
        assert ckpt_mod._salt_of(str(copy)) != ckpt_mod._code_salt()

    def test_not_a_checkpoint_raises(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "wb") as handle:
            pickle.dump({"surprise": True}, handle)
        with pytest.raises(CheckpointError, match="SimulatorCheckpoint"):
            load_checkpoint(path)

    def test_write_is_atomic(self, tmp_path):
        spec = _golden_spec("Baseline")
        path = str(tmp_path / "run.ckpt")
        api.run(spec, checkpoint_every=40, checkpoint_path=path)
        leftovers = [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ]
        assert leftovers == []
        payload = load_checkpoint(path)
        assert payload.access_index > 0
        assert payload.spec.scheme == "Baseline"

    def test_run_twice_is_refused(self):
        from repro.core.schemes import build_scheme
        from repro.sim.simulator import Simulator
        from repro.sim.runner import make_workload
        from repro.config import SystemConfig
        from repro.stats import Stats
        import random as random_mod

        config = SystemConfig.tiny()
        stats = Stats()
        components = build_scheme(
            "Baseline", config, stats, random_mod.Random(1)
        )
        trace = make_workload("mix", config, 50, 1)
        sim = Simulator(components, trace)
        sim.run()
        with pytest.raises(ProtocolError, match="use resume"):
            sim.run()


class TestCampaignResume:
    def _specs(self):
        return [
            api.RunSpec(
                scheme=scheme, workload="mix", records=120, seed=3,
                config_name="tiny",
            )
            for scheme in ["Baseline", "IR-ORAM", "Rho"]
        ]

    def test_campaign_skips_journaled_points(self, tmp_path, monkeypatch):
        journal_path = tmp_path / "journal.jsonl"
        calls = []
        real = engine.run_spec_warm

        def counting(spec):
            calls.append(spec.scheme)
            return real(spec)

        monkeypatch.setattr(engine, "run_spec_warm", counting)
        specs = self._specs()
        first = api.run_campaign(specs, str(journal_path), jobs=1)
        assert len(calls) == 3
        second = api.run_campaign(specs, str(journal_path), jobs=1)
        assert len(calls) == 3  # nothing re-simulated
        for a, b in zip(first, second):
            assert a.cycles == b.cycles
            assert a.counters == b.counters

    def test_partial_journal_resumes_remainder(self, tmp_path, monkeypatch):
        journal_path = tmp_path / "journal.jsonl"
        specs = self._specs()
        api.run_campaign(specs[:2], str(journal_path), jobs=1)
        calls = []
        real = engine.run_spec_warm

        def counting(spec):
            calls.append(spec.scheme)
            return real(spec)

        monkeypatch.setattr(engine, "run_spec_warm", counting)
        results = api.run_campaign(specs, str(journal_path), jobs=1)
        assert calls == ["Rho"]
        assert len(results) == 3

    def test_finished_points_survive_a_later_failure(self, tmp_path):
        """Each point is journaled as it finishes, so a campaign whose
        second point raises keeps the first point's entry."""
        journal_path = tmp_path / "journal.jsonl"
        good = self._specs()[0]
        bad = api.RunSpec(scheme="No-Such-Scheme", workload="mix",
                          records=120, seed=3, config_name="tiny")
        with pytest.raises(KeyError):
            api.run_campaign([good, bad], str(journal_path), jobs=1)
        journal = CampaignJournal(str(journal_path))
        assert len(journal) == 1 and journal.done(api.campaign_key(good))

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        specs = self._specs()
        api.run_campaign(specs, str(journal_path), jobs=1)
        with open(journal_path, "a") as handle:
            handle.write('{"key": "half-written')  # crash mid-append
        journal = CampaignJournal(str(journal_path))
        assert len(journal) == 3

    def test_journal_results_round_trip_exactly(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        specs = self._specs()
        fresh = [api.run(spec).result for spec in specs]
        campaign = api.run_campaign(specs, str(journal_path), jobs=1)
        reloaded = api.run_campaign(specs, str(journal_path), jobs=1)
        for want, got, again in zip(fresh, campaign, reloaded):
            assert want.cycles == got.cycles == again.cycles
            assert want.counters == got.counters == again.counters


    def test_snapshot_point_is_not_served_by_a_plain_one(self, tmp_path):
        """``utilization_snapshots`` changes the result (its utilization
        series), so a journaled plain point never answers for it."""
        journal_path = str(tmp_path / "journal.jsonl")
        plain = api.RunSpec(scheme="Baseline", workload="gcc", records=300,
                            seed=1, config_name="tiny")
        snapshots = replace(plain, utilization_snapshots=4)
        assert api.campaign_key(plain) != api.campaign_key(snapshots)
        api.run_campaign([plain], journal_path, jobs=1)
        (result,) = api.run_campaign([snapshots], journal_path, jobs=1)
        expected = api.run(snapshots).result.utilization_series
        assert expected and result.utilization_series == expected

    def test_prebuilt_trace_has_no_key(self):
        config = SystemConfig.tiny()
        spec = api.RunSpec(workload="gcc", records=50, config=config,
                           trace=make_workload("gcc", config, 50, 1))
        with pytest.raises(ConfigError, match="pre-built trace"):
            api.campaign_key(spec)


class TestCheckpointCLI:
    def test_cli_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main

        path = str(tmp_path / "cli.ckpt")
        assert main([
            "run", "IR-ORAM", "mix", "--records", "200", "--seed", "11",
            "--levels", "11",
            "--checkpoint-every", "40", "--checkpoint-out", path,
        ]) == 0
        first = capsys.readouterr().out
        assert main(["run", "--resume", path]) == 0
        second = capsys.readouterr().out
        assert "(resumed)" in second
        # Same cycles line either way.
        def cycles_of(text):
            for line in text.splitlines():
                if "cycles=" in line:
                    return line.split("cycles=")[1].split()[0]
            raise AssertionError(f"no cycles in {text!r}")

        assert cycles_of(first) == cycles_of(second)

    def test_cli_requires_scheme_without_resume(self, capsys):
        from repro.__main__ import main

        assert main(["run"]) == 2
        assert "required unless --resume" in capsys.readouterr().err
