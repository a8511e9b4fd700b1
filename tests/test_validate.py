"""Tests for the conformance subsystem (``repro.validate``).

Covers the three pillars: the online invariant auditor (catches every
injected corruption class, stays bit-identical to unaudited runs), the
lockstep differential oracle (serial and through the warm-pool engine),
and the golden corpus / fuzzer machinery.
"""

import os

import pytest

from repro import api
from repro.config import SystemConfig
from repro.core.schemes import SCHEMES, build_scheme
from repro.errors import AuditError
from repro.validate import (
    InvariantAuditor,
    attach_auditor,
    drive_lockstep,
    engine_equivalence,
    generate_ops,
    zoo_lockstep,
)
from repro.validate import fuzz as fuzz_mod
from repro.validate import golden

AUDIT_SCHEMES = ("Baseline", "IR-ORAM", "LLC-D", "Rho", "Ring")


def warmed_controller(scheme="Baseline", records=40, seed=5):
    """A controller with some real traffic already through it."""
    config = SystemConfig.tiny()
    components = build_scheme(scheme, config)
    ops = generate_ops(records, config.oram.user_blocks, seed,
                       idle_fraction=0.0)
    from repro.oram.types import Request, RequestKind

    controller = components.controller
    now = 0
    for _, block, is_write in ops:
        request = Request(block=block, kind=RequestKind.READ, arrival=now,
                          is_write=is_write)
        controller.enqueue(request)
        for _ in range(400):
            if request.completion is not None:
                break
            result = controller.step(now, allow_dummy=False)
            now = now + 1 if result is None else max(
                now + 1, result.finish_write
            )
    return controller


class TestAuditorCatchesCorruption:
    """Each corruption class from the fuzzer's fault catalog is caught."""

    @pytest.fixture
    def audited(self):
        controller = warmed_controller()
        return controller, InvariantAuditor(controller, every=1)

    def test_clean_machine_passes(self, audited):
        controller, auditor = audited
        report = auditor.audit_now()
        assert report.blocks_verified == controller.namespace.total_blocks

    @pytest.mark.parametrize("fault_name", sorted(fuzz_mod.FAULTS))
    def test_fault_detected(self, audited, fault_name):
        controller, auditor = audited
        auditor.audit_now()  # sane before the corruption
        fuzz_mod.FAULTS[fault_name](controller)
        with pytest.raises(AuditError):
            auditor.audit_now()

    def test_stash_bound_violation_detected(self, audited):
        controller, auditor = audited
        controller.stash.peak_occupancy = (
            controller.oram.stash_capacity + 1
        )
        with pytest.raises(AuditError, match="stash bound"):
            auditor.audit_now()

    def test_queue_mirror_divergence_detected(self, audited):
        controller, auditor = audited
        victim = controller.namespace.user_blocks  # first posmap block
        controller._limbo.add(victim)
        with pytest.raises(AuditError):
            auditor.audit_now()

    @pytest.mark.parametrize("fault", ["residency flag", "set count"])
    def test_sstash_corruption_detected(self, fault):
        """A resident block's flag cleared, or a set count one off,
        breaks the S-Stash mirror of the tree top."""
        from repro.core.ir_stash import RESIDENT

        controller = warmed_controller("IR-ORAM")
        auditor = InvariantAuditor(controller, every=1)
        auditor.audit_now()
        treetop = controller.treetop
        block = treetop.resident_blocks()[0]
        if fault == "residency flag":
            treetop._set_index[block] ^= RESIDENT
        else:
            treetop._set_count[treetop.set_of(block)] += 1
        with pytest.raises(AuditError, match="S-Stash"):
            auditor.audit_now()

    def test_merkle_corruption_detected(self):
        from repro.oram.integrity import attach_integrity

        controller = warmed_controller()
        attach_integrity(controller)
        auditor = InvariantAuditor(controller, every=1)
        auditor.audit_now()
        # forge a stored hash: invisible to the location sweep, so only
        # the Merkle spot check can catch it
        controller.integrity.forge_stored_hash(1, 0)
        with pytest.raises(AuditError, match="Merkle"):
            auditor.audit_now()

    def test_timing_rate_violation_detected(self):
        from repro.oram.controller import SlotResult

        controller = warmed_controller()
        auditor = InvariantAuditor(controller, every=10**9,
                                   check_rate=True)

        def slot(start):
            return SlotResult(issued_path=True, path_type=None,
                              start=start, finish_read=start,
                              finish_write=start, completions=[])

        auditor.observe(slot(0))
        auditor.observe(slot(controller.oram.issue_interval))
        with pytest.raises(AuditError, match="timing-channel"):
            auditor.observe(
                slot(2 * controller.oram.issue_interval - 1)
            )


class TestBitIdentity:
    """Auditor-on runs are cycle- and counter-bit-identical (tentpole
    acceptance)."""

    @pytest.mark.parametrize("scheme", AUDIT_SCHEMES)
    def test_audited_run_identical(self, scheme):
        spec = api.RunSpec(scheme=scheme, workload="mix", records=250,
                           seed=9, config_name="tiny")
        plain = api.run(spec)
        audited = api.run(
            spec.with_obs(api.ObsOptions(audit=True, audit_every=8))
        )
        assert plain.result.cycles == audited.result.cycles
        assert plain.result.counters == audited.result.counters
        assert plain.result.instructions == audited.result.instructions

    def test_repro_audit_env_identical(self, monkeypatch):
        spec = api.RunSpec(scheme="IR-ORAM", workload="random",
                           records=200, seed=4, config_name="tiny")
        plain = api.run(spec)
        monkeypatch.setenv("REPRO_AUDIT", "16")
        audited = api.run(spec)
        assert plain.result.cycles == audited.result.cycles
        assert plain.result.counters == audited.result.counters

    def test_audit_events_reach_tracer(self):
        spec = api.RunSpec(
            scheme="Baseline", workload="mix", records=150, seed=3,
            config_name="tiny",
            obs=api.ObsOptions(audit=True, audit_every=8, ring_size=4096),
        )
        out = api.run(spec)
        audit_events = [e for e in out.events() if e.kind == "audit"]
        assert audit_events
        assert audit_events[-1].data["audits"] >= 1


class TestLockstepOracle:
    def test_single_scheme(self):
        config = SystemConfig.tiny()
        ops = generate_ops(50, config.oram.user_blocks, 2)
        result = drive_lockstep("Baseline", ops, seed=2)
        assert result.served > 0
        assert result.audits > 0

    def test_zoo_transcripts_agree(self):
        results = zoo_lockstep(ops_count=60, seed=6)
        assert set(results) == set(SCHEMES)
        digests = {r.read_digest() for r in results.values()}
        assert len(digests) == 1

    def test_read_divergence_raises(self):
        config = SystemConfig.tiny()
        ops = generate_ops(40, config.oram.user_blocks, 8)
        # corrupting the posmap mid-run must surface as an AuditError
        # (invariant sweep), never as a silent wrong read
        fault = (len(ops) // 2, fuzz_mod.FAULTS["corrupt-mapping"])
        with pytest.raises(AuditError):
            drive_lockstep("Baseline", ops, seed=8, fault=fault)

    def test_engine_equivalence_serial_vs_parallel(self):
        mismatches = engine_equivalence(
            schemes=("Baseline", "IR-ORAM", "Rho"), records=150, jobs=2,
        )
        assert mismatches == []


class TestGoldenCorpus:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(golden, "GOLDEN_RECORDS", 120)
        monkeypatch.setattr(
            golden, "GOLDEN_WORKLOADS", ("random",), raising=True
        )
        path = str(tmp_path / "golden.json")
        golden.save(golden.snapshot(), path)
        assert golden.check(path) == []

    def test_corrupted_entry_caught(self, tmp_path, monkeypatch):
        monkeypatch.setattr(golden, "GOLDEN_RECORDS", 120)
        monkeypatch.setattr(
            golden, "GOLDEN_WORKLOADS", ("random",), raising=True
        )
        path = str(tmp_path / "golden.json")
        document = golden.snapshot()
        key = sorted(document["entries"])[0]
        document["entries"][key]["cycles"] += 1  # digest now stale
        golden.save(document, path)
        problems = golden.verify_integrity(golden.load(path))
        assert any("corrupted" in p for p in problems)

    def test_committed_corpus_is_internally_consistent(self):
        # the committed file's digests must verify without running anything
        document = golden.load(golden.DEFAULT_PATH)
        assert golden.verify_integrity(document) == []
        assert len(document["entries"]) == 2 * len(SCHEMES)


class TestFuzzer:
    def test_injected_faults_all_caught(self, tmp_path):
        report = fuzz_mod.fuzz(
            len(fuzz_mod.FAULTS) * 2, base_seed=21, inject_faults=True,
            ops_count=30, artifact_dir=str(tmp_path),
        )
        assert report.ok, [f.signature for f in report.failures]

    def test_failure_persists_shrinks_and_replays(self, tmp_path):
        config = SystemConfig.tiny()
        case = fuzz_mod.FuzzCase(
            scheme="Baseline", seed=3,
            ops=generate_ops(40, config.oram.user_blocks, 3),
            fault=("drop-block", 10),
        )
        signature = fuzz_mod.run_case(case)
        assert signature is not None and "AuditError" in signature
        minimal = fuzz_mod.shrink(case, signature)
        assert len(minimal.ops) < len(case.ops)
        path = fuzz_mod.persist(minimal, signature, str(tmp_path))
        replayed_case, replayed_signature = fuzz_mod.replay(path)
        assert replayed_signature == signature
        assert replayed_case.ops == minimal.ops

    def test_clean_zoo_survives_fuzzing(self, tmp_path):
        report = fuzz_mod.fuzz(
            6, base_seed=300, inject_faults=False, ops_count=30,
            artifact_dir=str(tmp_path),
        )
        assert report.ok, [f.signature for f in report.failures]
        assert not os.listdir(tmp_path)  # no artifacts for a clean run
