"""End-to-end tests for the ``repro validate`` CLI subcommand."""

import json
import os

import pytest

from repro.__main__ import main
from repro.validate import golden


@pytest.fixture(autouse=True)
def small_matrix(monkeypatch):
    """Shrink the golden matrix so CLI round trips stay fast."""
    monkeypatch.setattr(golden, "GOLDEN_RECORDS", 120)
    monkeypatch.setattr(golden, "GOLDEN_WORKLOADS", ("random",))


def test_regen_then_check_round_trip(tmp_path, capsys):
    path = str(tmp_path / "golden.json")
    assert main(["validate", "--regen", "--golden", path]) == 0
    assert os.path.exists(path)
    assert main(["validate", "--check", "--golden", path]) == 0
    out = capsys.readouterr().out
    assert "golden check OK" in out
    assert "lockstep oracle OK" in out
    assert "validate: PASS" in out


def test_check_fails_on_corrupted_golden(tmp_path, capsys):
    path = str(tmp_path / "golden.json")
    assert main(["validate", "--regen", "--golden", path]) == 0
    document = golden.load(path)
    key = sorted(document["entries"])[0]
    document["entries"][key]["cycles"] += 1  # stale digest too
    golden.save(document, path)
    assert main(["validate", "--check", "--golden", path]) == 1
    err = capsys.readouterr().err
    assert "corrupted" in err


def test_check_fails_on_drifted_golden(tmp_path, capsys):
    path = str(tmp_path / "golden.json")
    assert main(["validate", "--regen", "--golden", path]) == 0
    document = golden.load(path)
    key = sorted(document["entries"])[0]
    entry = document["entries"][key]
    entry["cycles"] += 1
    entry["digest"] = golden.entry_digest(entry)  # consistent but wrong
    golden.save(document, path)
    assert main(["validate", "--check", "--golden", path]) == 1
    err = capsys.readouterr().err
    assert "cycles" in err


def test_missing_golden_reports_cleanly(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    assert main(["validate", "--check", "--golden", path]) == 1
    assert "--regen" in capsys.readouterr().err


def test_fuzz_inject_faults_and_replay(tmp_path, capsys):
    artifact_dir = str(tmp_path / "failures")
    assert main([
        "validate", "--fuzz", "4", "--inject-faults",
        "--seed", "17", "--artifact-dir", artifact_dir,
    ]) == 0
    assert "0 failure(s)" in capsys.readouterr().out


def test_committed_corpus_covers_every_scheme(capsys):
    """The checked-in corpus must track the scheme zoo — including
    Pyramid — and every entry digest must be self-consistent, so a
    drifted or hand-edited corpus fails before any simulation runs."""
    from repro.core.schemes import SCHEMES

    document = golden.load(golden.DEFAULT_PATH)
    covered = {key.split("|")[0] for key in document["entries"]}
    assert covered == set(SCHEMES)
    assert "Pyramid" in covered
    assert len(document["entries"]) == 2 * len(SCHEMES)
    for key, entry in document["entries"].items():
        assert entry["digest"] == golden.entry_digest(entry), key


def test_distinguish_cli_smoke(tmp_path, capsys):
    """One clean scheme and one mutant through the real CLI path."""
    artifact_dir = str(tmp_path / "distinguish")
    assert main([
        "validate", "--distinguish",
        "--schemes", "Baseline", "--mutants", "skip-dummies",
        "--artifact-dir", artifact_dir,
    ]) == 0
    out = capsys.readouterr().out
    assert "scheme Baseline: clean" in out
    assert "mutant skip-dummies: DISTINGUISHABLE" in out
    assert "distinguish: PASS" in out
    artifacts = os.listdir(artifact_dir)
    assert len(artifacts) == 2

    # replaying a persisted verdict routes to the distinguisher, not
    # the fuzzer, and reproduces bit-for-bit
    path = os.path.join(artifact_dir, sorted(artifacts)[0])
    assert main(["validate", "--distinguish", "--replay", path]) == 0
    assert "bit-for-bit" in capsys.readouterr().out


def test_artifacts_default_to_the_cache_directory(
    tmp_path, monkeypatch, capsys
):
    """Without ``--artifact-dir``, distinguisher verdicts and fuzz
    failures land under ``REPRO_CACHE_DIR``, resolved when they are
    written, not in the working directory."""
    from repro.validate import fuzz as fuzz_mod

    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    monkeypatch.chdir(tmp_path)
    assert main([
        "validate", "--distinguish",
        "--schemes", "Baseline", "--mutants", "skip-dummies",
    ]) == 0
    capsys.readouterr()
    assert len(os.listdir(cache / "validate" / "distinguish")) == 2

    monkeypatch.setattr(
        fuzz_mod, "run_case", lambda case, config: "RuntimeError: boom"
    )
    report = fuzz_mod.fuzz(1, schemes=["Baseline"], ops_count=4)
    path = report.failures[0].artifact_path
    assert os.path.dirname(path) == str(cache / "validate" / "failures")
    assert os.path.exists(path)
    assert not os.path.exists(tmp_path / ".repro_cache")


def test_replay_reproduces_persisted_artifact(tmp_path, capsys):
    from repro.config import SystemConfig
    from repro.validate import fuzz as fuzz_mod
    from repro.validate.oracle import generate_ops

    config = SystemConfig.tiny()
    case = fuzz_mod.FuzzCase(
        scheme="Baseline", seed=3,
        ops=generate_ops(30, config.oram.user_blocks, 3),
        fault=("duplicate-block", 8),
    )
    signature = fuzz_mod.run_case(case)
    assert signature is not None
    path = fuzz_mod.persist(case, signature, str(tmp_path))
    assert main(["validate", "--replay", path]) == 0
    out = capsys.readouterr().out
    assert "reproduced" in out

    # an artifact whose failure no longer reproduces exits nonzero
    payload = case.to_dict()
    payload["fault"] = None
    payload["signature"] = signature
    clean = str(tmp_path / "clean.json")
    with open(clean, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    assert main(["validate", "--replay", clean]) == 1
