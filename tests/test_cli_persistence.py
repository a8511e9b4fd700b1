"""Tests for the CLI entry point and result persistence."""

import pytest

from repro.__main__ import build_parser, main
from repro.api import RunSpec, run
from repro.config import SystemConfig
from repro.errors import ReproError
from repro.sim.persistence import (
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)


class TestCLI:
    def test_parser_rejects_unknown_scheme(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "NotAScheme", "gcc"])

    def test_schemes_command(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "IR-ORAM" in out

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "random" in out

    def test_run_command(self, capsys):
        code = main(
            ["run", "Baseline", "gcc", "--records", "300", "--levels", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles=" in out and "PTd" in out

    def test_compare_command(self, capsys):
        code = main(
            [
                "compare", "gcc",
                "--schemes", "Baseline", "IR-Alloc",
                "--records", "300", "--levels", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup=" in out

    def test_zsearch_command(self, capsys):
        code = main(
            ["zsearch", "--records", "250", "--levels", "9",
             "--max-space-reduction", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "z vector" in out


class TestPersistence:
    @pytest.fixture
    def result(self):
        return run(RunSpec(
            scheme="Baseline", workload="gcc", config=SystemConfig.tiny(),
            records=200,
        )).result

    def test_round_trip(self, result, tmp_path):
        path = save_results([result], tmp_path / "results.json")
        loaded = load_results(path)
        assert len(loaded) == 1
        restored = loaded[0]
        assert restored.cycles == result.cycles
        assert restored.path_counts == result.path_counts
        assert restored.hit_levels == result.hit_levels
        assert restored.speedup_over(result) == pytest.approx(1.0)

    def test_int_keys_survive(self, result, tmp_path):
        result.hit_levels = {3: 5.0, "stash": 2.0}
        path = save_results([result], tmp_path / "r.json")
        restored = load_results(path)[0]
        assert restored.hit_levels == {3: 5.0, "stash": 2.0}

    def test_version_check(self, result):
        payload = result_to_dict(result)
        payload["version"] = 99
        with pytest.raises(ReproError):
            result_from_dict(payload)

    def test_non_list_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ReproError):
            load_results(path)
