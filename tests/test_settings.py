"""Settings travel as arguments, not through the environment.

Two guards:

* an inventory of the ``REPRO_*`` environment knobs under ``src/repro``
  (the deployment paths, the kernel switch and CI's audit override) and
  of the code that writes ``os.environ`` — only the chaos harness does,
  to point forked workers at its scratch cache;
* ``repro experiments`` refuses bad settings and unknown experiment ids
  in argparse, before any worker pool starts, and hands good ones to
  every work item; ``run``, ``compare`` and ``zsearch`` refuse a
  non-positive ``--records``, a negative ``--seed`` and a ``--levels``
  the platform cannot take (any, for ``--config paper``) the same way,
  and ``validate`` a non-positive ``--jobs`` and a negative ``--seed``
  or ``--fuzz``.
"""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.config import SystemConfig
from repro.experiments import fig02_path_types
from repro.perf import engine

SRC = Path(repro.__file__).parent

#: every environment knob the package may read
SURVIVORS = {
    "REPRO_AUDIT",
    "REPRO_CACHE_DIR",
    "REPRO_DISK_CACHE",
    "REPRO_FASTPATH",
    "REPRO_FASTPATH_CACHE",
}

#: ``os.environ`` methods that change the environment
_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def _sources():
    return sorted(
        path for path in SRC.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )


def _is_environ(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _environ_writes(tree) -> int:
    writes = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            writes += isinstance(node.ctx, (ast.Store, ast.Del))
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            func = node.func
            writes += (
                _is_environ(func.value) and func.attr in _MUTATORS
            ) or (
                isinstance(func.value, ast.Name)
                and func.value.id == "os"
                and func.attr in ("putenv", "unsetenv")
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            writes += any(
                alias.name in ("environ", "putenv", "unsetenv")
                for alias in node.names
            )
    return writes


class TestKnobInventory:
    def test_only_the_five_survivors_are_named(self):
        names = set()
        for path in _sources():
            names.update(
                match.decode()
                for match in re.findall(rb"REPRO_[A-Z_]+", path.read_bytes())
            )
        assert names == SURVIVORS

    def test_only_the_chaos_harness_writes_the_environment(self):
        writers = {
            path.relative_to(SRC).as_posix()
            for path in _sources()
            if path.suffix == ".py"
            and _environ_writes(ast.parse(path.read_text()))
        }
        assert writers == {"validate/chaos.py"}

    def test_the_scan_sees_a_write(self):
        tree = ast.parse(
            "import os\nos.environ['X'] = '1'\nos.environ.pop('X')\n"
            "del os.environ['Y']\nos.putenv('Z', '')\n"
        )
        assert _environ_writes(tree) == 4
        assert _environ_writes(ast.parse("os.environ.get('X')")) == 0


class TestExperimentSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--records", "-5", "--jobs", "2", "Table II", "Fig. 16"],
            ["--records", "0", "--jobs", "2", "Table II", "Fig. 16"],
            ["--workloads", "bogus", "--jobs", "2", "Table II", "Fig. 16"],
            ["--workloads", "gcc,bogus", "Fig. 2"],
            ["--workloads", ",", "Fig. 2"],
            ["--jobs", "0", "Table II", "Fig. 16"],
            ["--jobs", "-1", "Table II", "Fig. 16"],
            ["Fig 10"],
        ],
    )
    def test_bad_setting_exits_2_before_any_pool(self, argv, capsys):
        starts = engine.engine_counters().get("engine.pool_starts", 0)
        with pytest.raises(SystemExit) as exit_info:
            main(["experiments", *argv])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert engine.engine_counters().get("engine.pool_starts", 0) == starts

    def test_settings_reach_the_workers(self, capsys):
        """``--jobs 2`` regenerates in pool workers; the table they print
        is the one a direct call with the same arguments builds."""
        expected = fig02_path_types.run(
            SystemConfig.scaled(), records=200, workloads=["gcc", "mcf"],
            seed=3,
        ).to_text()
        assert main([
            "experiments", "--records", "200", "--seed", "3",
            "--workloads", "gcc,mcf", "--jobs", "2", "Fig. 2", "Table I",
        ]) == 0
        assert expected in capsys.readouterr().out

    def test_markdown_report(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main([
            "experiments", "--markdown", str(path), "Table I", "Fig. 7",
        ]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        text = path.read_text()
        assert "Table I" in text and "Fig. 7" in text

    def test_unknown_id_names_the_valid_ones(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiments", "Fig 10"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'Fig 10'" in err and "Fig. 10" in err


class TestPlatformSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "mix", "--records", "-5", "--jobs", "2"],
            ["compare", "mix", "--seed", "-1", "--jobs", "2"],
            ["run", "Baseline", "mix", "--records", "-5"],
            ["run", "Baseline", "mix", "--records", "0"],
            ["run", "Baseline", "mix", "--levels", "0", "--records", "50"],
            ["run", "Baseline", "mix", "--levels", "1", "--records", "50"],
            ["run", "Baseline", "mix", "--levels", "2", "--records", "50"],
            ["compare", "mix", "--levels", "-3", "--jobs", "2"],
            ["compare", "mix", "--jobs", "-1", "--records", "50",
             "--schemes", "Baseline"],
            ["compare", "mix", "--jobs", "0", "--records", "50"],
            ["zsearch", "--records", "-5"],
            ["zsearch", "--levels", "1"],
            ["run", "Baseline", "mix", "--config", "paper", "--levels",
             "30", "--records", "50"],
            ["compare", "mix", "--config", "paper", "--levels", "25",
             "--jobs", "2", "--records", "50"],
            ["zsearch", "--config", "paper", "--levels", "25"],
            ["validate", "--check", "--jobs", "-1"],
            ["validate", "--check", "--jobs", "0"],
            ["validate", "--chaos", "--seed", "-1"],
            ["validate", "--fuzz", "1", "--seed", "-7"],
            ["validate", "--fuzz", "-3"],
        ],
    )
    def test_bad_setting_exits_2_before_any_pool(self, argv, capsys):
        starts = engine.engine_counters().get("engine.pool_starts", 0)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert engine.engine_counters().get("engine.pool_starts", 0) == starts
