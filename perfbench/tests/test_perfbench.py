"""Self-test of the benchmark harness on tiny versions of its workloads.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402

TINY = {"records": 150, "levels": 11}
TARGETS = [layers.SIM_ROOT, *(t for _, _, ts in layers.LAYERS for t in ts)]


@pytest.fixture(scope="module", autouse=True)
def _prepared():
    harness.prepare()


def _tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name], **TINY)


def _attributes():
    """Each wrapped target's own attribute on its owner (None: inherited)."""
    state = {}
    for target in TARGETS:
        owner, attr = layers.resolve(target)
        state[target] = vars(owner).get(attr)
    return state


def _declared(kind):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_tiny_pass_emits_every_metric_and_closes(name):
    before = _attributes()
    workload = _tiny(name)
    plain = harness.measure(workload, seed=1, seconds=0, traced=False)
    expected = plain.reps[0].digest
    traced = harness.measure(workload, seed=1, seconds=0, traced=True,
                             expected=expected)
    assert _attributes() == before, "a wrapper outlived its run"

    assert (plain.attempted, plain.failed) == (harness.MIN_REPS, 0)
    assert (traced.attempted, traced.failed) == (2, 0)
    assert {rep.digest for rep in plain.reps + traced.reps} == {expected}
    assert {rep.traced for rep in traced.reps} == {False, True}
    # the reference kernel runs around every repetition of a plain run
    assert all(rep.ref_s != hostspeed.REFERENCE_S for rep in plain.reps)

    units = {metric: unit for metric, (_, unit) in plain.metrics.items()}
    assert units == _declared("end_to_end")
    units = {metric: unit for metric, (_, unit) in traced.metrics.items()}
    assert units == _declared("per_layer")

    (rep,) = [rep for rep in traced.reps if rep.traced]
    layer_sum = sum(rep.layer[metric] for metric, unit in harness.PER_LAYER
                    if unit == "s")
    assert abs(rep.wall_s - layer_sum) <= harness.CLOSURE_TOLERANCE * rep.wall_s
    assert plain.as_json()["correct"] and traced.as_json()["correct"]


def test_wrong_digest_is_a_failed_operation():
    report = harness.measure(_tiny("sparse-xal"), seed=2, seconds=0,
                             traced=False, expected="0" * 64)
    assert report.failed == report.attempted == harness.MIN_REPS
    assert not report.as_json()["correct"]


def test_recorded_digests_cover_every_workload_and_input_seed():
    for workload in harness.WORKLOADS.values():
        for seed in range(harness.INPUT_SEEDS):
            assert harness.expected_digest(workload, seed) is not None


def _cli(cwd, env):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-xal",
         "--seconds", "0"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120, check=False,
    )


def _clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def test_cli_refuses_repro_environment_knobs():
    proc = _cli(ROOT, {**_clean_env(), "REPRO_BATCH_SLOTS": "0"})
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "REPRO_BATCH_SLOTS" in proc.stderr


def test_cli_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli(tmp_path, _clean_env())
    assert proc.returncode != 0
    assert proc.stdout == ""
