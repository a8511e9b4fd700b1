"""Tests for the ``repro.api`` facade."""

import json
import warnings

import pytest

from repro import api
from repro.__main__ import main
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.sim.runner import make_workload

TINY = SystemConfig.tiny()


def fingerprint(result):
    return (result.cycles, result.path_counts, dict(result.counters))


class TestRunSpec:
    def test_frozen_and_hashable(self):
        spec = api.RunSpec(scheme="Baseline", workload="gcc")
        with pytest.raises(Exception):
            spec.scheme = "IR-ORAM"
        assert hash(spec) == hash(api.RunSpec(scheme="Baseline", workload="gcc"))

    def test_resolve_named_configs(self):
        assert api.RunSpec().resolve_config() == SystemConfig.scaled()
        assert (
            api.RunSpec(config_name="scaled", levels=11).resolve_config()
            == SystemConfig.scaled(levels=11)
        )
        assert api.RunSpec(config_name="paper").resolve_config() == (
            SystemConfig.paper()
        )
        assert api.RunSpec(config_name="tiny").resolve_config() == (
            SystemConfig.tiny()
        )

    def test_explicit_config_wins(self):
        spec = api.RunSpec(config=TINY, config_name="paper")
        assert spec.resolve_config() == TINY

    def test_unknown_config_name(self):
        with pytest.raises(ConfigError):
            api.RunSpec(config_name="warehouse").resolve_config()

    def test_paper_platform_refuses_levels(self):
        """Table I's tree is fixed at L=25; a depth would be dropped."""
        with pytest.raises(ConfigError, match="paper"):
            api.RunSpec(config_name="paper", levels=30).resolve_config()

    def test_with_obs(self):
        spec = api.RunSpec().with_obs(api.ObsOptions(ring_size=10))
        assert spec.obs.ring_size == 10
        assert api.RunSpec().obs.ring_size == 0


class TestObsOptions:
    def test_disabled_by_default(self):
        obs = api.ObsOptions()
        assert not obs.tracing and not obs.enabled

    def test_metrics_only_needs_no_tracer(self):
        obs = api.ObsOptions(metrics_out="m.json")
        assert obs.enabled and not obs.tracing

    def test_any_trace_option_enables_tracing(self):
        assert api.ObsOptions(trace_out="t.jsonl").tracing
        assert api.ObsOptions(ring_size=5).tracing
        assert api.ObsOptions(progress_every=10).tracing
        assert api.ObsOptions(callback=lambda event: None).tracing


class TestFacadeEquivalence:
    def test_deterministic_for_fixed_seed(self):
        spec = api.RunSpec(
            scheme="IR-ORAM", workload="mix", records=250, seed=9, config=TINY
        )
        assert fingerprint(api.run(spec).result) == fingerprint(
            api.run(spec).result
        )

    def test_wall_time_recorded(self):
        out = api.run(api.RunSpec(records=150, config=TINY))
        assert out.wall_s > 0


class TestRunMany:
    def test_input_order_and_serial_equivalence(self):
        specs = [
            api.RunSpec(scheme=scheme, workload="gcc", records=200,
                        seed=7, config=TINY)
            for scheme in ("Baseline", "IR-Alloc", "IR-Stash")
        ]
        batch = api.run_many(specs, jobs=1)
        assert [out.spec.scheme for out in batch] == [
            "Baseline", "IR-Alloc", "IR-Stash"
        ]
        for spec, out in zip(specs, batch):
            assert fingerprint(out.result) == fingerprint(api.run(spec).result)

    def test_parallel_matches_serial(self):
        specs = [
            api.RunSpec(scheme="Baseline", workload="gcc", records=200,
                        seed=seed, config=TINY)
            for seed in (1, 2)
        ]
        serial = [fingerprint(out.result) for out in api.run_many(specs, jobs=1)]
        parallel = [
            fingerprint(out.result) for out in api.run_many(specs, jobs=2)
        ]
        assert serial == parallel


class TestShimsDeprecation:
    """The public entry points raise no DeprecationWarning."""

    def test_make_workload_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_workload("gcc", TINY, 50)

    def test_facade_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.run(api.RunSpec(records=100, config=TINY))


class TestCLI:
    def test_run_with_obs_flags(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        code = main([
            "run", "Baseline", "gcc", "--records", "200", "--levels", "9",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
            "--progress-every", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles=" in out and "busy:" in out
        assert trace.exists() and metrics.exists()
        payload = json.loads(metrics.read_text())
        assert payload["counters"]["sim.cycles"] > 0

    def test_inspect_command(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main([
            "run", "Baseline", "gcc", "--records", "200", "--levels", "9",
            "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "events" in out and "path.read" in out
        assert main(["inspect", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] > 0

    def test_compare_with_jobs(self, capsys):
        code = main([
            "compare", "gcc", "--schemes", "Baseline", "IR-Alloc",
            "--records", "200", "--levels", "9", "--jobs", "2",
        ])
        assert code == 0
        assert "speedup=" in capsys.readouterr().out

    def test_config_flag(self, capsys):
        code = main([
            "run", "Baseline", "gcc", "--records", "150", "--levels", "9",
            "--config", "scaled",
        ])
        assert code == 0
        assert "cycles=" in capsys.readouterr().out
