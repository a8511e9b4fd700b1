"""Seed-sweep equivalence: optimized hot paths vs the reference write phase.

The optimized write phase (in-order stash grouping + optional C kernels)
must be *bit-identical* to the retained reference implementation
(``PathORAMController._write_path_reference``): same cycles, same path
counts, same counters, for any seed.  These tests run whole simulations
both ways and compare everything.
"""

import random

import pytest

from repro.api import RunSpec, run
from repro.config import SystemConfig
from repro.core.ir_stash import SStash
from repro.core.schemes import build_scheme
from repro.oram.controller import PathORAMController
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator
from repro.traces.synthetic import random_trace

SCHEMES = ["Baseline", "IR-Stash", "IR-ORAM"]
SEEDS = [1, 2, 3, 4, 5]


def _fingerprint(result):
    return (
        result.cycles,
        tuple(sorted(result.path_counts.items())),
        tuple(sorted(result.counters.items())),
    )


def _run(scheme, seed, reference=False, monkeypatch=None):
    config = SystemConfig.tiny()
    if reference:
        monkeypatch.setattr(
            PathORAMController,
            "_write_path",
            PathORAMController._write_path_reference,
        )
    return run(RunSpec(
        scheme=scheme, workload="random", config=config, records=220,
        seed=seed,
    )).result


class TestWritePhaseEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reference_identical(self, scheme, seed, monkeypatch):
        optimized = _fingerprint(_run(scheme, seed))
        reference = _fingerprint(
            _run(scheme, seed, reference=True, monkeypatch=monkeypatch)
        )
        assert optimized == reference

    def test_reference_is_actually_different_code(self):
        assert (
            PathORAMController._write_path
            is not PathORAMController._write_path_reference
        )


class TestNativeFallbackEquivalence:
    """The pure-Python fallbacks must match the C kernels exactly."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fallback_identical(self, scheme, monkeypatch):
        from repro.perf import native

        if native.fastpath is None:
            pytest.skip("native kernels unavailable; nothing to compare")
        with_native = _fingerprint(_run(scheme, seed=11))

        import repro.mem.dram as dram
        import repro.oram.controller as controller

        monkeypatch.setattr(dram, "_native", None)
        monkeypatch.setattr(controller, "_fastpath", None)
        without_native = _fingerprint(_run(scheme, seed=11))
        assert with_native == without_native


class TestSStashPlacesInKernel:
    """With the kernel loaded, S-Stash schemes place and release in C.

    No Python S-Stash hook runs: the read phase releases S-Stash entries
    inside ``access_path`` and PLB tree-top promotions release theirs
    inside ``translate``.
    """

    @pytest.mark.parametrize("scheme", ["IR-Stash", "IR-ORAM"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_python_placement_loop(self, scheme, seed, monkeypatch):
        from repro.perf import native

        if native.fastpath is None:
            pytest.skip("native kernels unavailable; nothing to compare")
        # Built by hand so the hooks are counted from the first slot on,
        # not during the tree-top mirroring of tree initialization.
        config = SystemConfig.tiny()
        components = build_scheme(scheme, config, rng=random.Random(seed))
        trace = make_workload("random", config, 220, seed)
        calls = []
        for name in ("may_place", "on_place", "on_remove"):
            original = getattr(SStash, name)

            def counted(self, block, _name=name, _original=original):
                calls.append(_name)
                return _original(self, block)

            monkeypatch.setattr(SStash, name, counted)
        kernel = Simulator(components, trace).run()
        monkeypatch.undo()
        assert calls.count("may_place") == calls.count("on_place") == 0
        assert calls.count("on_remove") == 0
        assert kernel.counters.get("sstash.removed", 0) > 0
        reference = _run(scheme, seed, reference=True, monkeypatch=monkeypatch)
        # Rejections on a full set really happen, and the kernel counts
        # placements, skips and releases exactly as the Python hooks do.
        for key in ("sstash.placed", "sstash.placement_skips",
                    "sstash.removed"):
            assert kernel.counters.get(key, 0) > 0
            assert kernel.counters[key] == reference.counters[key]


class TestEvictionPressureEquivalence:
    """A tiny stash forces background evictions through both write phases."""

    def test_under_eviction_pressure(self, monkeypatch):
        from dataclasses import replace

        config = SystemConfig.tiny()
        config = config.with_oram(
            replace(config.oram, eviction_threshold=8)
        )

        def run(reference):
            if reference:
                monkeypatch.setattr(
                    PathORAMController,
                    "_write_path",
                    PathORAMController._write_path_reference,
                )
            components = build_scheme(
                "Baseline", config, rng=random.Random(3)
            )
            trace = random_trace(200, config.oram.user_blocks, random.Random(3))
            result = Simulator(components, trace).run()
            monkeypatch.undo()
            return _fingerprint(result)

        assert run(reference=False) == run(reference=True)
