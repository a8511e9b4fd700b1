"""Directed coverage of the pure-Python fallback paths.

CI runs the whole tier-1 suite twice — once with the C kernels, once with
``REPRO_FASTPATH=0`` — so every fallback is exercised end to end.  These
tests additionally pin each fallback against its native twin *within one
process* (skipped where the kernels are unavailable, i.e. on the
``REPRO_FASTPATH=0`` leg itself, where the fallbacks are the only
implementation and the whole suite covers them).
"""

import random
from array import array

import pytest

from repro import api
from repro.config import DRAMConfig, SystemConfig
from repro.core.schemes import build_scheme
from repro.mem.dram import DRAMModel
from repro.obs import events as ev
from repro.oram.controller import PathORAMController
from repro.perf import native
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator


def _random_triples(rng, count, config):
    triples = array("q")
    n_banks = config.channels * config.banks_per_channel
    for _ in range(count):
        bank = rng.randrange(n_banks)
        triples.extend((bank, bank // config.banks_per_channel,
                        rng.randrange(64)))
    return triples


class TestServicePyOracle:
    @pytest.mark.skipif(native.fastpath is None,
                        reason="native kernels unavailable")
    def test_service_py_matches_native_kernel(self):
        config = DRAMConfig()
        rng = random.Random(42)
        with_native = DRAMModel(config)
        pure = DRAMModel(config)
        finish_native = finish_pure = 0
        for _ in range(20):
            triples = _random_triples(rng, rng.randrange(1, 12), config)
            finish_native = with_native.service_decomposed(
                triples, False, finish_native
            )
            now_dram = -(-finish_pure // config.cpu_cycles_per_dram_cycle)
            finish, hits, conflicts = pure._service_py(triples, now_dram)
            finish_pure = finish * config.cpu_cycles_per_dram_cycle
            assert finish_native == finish_pure
        assert with_native.stats.get("dram.row_hits") > 0
        assert with_native.bank_open_row == pure.bank_open_row
        assert with_native.bank_ready == pure.bank_ready

    def test_service_py_runs_without_native(self, monkeypatch):
        import repro.mem.dram as dram_mod

        monkeypatch.setattr(dram_mod, "_native", None)
        dram = DRAMModel(DRAMConfig())
        finish = dram.service_addresses([0, 1, 2, 3], False, 0)
        assert finish > 0
        assert dram.stats.get("dram.row_hits") == 3


class TestControllerFallbacks:
    def _dummy_loop(self, controller, paths=40):
        now = 0
        for _ in range(paths):
            now = controller.dummy_path(now).finish_write
        return now, dict(controller.stats.counters)

    @pytest.mark.skipif(native.fastpath is None,
                        reason="native kernels unavailable")
    def test_non_native_stash_add_identical(self):
        config = SystemConfig.tiny()
        fast = PathORAMController(config, rng=random.Random(9))
        slow = PathORAMController(config, rng=random.Random(9))
        slow._native = None
        fast_out = self._dummy_loop(fast)
        slow_out = self._dummy_loop(slow)
        assert fast_out == slow_out

        # IR-Stash on real accesses, which fill the cached top: the read
        # phase releases S-Stash entries in C or in Python alike.
        def run_ir_stash(natives):
            components = build_scheme(
                "IR-Stash", config, rng=random.Random(9)
            )
            if not natives:
                components.controller._native = None
            trace = make_workload("random", config, 220, 9)
            return Simulator(components, trace).run()

        fast_run = run_ir_stash(natives=True)
        slow_run = run_ir_stash(natives=False)
        assert fast_run.cycles == slow_run.cycles
        assert fast_run.counters == slow_run.counters
        assert fast_run.counters.get("sstash.removed", 0) > 0

    @pytest.mark.skipif(native.fastpath is None,
                        reason="native kernels unavailable")
    @pytest.mark.parametrize("scheme", ["Baseline", "IR-ORAM"])
    def test_traced_events_identical(self, scheme, monkeypatch):
        import repro.mem.dram as dram_mod
        import repro.oram.controller as controller_mod

        def events():
            seen = []
            api.run(api.RunSpec(
                scheme=scheme, workload="mix", config=SystemConfig.tiny(),
                records=300, seed=3,
                obs=api.ObsOptions(callback=seen.append),
            ))
            return [event.to_dict() for event in seen]

        kernel = events()
        monkeypatch.setattr(dram_mod, "_native", None)
        monkeypatch.setattr(controller_mod, "_fastpath", None)
        pure = events()
        # One stash.hwm per read phase that raises the peak, on both tiers.
        assert any(event["kind"] == ev.STASH_HWM for event in kernel)
        assert kernel == pure

    def test_reference_write_phase_runs(self, monkeypatch):
        # _write_path_reference is the retained oracle; make sure it still
        # drives a full dummy-path loop on its own.
        monkeypatch.setattr(
            PathORAMController,
            "_write_path",
            PathORAMController._write_path_reference,
        )
        controller = PathORAMController(
            SystemConfig.tiny(), rng=random.Random(2)
        )
        now, counters = self._dummy_loop(controller, paths=20)
        assert now > 0
        assert counters["paths.total"] == 20
