"""Which execution tier runs each path, and what an observer sees of it.

``engine.tier.*`` counts the paths the whole-access kernel
(``access_path``), the batch kernel (``run_batch``) and the pure-Python
phases ran.  Traced and observed runs go through the kernel too, so the
event stream and the observer's records of a native run must equal those
of a kernel-less run, event for event.
"""

import random

import pytest

import repro.mem.dram as dram_mod
import repro.oram.controller as controller_mod
from repro.api import RunSpec, run
from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.oram.controller import PathORAMController
from repro.perf import native
from repro.security.obliviousness import AccessRecorder
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator
from repro.stats import Stats

KERNEL = "engine.tier.kernel_paths"
BATCH = "engine.tier.batch_paths"
PYTHON = "engine.tier.python_paths"

needs_native = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


def _observed_run(scheme, workload, records=300, seed=5):
    """A traced run with an AccessRecorder attached, built by hand."""
    config = SystemConfig.tiny()
    stats = Stats()
    stats.tracer = Tracer([MemorySink(capacity=1_000_000)])
    components = build_scheme(scheme, config, stats, random.Random(seed))
    recorder = AccessRecorder()
    components.controller.observer = recorder
    trace = make_workload(workload, config, records, seed)
    result = Simulator(components, trace).run()
    events = [
        (event.kind, event.cycle, event.data)
        for event in stats.tracer.memory_events()
    ]
    return result, events, recorder.records, components.controller


def _without_kernels(monkeypatch):
    monkeypatch.setattr(controller_mod, "_fastpath", None)
    monkeypatch.setattr(dram_mod, "_native", None)


@needs_native
class TestTierCounters:
    def _run(self, **obs):
        from repro.api import ObsOptions

        return run(RunSpec(
            scheme="IR-ORAM", workload="xal", config=SystemConfig.tiny(),
            records=400, seed=6, obs=ObsOptions(**obs),
        ))

    def test_untraced_native_run_runs_no_python_paths(self):
        out = self._run()
        assert out.stats.get(PYTHON) == 0
        assert out.stats.get(KERNEL) > 0
        assert out.stats.get(KERNEL) + out.stats.get(BATCH) == (
            out.result.counters["paths.total"]
        )
        assert KERNEL not in out.result.counters

    def test_traced_native_run_runs_no_python_paths(self):
        out = self._run(ring_size=100)
        assert out.stats.get(PYTHON) == 0
        assert out.stats.get(BATCH) == 0  # traced runs step per slot
        assert out.stats.get(KERNEL) == out.result.counters["paths.total"]

    def test_observed_native_run_runs_no_python_paths(self):
        _, _, records, controller = _observed_run("IR-ORAM", "xal")
        tiers = controller.tier_counters()
        assert tiers[PYTHON] == 0
        assert tiers[KERNEL] == len(records) > 0

    def test_kernel_less_run_runs_no_kernel_paths(self, monkeypatch):
        _without_kernels(monkeypatch)
        out = self._run()
        assert out.stats.get(KERNEL) == 0
        assert out.stats.get(BATCH) == 0
        assert out.stats.get(PYTHON) == out.result.counters["paths.total"]

    def test_write_phase_reference_runs_python_paths(self, monkeypatch):
        """The reference monkeypatch takes the run off the kernel."""
        monkeypatch.setattr(
            PathORAMController, "_write_path",
            PathORAMController._write_path_reference,
        )
        out = self._run()
        assert out.stats.get(PYTHON) == out.result.counters["paths.total"]
        assert out.stats.get(PYTHON) > 0


@needs_native
@pytest.mark.parametrize("scheme", ["Baseline", "IR-ORAM", "LLC-D"])
def test_native_event_stream_matches_kernel_less_run(scheme, monkeypatch):
    native_run = _observed_run(scheme, "mix")
    assert native_run[3].tier_counters()[KERNEL] > 0
    _without_kernels(monkeypatch)
    python_run = _observed_run(scheme, "mix")
    assert python_run[3].tier_counters()[KERNEL] == 0
    result, events, records, _ = native_run
    assert result.cycles == python_run[0].cycles
    assert result.counters == python_run[0].counters
    assert len(events) > 0
    assert events == python_run[1]
    assert records == python_run[2]


@needs_native
def test_phase_hooks_select_the_python_tier(monkeypatch):
    """Hooks that change behaviour take a controller off the kernel; a
    class-level timing wrapper (perfbench's traced mode) does not."""
    import functools

    from repro.oram.integrity import attach_integrity
    from repro.oram.posmap import PositionMap
    from repro.security.mutants import build_mutant

    config = SystemConfig.tiny()
    assert PathORAMController(config)._kernel_tier()
    hooked = PathORAMController(config)
    attach_integrity(hooked)
    assert not hooked._kernel_tier()
    mutant = build_mutant("biased-remap", config).controller
    assert not mutant._kernel_tier()

    original = PositionMap.remap

    @functools.wraps(original)
    def timed(self, block):
        return original(self, block)

    monkeypatch.setattr(PositionMap, "remap", timed)
    assert PathORAMController(config)._kernel_tier()
