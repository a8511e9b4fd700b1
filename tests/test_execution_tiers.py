"""Which execution tier runs each path, and what an observer sees of it.

``engine.tier.*`` counts the paths the kernels ran whole (``access_path``
or real paths in ``drain_slots``), a drain's dummy paths and the
pure-Python paths, and records whether the setup kernel (``init_tree``)
built the tree.  Traced and observed runs go through the kernel too, so
the event stream and the observer's records of a native run must equal
those of a kernel-less run, event for event.
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
from tests.conftest import CountingKernels
from tests.tiers import snapshot

KERNEL = "engine.tier.kernel_paths"
BATCH = "engine.tier.batch_paths"
PYTHON = "engine.tier.python_paths"
SETUP = "engine.tier.kernel_setup"

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
        assert out.stats.get(SETUP) == 1
        assert KERNEL not in out.result.counters
        assert SETUP not in out.result.counters

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
        assert out.stats.get(SETUP) == 0

    def test_write_phase_reference_runs_python_paths(self, monkeypatch):
        """The reference monkeypatch takes the run off the kernel."""
        monkeypatch.setattr(
            PathORAMController, "_write_path",
            PathORAMController._write_path_reference,
        )
        out = self._run()
        assert out.stats.get(PYTHON) == out.result.counters["paths.total"]
        assert out.stats.get(PYTHON) > 0


class _SubclassedRandom(random.Random):
    """Draws exactly what ``random.Random`` draws, but is not one."""


def _run_on(rng):
    components = build_scheme(
        "IR-ORAM", SystemConfig.tiny(), Stats(), rng
    )
    trace = make_workload("xal", components.config, 400, 6)
    result = Simulator(components, trace).run()
    controller = components.controller
    return result, controller, snapshot(
        controller, ("tree", "stash", "posmap", "rng")
    )


@needs_native
def test_random_subclass_runs_the_python_tier():
    """The kernels inline ``random.Random``'s own draws, so a subclass
    runs setup and every path in Python, with the same outcome."""
    plain, plain_controller, plain_state = _run_on(random.Random(6))
    sub, sub_controller, sub_state = _run_on(_SubclassedRandom(6))
    assert plain_controller.tier_counters()[SETUP] == 1
    tiers = sub_controller.tier_counters()
    assert tiers[SETUP] == 0
    assert tiers[PYTHON] == sub.counters["paths.total"] > 0
    assert sub.cycles == plain.cycles
    assert sub.counters == plain.counters
    assert sub_state == plain_state


#: Rho walks the translation chain from its own main-tree slots and
#: IR-DWB from the dummy slot it converts; both must translate in C.
@needs_native
@pytest.mark.parametrize(
    "scheme", ["Baseline", "IR-ORAM", "LLC-D", "Rho", "IR-DWB"]
)
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


def _count_kernel_calls(controller):
    """Route ``controller``'s kernel calls through a counter."""
    kernels = CountingKernels(controller._native)
    controller._native = kernels
    return kernels


@needs_native
@pytest.mark.parametrize("scheme", ["IR-ORAM", "Rho", "IR-DWB"])
def test_translation_runs_in_the_kernel(scheme):
    """Every chain walk runs in the kernel, and every PosMap fetch
    installs there: through ``plb_install``, or inside the
    ``drain_slots`` call that fetched it."""
    config = SystemConfig.tiny()
    stats = Stats()
    components = build_scheme(scheme, config, stats, random.Random(5))
    controller = components.controller
    kernels = _count_kernel_calls(controller)
    trace = make_workload("mix", config, 300, 5)
    result = Simulator(components, trace).run()
    assert kernels.calls.get("translate", 0) > 0
    installs = kernels.calls.get("plb_install", 0) + kernels.served_fetches
    assert installs == result.counters.get("posmap.accesses", 0) > 0


@needs_native
@pytest.mark.parametrize("hook", ["integrity", "biased-remap"])
def test_hooked_controllers_translate_in_python(hook):
    """The Merkle layer and the biased-remap mutant take translation off
    the kernel along with their path accesses."""
    from repro.oram.integrity import attach_integrity
    from repro.security.mutants import build_mutant

    config = SystemConfig.tiny()
    stats = Stats()
    if hook == "integrity":
        components = build_scheme("Baseline", config, stats, random.Random(5))
        attach_integrity(components.controller)
    else:
        components = build_mutant("biased-remap", config, stats,
                                  random.Random(5))
    controller = components.controller
    assert not controller._kernel_translation()
    kernels = _count_kernel_calls(controller)
    trace = make_workload("mix", config, 300, 5)
    result = Simulator(components, trace).run()
    assert result.counters.get("posmap.accesses", 0) > 0
    assert not {"translate", "plb_install", "find_in_treetop",
                "access_path"} & set(kernels.calls)


def _simulate(components, records=300, seed=5):
    trace = make_workload("mix", components.config, records, seed)
    return Simulator(components, trace).run()


@needs_native
@pytest.mark.parametrize(
    "hook", ["integrity", "track_migration", "biased-remap", "no-kernels"]
)
def test_controller_hooked_after_construction_runs_python(hook):
    """The tier is decided once, when the kernel state is built, and
    again at each hook site: a controller hooked after construction runs
    every path in Python."""
    from repro.oram.integrity import attach_integrity
    from repro.security.mutants import build_mutant

    config = SystemConfig.tiny()
    if hook == "biased-remap":
        components = build_mutant("biased-remap", config, Stats(),
                                  random.Random(5))
    else:
        components = build_scheme("Baseline", config, Stats(),
                                  random.Random(5))
        controller = components.controller
        assert controller._tier and controller._serve
        if hook == "integrity":
            attach_integrity(controller)
        elif hook == "track_migration":
            controller.track_migration = True
        else:
            controller._native = None
    controller = components.controller
    assert not controller._tier and not controller._serve
    result = _simulate(components)
    tiers = controller.tier_counters()
    assert tiers[PYTHON] == controller.path_count > 0
    assert tiers[PYTHON] == result.counters["paths.total"]
    assert tiers[KERNEL] == tiers[BATCH] == 0


@needs_native
def test_class_level_timing_wrappers_keep_real_slots_on_the_kernel(
    monkeypatch,
):
    """perfbench's traced mode wraps ``step``, ``full_access``,
    ``fetch_posmap_block`` and ``dummy_path`` on the class; every real
    slot still goes through ``drain_slots`` and every path runs in the
    kernels."""
    import functools

    for name in ("step", "full_access", "fetch_posmap_block", "dummy_path"):
        original = getattr(PathORAMController, name)

        @functools.wraps(original)
        def timed(*args, _original=original, **kwargs):
            return _original(*args, **kwargs)

        monkeypatch.setattr(PathORAMController, name, timed)
    components = build_scheme("IR-ORAM", SystemConfig.tiny(), Stats(),
                              random.Random(5))
    controller = components.controller
    assert controller._serve
    kernels = _count_kernel_calls(controller)
    result = _simulate(components)
    tiers = controller.tier_counters()
    assert kernels.calls.get("drain_slots", 0) > 0
    assert tiers[PYTHON] == 0
    assert tiers[KERNEL] + tiers[BATCH] == result.counters["paths.total"]
