"""The kernels' per-call books.

A kernel call counts into its state's books and applies them to the
stats counters, the hit-level histogram, ``posmap.remap_count`` and the
controller's ``batch_counters`` on every exit, also when it fails
partway.  So how a run is cut into ``drain_slots`` calls changes nothing
but ``engine.batch.calls`` (one per call that ran dummy paths), a failed
call counts exactly what it did up to the error, and the next call
counts none of it again.  Keys are created as counting each event on
its own creates them: a key booked with a zero amount exists, a
front-end key whose call total is zero does not.
"""

import random

import pytest

from repro import stats_keys as sk
from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.oram.posmap import UNMAPPED
from repro.perf import native
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator
from repro.stats import Stats
from tests.tiers import sim_snapshot

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)

#: Both tree-top modes, LLC-D's re-inserts and extractions, and IR-DWB's
#: dummy slots handed back to the caller.
SCHEMES = ("Baseline", "IR-Stash", "LLC-D", "IR-DWB")


class DrainedRun:
    """One simulation driven through ``controller.drain_slots`` with the
    simulator's front end, as ``Simulator._loop`` drives it, ``cap``
    slots a call."""

    def __init__(self, scheme, seed=5):
        config = SystemConfig.tiny(
            levels=6, top_cached_levels=2,
            posmap_entry_bytes=16,  # 4 mappings per PosMap block
            plb_sets=1, plb_ways=2, eviction_threshold=4,
        )
        components = build_scheme(scheme, config, Stats(),
                                  random.Random(seed))
        self.simulator = Simulator(
            components, make_workload("mix", config, 300, seed)
        )
        self.controller = components.controller
        self.front = self.simulator._front_end()
        self.now = self.idle = 0
        self.done = False

    def drain(self, cap):
        """One call of up to ``cap`` slots; returns the slots it ran."""
        simulator = self.simulator
        completions, _, self.now, slots, stop, self.idle = (
            self.controller.drain_slots(
                self.now, cap, front=self.front, idle=self.idle
            )
        )
        for request in completions:
            simulator.hierarchy.on_completion(request, simulator.processor)
        self.done = stop == native.DRAIN_DONE
        return slots

    def run_slots(self, slots, cap):
        """``slots`` slots, ``cap`` a call (IR-DWB's calls also stop at
        each dummy slot)."""
        while slots > 0:
            slots -= self.drain(min(cap, slots))

    def books(self):
        """Everything the books reach, with the counters' value types,
        and the rest of the run's state."""
        controller = self.controller
        stats = controller.stats
        return (
            sorted((key, type(value).__name__, value)
                   for key, value in stats.counters.items()),
            {key: sorted((str(bucket), type(value).__name__, value)
                         for bucket, value in hist.items())
             for key, hist in stats.histograms.items()},
            controller.posmap.remap_count,
            {key: value for key, value in controller.batch_counters.items()
             if key != sk.ENGINE_BATCH_CALLS},
            sim_snapshot(self.simulator),
        )


def _to_end(run, cap):
    calls = 0
    while not run.done:
        run.drain(cap)
        calls += 1
    return calls


@pytest.mark.parametrize("scheme", SCHEMES)
def test_books_do_not_depend_on_the_call_boundaries(scheme):
    whole, stepped = DrainedRun(scheme), DrainedRun(scheme)
    whole_calls = _to_end(whole, 4096)
    stepped_calls = _to_end(stepped, 1)
    assert whole_calls < stepped_calls
    assert whole.books() == stepped.books()
    counters = whole.controller.stats.counters
    assert counters[sk.PATHS_TOTAL] > 0 and counters[sk.LLC_MISSES] > 0
    assert whole.controller.posmap.remap_count > 0
    assert whole.controller.stats.histograms[sk.HIT_LEVEL]
    # engine.batch.calls counts the calls that ran dummy paths.
    batch = stepped.controller.batch_counters
    if scheme != "IR-DWB":
        assert batch[sk.ENGINE_BATCH_CALLS] == batch[sk.ENGINE_BATCH_PATHS]
        assert whole.controller.batch_counters[sk.ENGINE_BATCH_CALLS] <= (
            whole_calls
        )


def _unmap_a_tree_block(controller):
    """Drop the mapping of the first block sitting in the level-3 buckets,
    so the next path through its bucket fails in its read phase (or its
    own serve, in mapped_leaf), and return it with its leaf."""
    tree = controller.tree
    for position in range(1 << 3):
        for block in tree.bucket(3, position):
            if block >= 0:
                leaf = controller.posmap._leaf_of[block]
                controller.posmap._leaf_of[block] = UNMAPPED
                return block, leaf
    raise AssertionError("no block in level 3")


# IR-DWB's calls stop at every dummy slot, so one call would not run
# far enough to fail partway.
@pytest.mark.parametrize("scheme", SCHEMES[:3])
def test_a_failed_call_counts_what_it_did_once(scheme):
    whole, stepped = DrainedRun(scheme), DrainedRun(scheme)
    whole.run_slots(40, 40)
    stepped.run_slots(40, 1)
    assert whole.books() == stepped.books()
    for run in (whole, stepped):
        _unmap_a_tree_block(run.controller)
    with pytest.raises(Exception) as whole_error:
        whole.drain(4096)
    good_calls = 0
    with pytest.raises(Exception) as stepped_error:
        while True:
            stepped.drain(1)
            good_calls += 1
    # The fault struck partway through the long call, after slots that
    # ran paths, dummy paths and the front end.
    assert good_calls > 1
    assert str(whole_error.value) == str(stepped_error.value)
    after = whole.books()
    assert after == stepped.books()
    # The failed call's books were applied and cleared: a call that runs
    # no slot counts nothing.
    whole.drain(0)
    assert whole.books() == after


def test_a_zero_amount_still_creates_its_key():
    # The first path on fresh DRAM opens every row it touches without a
    # conflict: dram.row_conflicts is booked with 0 and exists, a float,
    # as Stats.inc(key, 0) leaves it.
    components = build_scheme("Baseline", SystemConfig.tiny(levels=6),
                              Stats(), random.Random(1))
    controller = components.controller
    assert sk.DRAM_ROW_CONFLICTS not in controller.stats.counters
    controller.dummy_path(0)
    conflicts = controller.stats.counters[sk.DRAM_ROW_CONFLICTS]
    assert conflicts == 0 and type(conflicts) is float


def test_a_zero_front_end_total_creates_no_key():
    # One slot: the processor issues its first misses into an empty LLC,
    # which fills only as requests complete, so nothing is evicted yet.
    run = DrainedRun("Baseline")
    run.drain(1)
    counters = run.controller.stats.counters
    assert counters[sk.LLC_MISSES] > 0
    assert sk.LLC_EVICTIONS not in counters
    assert sk.LLC_DIRTY_EVICTIONS not in counters
