"""Robustness tests: unusual but legal inputs must not break the system."""

import pytest

from repro.api import RunSpec, run
from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.errors import TraceError
from repro.sim.simulator import Simulator
from repro.traces.trace import Trace


@pytest.fixture
def config():
    return SystemConfig.tiny()


def simulate(scheme, trace, config):
    spec = RunSpec(scheme=scheme, trace=trace, config=config, seed=1)
    return run(spec).result


class TestDegenerateTraces:
    def test_single_record_trace(self, config):
        trace = Trace("one", [(10, 0, False)])
        result = simulate("Baseline", trace, config)
        assert result.cycles > 0

    def test_single_write_trace(self, config):
        trace = Trace("w", [(10, 0, True)])
        result = simulate("Baseline", trace, config)
        assert result.counters["requests.read"] == 1  # write-allocate fetch

    def test_same_block_hammer(self, config):
        trace = Trace("hammer", [(5, 7, i % 2 == 0) for i in range(300)])
        result = simulate("Baseline", trace, config)
        # one fetch; everything after hits the LLC
        assert result.counters["hierarchy.demand_misses"] == 1

    def test_alternating_two_blocks(self, config):
        records = [(5, i % 2, False) for i in range(200)]
        result = simulate("IR-ORAM", Trace("alt", records), config)
        assert result.counters["hierarchy.demand_misses"] == 2

    def test_zero_gap_burst(self, config):
        trace = Trace("burst", [(0, i, False) for i in range(64)])
        result = simulate("Baseline", trace, config)
        assert result.cycles > 0

    def test_highest_user_block(self, config):
        top_block = config.oram.user_blocks - 1
        trace = Trace("edge", [(10, top_block, True), (10, 0, False)])
        result = simulate("Baseline", trace, config)
        assert result.cycles > 0


class TestDegenerateConfigs:
    def test_no_tree_top_cache(self):
        config = SystemConfig.tiny(top_cached_levels=1)
        # top_cached_levels=0 would mean no on-chip top at all; our layout
        # requires >=1 memory level which this still satisfies
        trace = Trace("t", [(10, i, False) for i in range(30)])
        result = simulate("Baseline", trace, config)
        assert result.cycles > 0

    def test_deep_top_cache(self):
        config = SystemConfig.tiny(top_cached_levels=6)
        trace = Trace("t", [(10, i, False) for i in range(30)])
        result = simulate("IR-Stash", trace, config)
        assert result.cycles > 0

    def test_tiny_stash_relies_on_eviction(self):
        config = SystemConfig.tiny(stash_capacity=40, eviction_threshold=25)
        trace = Trace("t", [(8, i * 7 % 800, i % 3 == 0) for i in range(250)])
        result = simulate("Baseline", trace, config)
        assert result.cycles > 0
        # small threshold must actually engage the eviction machinery
        assert result.background_evictions() >= 0

    def test_single_channel_dram(self):
        from dataclasses import replace

        from repro.config import DRAMConfig

        config = SystemConfig.tiny()
        narrow = replace(config, dram=DRAMConfig(channels=1))
        trace = Trace("t", [(10, i, False) for i in range(40)])
        fast = simulate("Baseline", trace, config)
        slow = simulate("Baseline", trace, narrow)
        assert slow.cycles > fast.cycles


class TestSimulatorGuards:
    def test_progress_guard_constant(self):
        assert Simulator.MAX_IDLE_ITERATIONS >= 1000

    def test_empty_trace_rejected_upstream(self):
        with pytest.raises(TraceError):
            from repro.traces.synthetic import random_trace
            import random

            random_trace(0, 10, random.Random(1))
