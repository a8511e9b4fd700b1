"""Tests for the extension experiments: timing ablation and Z-search."""

from repro.config import SystemConfig
from repro.experiments import ablation_timing, zsearch
from repro.sim.runner import random_trace_evaluator


class TestAblation:
    def test_runs_with_and_without_protection(self):
        result = ablation_timing.run(
            SystemConfig.tiny(), records=300, workloads=["gcc", "lbm"]
        )
        assert len(result.rows) == 3
        assert len(result.headers) == 5
        geo = result.rows[-1]
        for value in geo[1:]:
            assert value > 0.5  # sane speedups in both modes


class TestZSearchEndToEnd:
    def test_real_evaluator_search(self):
        config = SystemConfig.scaled(levels=10)
        evaluate = random_trace_evaluator(config, records=500, seed=3)
        from repro.core.ir_alloc import find_z_allocation

        best = find_z_allocation(
            config.oram,
            evaluate,
            max_space_reduction=0.05,
            max_eviction_increase=0.20,
        )
        # the search must shrink some middle bucket while respecting the
        # space constraint and monotonicity
        assert best.blocks_per_path() <= config.oram.blocks_per_path()
        assert best.space_reduction_vs_uniform() <= 0.05
        memory = best.z_per_level[config.oram.top_cached_levels:]
        assert all(a <= b for a, b in zip(memory, memory[1:]))

    def test_zsearch_experiment_table(self):
        result = zsearch.run(
            SystemConfig.scaled(levels=9), records=300,
            max_space_reduction=0.06,
        )
        metrics = dict(
            (row[0], (row[1], row[2])) for row in result.rows
        )
        assert "blocks per path (PL)" in metrics
        uniform_pl, searched_pl = metrics["blocks per path (PL)"]
        assert searched_pl <= uniform_pl
