"""Tests for the experiment regenerators (tiny settings for speed)."""

import pytest

from repro import api
from repro.config import SystemConfig
from repro.experiments import common, run_all
from repro.experiments import (
    fig02_path_types,
    fig03_utilization,
    fig04_utilization_per_bench,
    fig05_migration,
    fig06_treetop_reuse,
    fig07_alloc_example,
    fig10_performance,
    fig11_llcd,
    fig12_alloc_configs,
    fig13_alloc_utilization,
    fig14_posmap,
    fig15_dwb_distribution,
    fig16_scalability,
    table1_config,
    table2_benchmarks,
)
from repro.experiments.common import ExperimentResult
from repro.perf import engine

TINY = SystemConfig.tiny()
RECORDS = 300
WORKLOADS = ["gcc", "lbm"]


def check(result: ExperimentResult, min_rows=1):
    assert result.experiment_id
    assert result.rows and len(result.rows) >= min_rows
    for row in result.rows:
        assert len(row) == len(result.headers)
    text = result.to_text()
    assert result.experiment_id in text
    return result


class TestTables:
    def test_table1(self):
        result = check(table1_config.run(), min_rows=10)
        params = result.column("parameter")
        assert "ORAM tree levels" in params

    def test_table2(self):
        result = check(table2_benchmarks.run(TINY, records=400), min_rows=13)
        assert result.headers[1] == "benchmark"


class TestFigures:
    def test_fig02(self):
        result = check(
            fig02_path_types.run(TINY, RECORDS, WORKLOADS), min_rows=3
        )
        for row in result.rows:
            shares = row[1:]
            assert sum(shares) == pytest.approx(1.0, abs=1e-6)

    def test_fig03(self):
        result = check(fig03_utilization.run(TINY, 300, snapshots=3))
        for row in result.rows:
            for cell in row[1:]:
                assert 0.0 <= cell <= 1.0

    def test_fig04(self):
        result = check(
            fig04_utilization_per_bench.run(TINY, 300, ["gcc", "random"]),
            min_rows=2,
        )

    def test_fig05(self):
        result = check(fig05_migration.run(TINY, 400), min_rows=TINY.oram.levels)
        pre = sum(row[1] for row in result.rows)
        fetched = sum(row[2] for row in result.rows)
        assert pre == pytest.approx(1.0, abs=0.01)
        assert fetched == pytest.approx(1.0, abs=0.01)

    def test_fig06_treetop_reuse_shape(self):
        result = check(fig06_treetop_reuse.run(TINY, 1200))
        shares = dict(zip(result.column("location"),
                          result.column("fraction of requests")))
        top_share = sum(
            shares.get(f"L{level}", 0.0)
            for level in range(TINY.oram.top_cached_levels)
        )
        # the tree study must show meaningful tree-top reuse
        assert top_share > 0.05

    def test_fig07_exact_paper_numbers(self):
        result = check(fig07_alloc_example.run(), min_rows=6)
        pls = dict(zip(result.column("allocation"), result.column("PL")))
        assert pls["Path ORAM (no tree-top cache)"] == 100
        assert pls["Path ORAM + 10-level top cache"] == 60
        assert pls["IR-ORAM"] == 43
        assert pls["IR-Alloc4"] == 36

    def test_fig10(self):
        result = check(
            fig10_performance.run(
                TINY, RECORDS, WORKLOADS, schemes=["Baseline", "IR-Alloc"]
            ),
            min_rows=3,
        )
        baseline_col = result.column("Baseline")
        assert all(value == pytest.approx(1.0) for value in baseline_col[:-1])

    def test_fig11(self):
        result = check(fig11_llcd.run(TINY, RECORDS, WORKLOADS), min_rows=3)
        assert result.rows[-1][0] == "geomean"

    def test_fig12(self):
        result = check(fig12_alloc_configs.run(TINY, RECORDS, ["gcc"]))
        assert "IR-Alloc4 (PL=36)" in " ".join(result.headers)

    def test_fig13(self):
        result = check(fig13_alloc_utilization.run(TINY, 300, snapshots=2))
        assert result.experiment_id == "Fig. 13"

    def test_fig14(self):
        result = check(fig14_posmap.run(TINY, RECORDS, WORKLOADS), min_rows=3)
        for row in result.rows[:-1]:
            assert row[3] <= 1.05  # IR-Stash never meaningfully worse

    def test_fig15(self):
        result = check(fig15_dwb_distribution.run(TINY, RECORDS, WORKLOADS))
        for row in result.rows:
            assert 0.0 <= row[1] <= 1.0
            assert 0.0 <= row[2] <= 1.0

    def test_fig16(self):
        result = check(
            fig16_scalability.run(levels_sweep=(9, 10), records=250,
                                  seeds=(1, 2)),
            min_rows=2,
        )
        for row in result.rows:
            assert row[2] > 0.8  # IR-Alloc never slows random traces much


class TestHarness:
    def test_shared_points_are_simulated_once(self, monkeypatch, capsys):
        """``run_all.main`` simulates the union of the figures' points,
        each distinct campaign key once, and prints for every figure the
        table its standalone ``run`` builds."""
        settings = dict(records=200, workloads=["gcc", "lbm"])
        expected = [
            fig02_path_types.run(**settings),
            fig04_utilization_per_bench.run(records=200),
            fig10_performance.run(**settings),
            fig14_posmap.run(**settings),
        ]
        declared = [
            spec
            for module, kwargs in (
                (fig02_path_types, settings),
                (fig04_utilization_per_bench, dict(records=200)),
                (fig10_performance, settings),
                (fig14_posmap, settings),
            )
            for spec in module.points(common.Settings(**kwargs))
        ]
        seen = []
        real = engine.run_spec_warm

        def spy(spec):
            seen.append(api.campaign_key(spec))
            return real(spec)

        monkeypatch.setattr(engine, "run_spec_warm", spy)
        capsys.readouterr()
        tables = run_all.main(
            ["Fig. 2", "Fig. 10", "Fig. 14", "Fig. 4"], **settings
        )
        out = capsys.readouterr().out
        assert len(declared) == 25
        assert sorted(seen) == sorted(set(seen))
        assert set(seen) == {api.campaign_key(spec) for spec in declared}
        assert len(seen) == 17
        assert [t.to_text() for t in tables] == [
            t.to_text() for t in expected
        ]
        assert out == "".join(f"{t.to_text()}\n\n" for t in expected)

    def test_geometric_mean(self):
        assert common.geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert common.geometric_mean([]) == 0.0

    def test_row_map(self):
        result = ExperimentResult("x", "t", ["a", "b"], [["k", 1]])
        assert result.row_map()["k"] == ["k", 1]
