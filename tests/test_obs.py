"""Tests for the observability layer: events, sinks, breakdowns, exporters.

The load-bearing assertions are the two invariants the docs promise:
observation never changes results (bit-identical cycles/counters), and
``CycleBreakdown`` components sum exactly to the run's cycle count.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, stats_keys as sk
from repro.config import SystemConfig
from repro.core.schemes import SCHEMES
from repro.errors import ConfigError, ReproError
from repro.obs import (
    CallbackSink,
    CycleAttribution,
    CycleBreakdown,
    JsonlSink,
    MemorySink,
    TraceEvent,
    Tracer,
    events as ev,
    read_jsonl,
)
from repro.obs.inspect import format_summary, summarize_trace
from repro.sim.persistence import result_from_dict, result_to_dict
from repro.stats import Stats

TINY = SystemConfig.tiny()


class TestSinks:
    def test_memory_sink_ring_overflow(self):
        sink = MemorySink(capacity=5)
        for cycle in range(8):
            sink.emit(TraceEvent(kind=ev.PROGRESS, cycle=cycle))
        kept = sink.events()
        assert len(kept) == 5
        assert [event.cycle for event in kept] == [3, 4, 5, 6, 7]
        assert sink.dropped == 3
        assert sink.total_emitted == 8

    def test_memory_sink_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            MemorySink(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        original = [
            TraceEvent(ev.PATH_READ, 10, {"leaf": 3, "path_type": "PTd"}),
            TraceEvent(ev.STASH_HWM, 25, {"occupancy": 17}),
        ]
        for event in original:
            sink.emit(event)
        sink.close()
        assert read_jsonl(str(path)) == original

    def test_callback_sink(self):
        seen = []
        tracer = Tracer(sinks=[CallbackSink(seen.append)])
        tracer.emit(ev.PLB_HIT, 5, block=42)
        assert seen == [TraceEvent(ev.PLB_HIT, 5, {"block": 42})]
        assert tracer.events_emitted == 1

    def test_event_dict_round_trip(self):
        event = TraceEvent(ev.DRAM_BATCH, 99, {"accesses": 4, "write": True})
        assert TraceEvent.from_dict(event.to_dict()) == event


class TestBitIdentical:
    @pytest.mark.parametrize("scheme", ["Baseline", "IR-ORAM"])
    def test_traced_run_is_bit_identical(self, scheme, tmp_path):
        spec = api.RunSpec(
            scheme=scheme, workload="mix", records=300, seed=13, config=TINY
        )
        plain = api.run(spec)
        traced = api.run(spec.with_obs(api.ObsOptions(
            trace_out=str(tmp_path / "t.jsonl"),
            ring_size=100,
            progress_every=25,
        )))
        assert traced.cycles == plain.cycles
        assert traced.result.counters == plain.result.counters
        assert traced.result.path_counts == plain.result.path_counts
        assert traced.breakdown.to_dict() == plain.breakdown.to_dict()
        assert traced.events()  # the ring actually captured something

    def test_untraced_run_has_no_tracer(self):
        out = api.run(api.RunSpec(records=150, config=TINY))
        assert out.stats.tracer is None
        assert out.events() == []


class TestBreakdown:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_components_sum_to_cycles(self, scheme):
        result = api.run(api.RunSpec(
            scheme=scheme, workload="mix", records=250, seed=7, config=TINY
        )).result
        breakdown = result.breakdown
        assert breakdown is not None
        assert breakdown.total == result.cycles
        assert sum(breakdown.components().values()) == result.cycles
        assert all(value >= 0 for value in breakdown.components().values())

    def test_fractions_sum_to_one(self):
        result = api.run(api.RunSpec(records=250, config=TINY)).result
        assert sum(result.breakdown.fractions().values()) == pytest.approx(1.0)

    def test_dict_round_trip(self):
        result = api.run(api.RunSpec(records=200, config=TINY)).result
        restored = CycleBreakdown.from_dict(result.breakdown.to_dict())
        assert restored == result.breakdown

    def test_persistence_round_trip(self):
        result = api.run(api.RunSpec(records=200, config=TINY)).result
        restored = result_from_dict(result_to_dict(result))
        assert restored.breakdown == result.breakdown

    def test_data_paths_dominate_demand_workload(self):
        breakdown = api.run(api.RunSpec(
            scheme="Baseline", workload="gcc", records=300, config=TINY
        )).result.breakdown
        assert breakdown.data_read + breakdown.data_write > 0


#: path type value -> CycleBreakdown bucket
_BUCKETS = {
    "PTd": "data", "PTp.pos1": "posmap", "PTp.pos2": "posmap",
    "PTm": "dummy", "dwb": "dummy", "evict": "eviction",
}

#: one path: (type, gap before it, read length, write length, how far
#: its timing stall reaches past its write phase)
_paths = st.lists(
    st.tuples(st.sampled_from(sorted(_BUCKETS)), st.integers(0, 6),
              st.integers(0, 5), st.integers(0, 5), st.integers(0, 8)),
    max_size=12,
)


def _naive_breakdown(paths, cycles):
    """Classify every cycle in ``[0, cycles)`` on its own: inside a path's
    read or write phase, else a timing stall while the last finished
    path's stall lasts, else idle."""
    counts = Counter()
    for t in range(cycles):
        label, stall_until = None, 0
        for path_type, start, finish_read, finish_write, until in paths:
            if start <= t < finish_read:
                label = _BUCKETS[path_type] + "_read"
            elif finish_read <= t < finish_write:
                label = _BUCKETS[path_type] + "_write"
            elif finish_write <= t:
                stall_until = until
        if label is None:
            label = "timing_stall" if t < stall_until else "idle"
        counts[label] += 1
    return counts


@settings(max_examples=200, deadline=None)
@given(plan=_paths, cut=st.integers(0, 120))
def test_finalize_matches_a_naive_interval_sum(plan, cut):
    """finalize's one pass equals classifying each cycle separately, for
    any timeline clipped anywhere."""
    attribution = CycleAttribution()
    paths = []
    now = 0
    for path_type, gap, read, write, stall in plan:
        start = now + gap
        finish_read = start + read
        finish_write = finish_read + write
        paths.append((path_type, start, finish_read, finish_write,
                      finish_write + stall))
        attribution.on_path(*paths[-1])
        now = finish_write
    cycles = min(cut, now + 10)
    breakdown = attribution.finalize(cycles)
    expected = _naive_breakdown(paths, cycles)
    assert breakdown.total == cycles
    assert breakdown.components() == {
        key: expected.get(key, 0) for key in breakdown.components()
    }


class TestTraceContents:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
        api.run(api.RunSpec(
            scheme="IR-ORAM", workload="mix", records=400, seed=7,
            config=TINY,
            obs=api.ObsOptions(trace_out=str(path), progress_every=50),
        ))
        return str(path)

    def test_expected_kinds_present(self, trace_path):
        kinds = {event.kind for event in read_jsonl(trace_path)}
        assert {
            ev.ACCESS_START, ev.ACCESS_END, ev.PATH_READ, ev.PATH_WRITE,
            ev.DRAM_BATCH, ev.LLC_MISS, ev.PROGRESS,
        } <= kinds
        assert kinds <= set(ev.ALL_KINDS)

    def test_path_events_match_result_counts(self, trace_path):
        result = api.run(api.RunSpec(
            scheme="IR-ORAM", workload="mix", records=400, seed=7, config=TINY
        )).result
        events = read_jsonl(trace_path)
        reads = sum(1 for event in events if event.kind == ev.PATH_READ)
        writes = sum(1 for event in events if event.kind == ev.PATH_WRITE)
        assert reads == writes == int(result.total_paths())

    def test_inspect_summary(self, trace_path):
        summary = summarize_trace(trace_path)
        assert summary["events"] == len(read_jsonl(trace_path))
        assert summary["accesses_completed"] > 0
        assert summary["dram"]["accesses"] > 0
        assert 0.0 < summary["dram"]["row_hit_rate"] <= 1.0
        text = format_summary(summary)
        assert "events" in text and "latency" in text

    def test_inspect_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ReproError):
            summarize_trace(str(path))


class TestExporters:
    @pytest.fixture(scope="class")
    def stats(self):
        return api.run(api.RunSpec(records=250, config=TINY)).stats

    def test_prometheus_text(self, stats):
        text = stats.to_prometheus_text()
        assert f"repro_{sk.SIM_CYCLES.replace('.', '_')} " in text
        assert "# TYPE repro_sim_cycles counter" in text
        assert 'bucket="' in text  # histograms render as labeled samples

    def test_json_export(self, stats):
        payload = json.loads(stats.to_json())
        assert payload["counters"][sk.SIM_CYCLES] > 0
        assert set(payload) == {"counters", "histograms", "series"}

    def test_namespace_views(self, stats):
        assert "dram" in stats.namespaces()
        dram = stats.namespace("dram")
        assert dram["accesses"] == stats.get(sk.DRAM_ACCESSES)

    def test_progress_series_recorded(self):
        out = api.run(api.RunSpec(
            records=300, config=TINY,
            obs=api.ObsOptions(ring_size=10, progress_every=20),
        ))
        assert out.stats.series[sk.OBS_PROGRESS]

    def test_metrics_out_written(self, tmp_path):
        path = tmp_path / "metrics.json"
        api.run(api.RunSpec(
            records=150, config=TINY,
            obs=api.ObsOptions(metrics_out=str(path)),
        ))
        assert json.loads(path.read_text())["counters"][sk.SIM_CYCLES] > 0


class TestStatsKeys:
    def test_static_keys_unique_and_namespaced(self):
        keys = sk.all_static_keys()
        assert len(keys) == len(set(keys))
        assert all("." in key for key in keys)

    def test_key_builders_match_constants(self):
        from repro.oram.types import PathType, RequestKind

        assert sk.requests_key(RequestKind.WRITEBACK) == sk.REQUESTS_WRITEBACK
        assert sk.paths_key(PathType.DATA) == "paths.PTd"
        assert sk.cache_key("llc", "misses") == sk.LLC_MISSES

    def test_run_counters_are_known_keys(self):
        from repro.oram.types import PathType, RequestKind

        known = set(sk.all_static_keys())
        for path_type in PathType:
            known.add(sk.paths_key(path_type))
            known.add(sk.mem_blocks_key(path_type))
        for kind in RequestKind:
            known.add(sk.requests_key(kind))
        for scheme in ("Baseline", "IR-ORAM", "Rho", "LLC-D"):
            counters = api.run(api.RunSpec(
                scheme=scheme, workload="mix", records=200, config=TINY
            )).result.counters
            unknown = set(counters) - known
            assert not unknown, f"{scheme}: unregistered stat keys {unknown}"

    def test_keys_by_namespace_partition(self):
        grouped = sk.keys_by_namespace()
        flattened = sorted(key for keys in grouped.values() for key in keys)
        assert flattened == sk.all_static_keys()
        for namespace, keys in grouped.items():
            assert all(key.startswith(namespace + ".") for key in keys)
