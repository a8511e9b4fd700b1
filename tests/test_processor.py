"""Unit tests for the trace-driven processor model.

The array-backed :class:`Processor` also runs against
:class:`ReferenceProcessor`, the deque-and-dict model it replaced: the
cases below and random traces with random completion schedules must
leave both in the same state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CPUConfig
from repro.cpu.processor import Processor
from repro.traces.trace import Trace
from tests.reference_processor import ReferenceProcessor


def make_trace(records):
    return Trace("t", records)


class Recorder:
    """Scriptable memory hierarchy: decides hit/miss per op."""

    def __init__(self, miss_blocks=()):
        self.ops = []
        self.miss_blocks = set(miss_blocks)
        self.next_token = 0
        self.tokens = {}

    def __call__(self, block, is_write, time):
        op = (block, is_write, time)
        self.ops.append(op)
        if block in self.miss_blocks:
            token = self.next_token
            self.next_token += 1
            self.tokens[token] = op
            return token
        return None


class TestExecution:
    def test_all_hits_runs_to_completion(self):
        trace = make_trace([(40, i, False) for i in range(10)])
        cpu = Processor(trace, CPUConfig())
        hierarchy = Recorder()
        cpu.advance_to(10**9, hierarchy)
        assert cpu.done
        assert len(hierarchy.ops) == 10
        assert cpu.finish_time == cpu.cpu_time

    def test_gap_to_cycles_uses_issue_width(self):
        trace = make_trace([(400, 1, False)])
        cpu = Processor(trace, CPUConfig(issue_width=4))
        cpu.advance_to(10**9, Recorder())
        assert cpu.cpu_time == 100

    def test_advance_stops_at_now(self):
        trace = make_trace([(400, i, False) for i in range(10)])
        cpu = Processor(trace, CPUConfig())
        cpu.advance_to(150, Recorder())
        # only ~2 records fit in 150 cycles (+1 overshoot record)
        assert 1 <= cpu.trace_index <= 3

    def test_read_miss_blocks_at_rob_reach(self):
        trace = make_trace([(40, 0, False)] + [(40, i + 1, False) for i in range(20)])
        cpu = Processor(trace, CPUConfig(rob_size=128, issue_width=4))
        hierarchy = Recorder(miss_blocks={0})
        cpu.advance_to(10**9, hierarchy)
        assert not cpu.done
        # the core ran at most rob_reach cycles past the miss
        assert cpu.cpu_time <= 10 + 32 + 40

    def test_completion_unblocks_and_charges_stall(self):
        trace = make_trace([(40, 0, False)] + [(400, i + 1, False) for i in range(5)])
        cpu = Processor(trace, CPUConfig())
        hierarchy = Recorder(miss_blocks={0})
        cpu.advance_to(10**9, hierarchy)
        token = 0
        cpu.complete(token, 5000)
        cpu.advance_to(10**9, hierarchy)
        assert cpu.done
        assert cpu.cpu_time >= 5000
        assert cpu.stats.get("cpu.stall_cycles") > 0

    def test_mlp_limit_blocks(self):
        config = CPUConfig(max_outstanding_reads=2, rob_size=100000)
        trace = make_trace([(4, i, False) for i in range(10)])
        cpu = Processor(trace, config)
        hierarchy = Recorder(miss_blocks=set(range(10)))
        cpu.advance_to(10**9, hierarchy)
        assert len(hierarchy.ops) == 2  # third read blocked

    def test_write_buffer_blocks(self):
        config = CPUConfig(write_buffer=3)
        trace = make_trace([(4, i, True) for i in range(10)])
        cpu = Processor(trace, config)
        hierarchy = Recorder(miss_blocks=set(range(10)))
        cpu.advance_to(10**9, hierarchy)
        assert len(hierarchy.ops) == 3

    def test_writes_do_not_block_when_hitting(self):
        trace = make_trace([(4, i, True) for i in range(10)])
        cpu = Processor(trace, CPUConfig(write_buffer=2))
        cpu.advance_to(10**9, Recorder())
        assert cpu.done

    def test_done_requires_drained_outstanding(self):
        trace = make_trace([(4, 0, False)])
        cpu = Processor(trace, CPUConfig())
        hierarchy = Recorder(miss_blocks={0})
        cpu.advance_to(10**9, hierarchy)
        assert cpu.trace_exhausted()
        assert not cpu.done
        cpu.complete(0, 100)
        cpu.advance_to(10**9, hierarchy)
        assert cpu.done

    def test_retired_instructions(self):
        trace = make_trace([(100, 1, False), (50, 2, True)])
        cpu = Processor(trace, CPUConfig())
        cpu.advance_to(10**9, Recorder())
        assert cpu.retired_instructions == 150


class TestSchedulingHints:
    def test_next_request_time_projection(self):
        trace = make_trace([(400, 1, False)])
        cpu = Processor(trace, CPUConfig())
        assert cpu.next_request_time() == 100

    def test_next_request_time_none_when_blocked(self):
        trace = make_trace([(4, 0, False), (4, 1, False)])
        cpu = Processor(trace, CPUConfig(max_outstanding_reads=1))
        hierarchy = Recorder(miss_blocks={0, 1})
        cpu.advance_to(10**9, hierarchy)
        assert cpu.next_request_time() is None

    def test_next_request_time_none_when_done(self):
        trace = make_trace([(4, 0, False)])
        cpu = Processor(trace, CPUConfig())
        cpu.advance_to(10**9, Recorder())
        assert cpu.next_request_time() is None


# ----------------------------------------------------------------------
# against the reference model
# ----------------------------------------------------------------------
def _state(cpu, hierarchy):
    return (
        cpu.cpu_time, cpu.trace_index, cpu.retired_instructions,
        cpu.finish_time, cpu.done, cpu.trace_exhausted(),
        cpu.next_request_time(), hierarchy.ops, dict(cpu.stats.counters),
    )


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 12), st.booleans()),
        max_size=40,
    ),
    width=st.integers(1, 4),
    rob=st.integers(1, 64),
    mlp=st.integers(0, 4),
    buffer=st.integers(1, 4),
    misses=st.sets(st.integers(0, 12)),
    steps=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 600)),
                   max_size=30),
)
def test_matches_reference_processor(records, width, rob, mlp, buffer,
                                      misses, steps):
    """Interleaved advances and completions (the oldest outstanding
    token each time, at a drawn delay) agree step for step."""
    config = CPUConfig(issue_width=width, rob_size=rob,
                       max_outstanding_reads=mlp, write_buffer=buffer)
    trace = make_trace(records)
    models = [(cls(trace, config), Recorder(misses))
              for cls in (Processor, ReferenceProcessor)]
    now = 0
    completed = set()
    for advance, delay in steps:
        now += advance
        for cpu, hierarchy in models:
            cpu.advance_to(now, hierarchy)
        states = [_state(cpu, hierarchy) for cpu, hierarchy in models]
        assert states[0] == states[1]
        hierarchy = models[0][1]
        waiting = sorted(set(hierarchy.tokens) - completed)
        if waiting:
            completed.add(waiting[0])
            for cpu, _ in models:
                cpu.complete(waiting[0], now + delay)
