"""The setup entries' MT19937 mirror and the packed trace records.

``draw_leaves``, ``init_tree`` and ``benchmark_records`` take the RNG
object.  For a plain ``random.Random`` they load its ``getstate()`` once,
run CPython's generator in C and write the state back; any other RNG (a
subclass, a method set on the instance, a scripted stand-in) draws
through its bound methods.  Either way the draws and the final state must
be the interpreter's own, across the 624-word twist, at the rejection
boundary of ``randrange`` and for draws wider than 32 bits.

A :class:`~repro.traces.trace.Trace` keeps its records in one
``array('q')``; the list form must round-trip, survive pickling and read
and write the same records as the tuple-list traces did (the digests
below were taken from that representation).
"""

import hashlib
import pickle
import random
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.traces.benchmarks as benchmarks
from repro.config import SystemConfig
from repro.errors import TraceError
from repro.oram.tree import ORAMTree
from repro.perf import native
from repro.sim.runner import make_workload
from repro.traces.benchmarks import BENCHMARKS, benchmark_trace
from repro.traces.io import load_trace, save_trace
from repro.traces.mix import benchmark_mix_with_random_tail, standard_mix
from repro.traces.trace import Trace, concat

kernel = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


def _python_draws(rng, calls):
    return [
        rng.getrandbits(arg) if name == "getrandbits"
        else rng.randrange(arg) if name == "randbelow"
        else rng.random()
        for name, arg in calls
    ]


def _at_index(seed, index):
    """A ``random.Random`` whose next word is state word ``index`` (624:
    the next draw twists)."""
    rng = random.Random(seed)
    version, words, gauss_next = rng.getstate()
    rng.setstate((version, words[:-1] + (index,), gauss_next))
    return rng


def _twins(seed, index, gauss):
    mirror, python = _at_index(seed, index), _at_index(seed, index)
    if gauss:
        mirror.gauss(0.0, 1.0)
        python.gauss(0.0, 1.0)
    return mirror, python


#: widths around the one- and two-word boundaries
widths = st.one_of(st.sampled_from([0, 1, 31, 32, 33, 63, 64]),
                   st.integers(0, 64))
#: bounds at and just past powers of two, and past 32 bits
bounds = st.one_of(
    st.builds(lambda m, past: (1 << m) + past, st.integers(0, 62),
              st.sampled_from([-1, 0, 1])).filter(lambda n: n >= 1),
    st.integers(1, (1 << 63) - 1),
)
calls = st.lists(
    st.one_of(
        st.tuples(st.just("getrandbits"), widths),
        st.tuples(st.just("randbelow"), bounds),
        st.tuples(st.just("random"), st.none()),
    ),
    max_size=40,
)
indexes = st.sampled_from([0, 1, 623, 624])


@kernel
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1 << 64), index=indexes, gauss=st.booleans(),
       calls=calls)
def test_mirrored_draws_match_python(seed, index, gauss, calls):
    mirror, python = _twins(seed, index, gauss)
    assert native.fastpath.rng_draws(mirror, calls) == _python_draws(
        python, calls
    )
    assert mirror.getstate() == python.getstate()


@kernel
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1 << 32), index=indexes, gauss=st.booleans(),
       n=st.integers(0, 1500), leaves=bounds)
def test_draw_leaves_matches_python(seed, index, gauss, n, leaves):
    mirror, python = _twins(seed, index, gauss)
    got = native.fastpath.draw_leaves(n, leaves, mirror)
    assert got == array("q", (python.randrange(leaves) for _ in range(n)))
    assert mirror.getstate() == python.getstate()


@kernel
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1 << 32), index=indexes, gauss=st.booleans(),
       n=st.integers(0, 1500))
def test_init_tree_shuffle_matches_python(seed, index, gauss, n):
    """A one-level tree without slots overflows every block, in the
    shuffle's order."""
    mirror, python = _twins(seed, index, gauss)
    overflow = native.fastpath.init_tree(
        array("q"), array("q", [0]) * n, [0], array("q", [0]), mirror
    )
    order = list(range(n))
    python.shuffle(order)
    assert overflow == order
    assert mirror.getstate() == python.getstate()


def _both_loops(monkeypatch, generate, rng_of):
    """``generate(rng)`` through the kernel and through the Python loop,
    each on a fresh RNG: (records, final state) for each."""
    out = []
    for tier in (native.fastpath, None):
        monkeypatch.setattr(benchmarks, "fastpath", tier)
        rng = rng_of()
        out.append((list(generate(rng)), rng.getstate()))
    return out


@kernel
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1 << 32), index=indexes, gauss=st.booleans(),
       name=st.sampled_from(sorted(BENCHMARKS)),
       user_blocks=st.one_of(st.integers(16, 1 << 16),
                             st.integers(1 << 32, 1 << 45)),
       count=st.integers(1, 400))
def test_benchmark_records_match_python(seed, index, gauss, name,
                                        user_blocks, count):
    """Footprints past 2**32 draw two words per ``randrange``."""
    def rng_of():
        rng = _at_index(seed, index)
        if gauss:
            rng.gauss(0.0, 1.0)
        return rng

    with pytest.MonkeyPatch.context() as monkeypatch:
        kernel_out, python_out = _both_loops(
            monkeypatch,
            lambda rng: benchmark_trace(BENCHMARKS[name], user_blocks, count,
                                        rng),
            rng_of,
        )
    assert kernel_out == python_out


class _Counting(random.Random):
    """A subclass: it takes the callback path, so every draw reaches its
    own ``getrandbits`` and ``random``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)

    def random(self):
        self.calls += 1
        return super().random()


@kernel
def test_subclass_takes_the_callback_path():
    rng = _Counting(3)
    python = random.Random(3)
    leaves = native.fastpath.draw_leaves(200, 1000, rng)
    assert list(leaves) == [python.randrange(1000) for _ in range(200)]
    assert rng.calls >= 200
    calls = [("getrandbits", 64), ("randbelow", (1 << 40) + 1),
             ("random", None)]
    before = rng.calls
    assert native.fastpath.rng_draws(rng, calls) == _python_draws(
        python, calls
    )
    assert rng.calls > before
    assert rng.getstate() == python.getstate()


@kernel
def test_method_set_on_the_instance_takes_the_callback_path():
    rng, python = random.Random(9), random.Random(9)
    seen = []

    def getrandbits(k):
        seen.append(k)
        return random.Random.getrandbits(rng, k)

    rng.getrandbits = getrandbits
    assert native.fastpath.rng_draws(rng, [("randbelow", 1000)] * 5) == [
        python.randrange(1000) for _ in range(5)
    ]
    assert seen and set(seen) == {10}


@kernel
def test_scripted_rng_draws_64_bits():
    script = SimpleNamespace(getrandbits=lambda k: (1 << k) - 1,
                             random=lambda: 0.25)
    assert native.fastpath.rng_draws(
        script, [("getrandbits", 64), ("getrandbits", 33), ("random", None)]
    ) == [(1 << 64) - 1, (1 << 33) - 1, 0.25]


@kernel
@pytest.mark.parametrize("case", ["leaf out of range", "non-empty tree"])
def test_raising_before_any_draw_leaves_the_state(case):
    tree = ORAMTree(SimpleNamespace(levels=3, z_per_level=(1, 1, 2),
                                    leaves=4))
    table = array("q", [0, 3, 1, 2])
    if case == "leaf out of range":
        table[2] = 4
    else:
        tree.level_used[0] = 1
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises((IndexError, ValueError)):
        native.fastpath.init_tree(tree._slots, table, tree.z_per_level,
                                  tree.level_used, rng)
    assert rng.getstate() == state


@kernel
def test_malformed_draw_call_is_refused():
    rng = random.Random(1)
    for bad in ([("getrandbits", 65)], [("getrandbits", -1)],
                [("randbelow", 0)], [("shuffle", 3)], [3]):
        with pytest.raises((ValueError, TypeError)):
            native.fastpath.rng_draws(rng, bad)


# -- packed trace records -------------------------------------------------------

RECORDS = [(5, 3, True), (0, 0, False), (1 << 40, 7, False), (2, 9, True)]


def _digest(records):
    return hashlib.sha256(
        repr([(g, b, bool(w)) for g, b, w in records]).encode()
    ).hexdigest()[:16]


def test_list_round_trip():
    trace = Trace("t", RECORDS)
    assert list(trace) == RECORDS
    assert trace.records == RECORDS
    assert trace.records[1] == (0, 0, False)
    assert trace.records[-1] == (2, 9, True)
    assert trace.records[1:3] == RECORDS[1:3]
    assert all(type(w) is bool for _, _, w in trace)
    assert trace.packed == array(
        "q", [5, 3, 1, 0, 0, 0, 1 << 40, 7, 0, 2, 9, 1]
    )
    assert Trace("t", trace.packed) == trace
    assert Trace("t", iter(RECORDS)) == trace
    assert len(trace) == 4 and trace.reads() == 2 and trace.writes() == 2
    assert trace.instructions() == 7 + (1 << 40)
    assert trace.footprint() == 4 and trace.max_block() == 9
    with pytest.raises(IndexError):
        trace.records[4]


@pytest.mark.parametrize("bad", [
    [(-1, 0, False)],
    [(0, -1, True)],
    [(1, 2, False), (-5, 2, False)],
    [(1, 2)],
    [(1, 2, False, 4)],
    [(1.5, 2, False)],
    [(1 << 64, 2, False)],
])
def test_malformed_records_are_refused(bad):
    with pytest.raises(TraceError):
        Trace("bad", bad)


def test_malformed_packed_array_is_refused():
    with pytest.raises(TraceError):
        Trace("bad", array("q", [1, 2]))
    with pytest.raises(TraceError):
        Trace("bad", array("q", [1, -2, 0]))


def test_pickle_round_trip():
    trace = make_workload("xal", SystemConfig.scaled(levels=12), 500, 2)
    copy = pickle.loads(pickle.dumps(trace))
    assert copy == trace and copy.name == "xal"
    assert copy.records == trace.records


#: Records the tuple-list traces produced, as a digest of their tuples.
PINNED = {
    "mix": "a213e8d0c2304c18",
    "tail": "68e1fcb304916020",
    "slice": "064d2d509e530799",
    "concat": "16e31c4f00a10374",
    "big": "693b7177236f28ba",
}


def test_mix_slice_and_concat_read_the_same_records():
    rng = random.Random(11)
    mix = standard_mix(65536, 3000, rng, llc_lines=1024)
    assert _digest(mix) == PINNED["mix"]
    assert rng.random() == 0.18051570085052737
    rng = random.Random(3)
    tail = benchmark_mix_with_random_tail(65536, 1500, 300, rng)
    assert len(tail) == 1800 and _digest(tail) == PINNED["tail"]
    assert rng.random() == 0.7630958525301177
    head = mix.slice(1000)
    assert head.name == "mix[:1000]" and _digest(head) == PINNED["slice"]
    assert list(mix.slice(-2990)) == list(mix)[:10]
    joined = concat("cat", [mix.slice(10), tail])
    assert _digest(joined) == PINNED["concat"]
    assert list(joined) == list(mix)[:10] + list(tail)


def test_wide_footprint_trace_reads_the_same_records():
    rng = random.Random(5)
    trace = benchmark_trace(BENCHMARKS["mcf"], 1 << 40, 500, rng)
    assert _digest(trace) == PINNED["big"]
    assert rng.random() == 0.4227981054637716


def test_io_writes_and_reads_the_same_records(tmp_path):
    mix = standard_mix(65536, 3000, random.Random(11), llc_lines=1024)
    path = tmp_path / "t.trace"
    save_trace(mix.slice(200), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == (
        "e02f5be14ec2e35a"
    )
    loaded = load_trace(path)
    assert loaded.records == mix.slice(200).records
