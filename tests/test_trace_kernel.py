"""The trace kernel against the Python record loop it replaces.

``benchmark_trace`` runs its record loop in ``benchmark_records`` when the
kernel is loaded, the RNG is a plain ``random.Random`` and every integer
fits in int64.  The kernel makes the Python loop's RNG calls in its order
(``randrange`` through ``getrandbits``, ``random`` and ``expovariate``
through ``random``), so for every Table II model, seed and geometry both
tiers must give the same records and leave the RNG in the same state --
which ``standard_mix`` relies on, since it reuses one RNG across several
traces and then mixes them.
"""

import gc
import random
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.traces.benchmarks as benchmarks
from repro.perf import native
from repro.traces.benchmarks import BENCHMARKS, BenchmarkModel, benchmark_trace
from repro.traces.mix import benchmark_mix_with_random_tail, standard_mix

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)

GEOMETRIES = {
    "default": {},
    "scaled": {"distance_scale": 2.5, "llc_lines": 512},
    "region": {"base_block": 4096, "region_blocks": 3000},
}


def _use_tier(monkeypatch, kernel):
    """Route ``benchmark_trace`` to the kernel (counting its calls) or to
    the Python loop; returns the list the kernel's calls append to."""
    calls = []

    def counted(*args):
        calls.append(args)
        return native.fastpath.benchmark_records(*args)

    monkeypatch.setattr(
        benchmarks, "fastpath",
        SimpleNamespace(benchmark_records=counted) if kernel else None,
    )
    return calls


def _both_tiers(monkeypatch, generate, seed):
    """``generate(rng)`` on each tier: (kernel result, kernel RNG state,
    Python result, Python RNG state, kernel calls)."""
    calls = _use_tier(monkeypatch, kernel=True)
    rng = random.Random(seed)
    kernel = generate(rng)
    kernel_state = rng.getstate()
    _use_tier(monkeypatch, kernel=False)
    rng = random.Random(seed)
    python = generate(rng)
    return kernel, kernel_state, python, rng.getstate(), calls


def _assert_same(monkeypatch, model, user_blocks, count, seed, **geometry):
    kernel, kernel_state, python, python_state, calls = _both_tiers(
        monkeypatch,
        lambda rng: benchmark_trace(model, user_blocks, count, rng, **geometry),
        seed,
    )
    assert len(calls) == 1
    assert kernel.name == python.name == model.name
    assert kernel.records == python.records
    assert kernel_state == python_state
    return kernel


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_every_model_matches_python(monkeypatch, name, geometry):
    for seed in (1, 7, 29):
        _assert_same(
            monkeypatch, BENCHMARKS[name], 65536, 4000, seed,
            **GEOMETRIES[geometry],
        )


def test_mixes_match_python(monkeypatch):
    # standard_mix draws three traces and then the interleave from one
    # RNG, so any drift in the RNG's state would change the mix.
    for generate in (
        lambda rng: standard_mix(65536, 6000, rng, llc_lines=1024),
        lambda rng: benchmark_mix_with_random_tail(65536, 3000, 500, rng),
    ):
        kernel, kernel_state, python, python_state, calls = _both_tiers(
            monkeypatch, generate, 11
        )
        assert len(calls) == 3
        assert kernel.records == python.records
        assert kernel_state == python_state


def test_rng_subclass_takes_the_python_loop(monkeypatch):
    class Subclass(random.Random):
        pass

    want = benchmark_trace(BENCHMARKS["xal"], 65536, 2000, random.Random(5))
    calls = _use_tier(monkeypatch, kernel=True)
    got = benchmark_trace(BENCHMARKS["xal"], 65536, 2000, Subclass(5))
    assert calls == []
    assert got.records == want.records


def test_count_of_one(monkeypatch):
    for seed in range(20):
        trace = _assert_same(monkeypatch, BENCHMARKS["mcf"], 4096, 1, seed)
        assert len(trace) == 1


def test_footprint_clamps_above_a_small_region(monkeypatch):
    # A region under 16 blocks still draws offsets over 16, which wrap
    # into the region by ``offset % region``.
    for region in (1, 5, 15):
        trace = _assert_same(
            monkeypatch, BENCHMARKS["lbm"], 65536, 1500, region,
            base_block=100, region_blocks=region,
        )
        assert {block for _, block, _ in trace} <= set(range(100, 100 + region))


def test_eviction_ring_wraps(monkeypatch):
    # A 4-line LLC image evicts on nearly every new offset, so the ring of
    # 64 recent evictions wraps many times over 3000 records.
    model = replace(BENCHMARKS["gcc"], spill_prob=0.3)
    for seed in range(3):
        _assert_same(monkeypatch, model, 65536, 3000, seed, llc_lines=4)


def test_midreuse_span_longer_than_history(monkeypatch):
    model = replace(
        BENCHMARKS["ima"], midreuse_prob=0.4, midreuse_span=50_000
    )
    for seed in range(3):
        _assert_same(monkeypatch, model, 65536, 800, seed)


def test_zero_mpki_gaps_pass_32_bits(monkeypatch):
    # No misses per kilo-instruction: a mean gap of 10^9 instructions,
    # whose exponential draws run to several times 2^32.
    model = replace(BENCHMARKS["dee"], read_mpki=0.0, write_mpki=0.0)
    trace = _assert_same(monkeypatch, model, 65536, 2000, 3)
    assert max(gap for gap, _, _ in trace) > 1 << 32


def test_gap_past_int64_takes_the_python_loop(monkeypatch):
    model = replace(BENCHMARKS["gcc"], quiet_prob=0.5, quiet_gap=10**18)
    calls = _use_tier(monkeypatch, kernel=True)
    trace = benchmark_trace(model, 65536, 200, random.Random(2))
    assert calls == []
    assert max(gap for gap, _, _ in trace) > 10**17


models = st.builds(
    BenchmarkModel,
    name=st.just("drawn"),
    suite=st.just("test"),
    read_mpki=st.sampled_from([0.0, 0.05, 2.6, 24.9]),
    write_mpki=st.sampled_from([0.0, 0.1, 45.3]),
    amplification=st.sampled_from([1.0, 2.5, 8.0]),
    footprint_frac=st.floats(0.0, 1.0),
    stream_prob=st.floats(0.0, 1.0),
    reuse_prob=st.floats(0.0, 1.0),
    reuse_scale=st.floats(0.0, 3000.0),
    spill_prob=st.floats(0.0, 1.0),
    midreuse_prob=st.floats(0.0, 1.0),
    midreuse_span=st.integers(0, 20_000),
    scan_blocks=st.integers(0, 5000),
    quiet_prob=st.sampled_from([0.0, 0.05, 0.5]),
    quiet_gap=st.integers(1, 50_000),
    burst_prob=st.floats(0.0, 1.0),
    burst_len=st.integers(0, 20),
)


@settings(max_examples=150, deadline=None)
@given(
    model=models,
    user_blocks=st.integers(1, 1 << 16),
    count=st.one_of(st.just(1), st.integers(2, 700)),
    region_blocks=st.one_of(
        st.just(0), st.integers(1, 15), st.integers(16, 5000)
    ),
    base_block=st.integers(0, 1 << 20),
    distance_scale=st.sampled_from([0.01, 1.0, 2.5]),
    llc_lines=st.one_of(st.integers(0, 8), st.just(2048)),
    seed=st.integers(0, 1 << 16),
)
def test_drawn_models_match_python(
    model, user_blocks, count, region_blocks, base_block, distance_scale,
    llc_lines, seed,
):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same(
            monkeypatch, model, user_blocks, count, seed,
            base_block=base_block, region_blocks=region_blocks,
            distance_scale=distance_scale, llc_lines=llc_lines,
        )


def _failing(method, after):
    """A bound RNG method that raises on its call number ``after``."""
    calls = [0]

    def draw(*args):
        calls[0] += 1
        if calls[0] > after:
            raise RuntimeError("rng failed")
        return method(*args)

    return draw


@pytest.mark.parametrize("method", ["random", "getrandbits"])
@pytest.mark.parametrize("after", [0, 1, 500])
def test_failing_draw_propagates_and_leaks_nothing(method, after):
    model = BENCHMARKS["xal"]

    def fail_once():
        rng = random.Random(4)
        setattr(rng, method, _failing(getattr(rng, method), after))
        with pytest.raises(RuntimeError, match="rng failed"):
            benchmark_trace(model, 65536, 2000, rng)

    fail_once()  # warm every cache the call path fills
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            fail_once()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # One leaked partial list of 500 records would be ~50 kB.
    assert grown < 20_000


def test_malformed_call_is_refused():
    args = [6, 4, 8, 8, 0, 64, 64, 1, 64, 1, (0.2, 0.4, 0.6, 0.8),
            (0.0, 0.5, 0.5), (0.5, 1.0, 1.0, 1.0)]
    never = pytest.fail  # no draw may happen before the check
    for index, bad in ((0, 0), (1, 0), (2, 0), (3, 0), (5, 3), (6, 0),
                       (8, 0)):
        call = list(args)
        call[index] = bad
        with pytest.raises(ValueError, match="malformed"):
            native.fastpath.benchmark_records(*call, never, never)
