"""``attribute_cycles`` against ``CycleAttribution``'s Python pass.

``CycleAttribution.finalize`` buckets a run's flat path timeline in the C
kernel when it is loaded and in :meth:`CycleAttribution._attribute`
otherwise.  Both must give the same breakdown for any timeline: paths
that end past ``cycles`` or start after it, and timing-stall windows
that straddle it.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import breakdown
from repro.obs.breakdown import CycleAttribution
from repro.oram.types import PathType
from repro.perf import native

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


@st.composite
def timelines(draw):
    """Paths in timeline order (each starts at or after the previous
    write phase's end), and a cycle count anywhere around them."""
    records, cursor = [], 0
    for _ in range(draw(st.integers(0, 30))):
        start = cursor + draw(st.integers(0, 400))
        finish_read = start + draw(st.integers(0, 300))
        finish_write = finish_read + draw(st.integers(0, 300))
        stall_until = start + draw(st.integers(0, 900))
        records += [draw(st.integers(0, len(PathType) - 1)), start,
                    finish_read, finish_write, stall_until]
        cursor = finish_write
    cycles = draw(st.integers(0, cursor + 1000))
    return records, cycles


def _breakdown(records, cycles, kernel):
    attribution = CycleAttribution()
    attribution.on_paths(array("q", records))
    if kernel:
        return attribution.finalize(cycles)
    return breakdown.CycleBreakdown(cycles, *attribution._attribute(cycles))


@settings(max_examples=300, deadline=None)
@given(case=timelines())
def test_kernel_matches_python_pass(case):
    records, cycles = case
    kernel = _breakdown(records, cycles, True)
    assert kernel == _breakdown(records, cycles, False)
    assert sum(kernel.components().values()) == kernel.total == cycles


def test_stall_window_straddling_the_end():
    # One dummy path 0-10-20 whose stall runs to 100; the run ends at 50.
    records, cycles = [3, 0, 10, 20, 100], 50
    result = _breakdown(records, cycles, True)
    assert (result.dummy_read, result.dummy_write) == (10, 10)
    assert (result.timing_stall, result.idle) == (30, 0)
    assert result == _breakdown(records, cycles, False)


def test_malformed_timeline_is_refused():
    with pytest.raises(ValueError):
        native.fastpath.attribute_cycles(array("q", [0, 1, 2]), 10,
                                         breakdown._BUCKETS)
