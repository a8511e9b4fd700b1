"""The kernel's per-path DRAM triples against the pure-Python oracle.

``dram_triples`` computes a path's (bank, channel, row) triples in C from
the layout's ``path_table`` and the DRAM geometry in the kernel state.
On small trees with drawn levels, cached-top depth, IR-Alloc-style Z
vectors (Z=0 levels included), row sizes, channels and banks, every
leaf's triples must equal ``decompose_batch(layout.path_addresses(leaf))``,
and servicing them through ``dram_service`` must time them exactly as
``DRAMModel._service_py`` does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DRAMConfig, ORAMConfig, SystemConfig
from repro.mem.dram import DRAMModel
from repro.oram.controller import PathORAMController
from repro.perf import native

pytestmark = pytest.mark.skipif(
    native.fastpath is None, reason="native kernels unavailable"
)


@st.composite
def geometries(draw):
    levels = draw(st.integers(5, 8))
    top = draw(st.integers(0, levels - 1))
    # Z=0 anywhere but the leaf level, which keeps room for every block.
    z = draw(st.lists(st.integers(0, 5), min_size=levels - 1,
                      max_size=levels - 1))
    z.append(draw(st.integers(2, 5)))
    oram = ORAMConfig(
        levels=levels, user_blocks=16, z_per_level=tuple(z),
        top_cached_levels=top,
    )
    dram = DRAMConfig(
        channels=draw(st.integers(1, 4)),
        banks_per_channel=draw(st.integers(1, 8)),
        row_bytes=64 * draw(st.integers(1, 40)),
    )
    return SystemConfig(oram=oram, dram=dram)


def _slot_addresses(layout, oram, leaf):
    """A path's addresses slot by slot, independent of the path table."""
    return [
        layout.slot_address(level, leaf >> (oram.levels - 1 - level), slot)
        for level in range(oram.top_cached_levels, oram.levels)
        for slot in range(oram.z_per_level[level])
    ]


@settings(max_examples=40, deadline=None)
@given(config=geometries(), gaps=st.lists(st.integers(0, 40), min_size=1))
def test_kernel_triples_match_python_oracle(config, gaps):
    controller = PathORAMController(config)
    assert controller._native is not None
    state = controller._kstate
    layout = controller.layout
    oram, dram_cfg = config.oram, config.dram
    kernel_dram = DRAMModel(dram_cfg)
    oracle_dram = DRAMModel(dram_cfg)
    timing = (dram_cfg.t_rp, dram_cfg.t_rcd, dram_cfg.t_burst,
              dram_cfg.t_cas + dram_cfg.t_burst)
    now = 0
    for leaf in range(oram.leaves):
        addresses = layout.path_addresses(leaf)
        assert addresses == _slot_addresses(layout, oram, leaf)
        expected = oracle_dram.decompose_batch(addresses)
        triples = native.fastpath.dram_triples(state, leaf)
        assert triples == expected

        kernel_out = native.fastpath.dram_service(
            triples, kernel_dram.bank_ready, kernel_dram.bank_open_row,
            kernel_dram.bus_free, now, *timing,
        )
        assert kernel_out == oracle_dram._service_py(expected, now)
        assert kernel_dram.bank_ready == oracle_dram.bank_ready
        assert kernel_dram.bank_open_row == oracle_dram.bank_open_row
        assert kernel_dram.bus_free == oracle_dram.bus_free
        # Overlap the next path with this one's tail now and then.
        now = max(now, kernel_out[0] - gaps[leaf % len(gaps)])
