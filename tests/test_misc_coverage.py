"""Additional coverage: errors, describe strings, small helpers, edge cases."""

import random

import pytest

from repro.config import DRAMConfig, SystemConfig
from repro.core.ir_stash import SStash
from repro.core.schemes import SCHEMES, build_scheme
from repro.errors import (
    ConfigError,
    ProtocolError,
    ReproError,
    StashOverflowError,
    TraceError,
)
from repro.mem.dram import DRAMModel, batch_from_addresses
from repro.mem.layout import TreeLayout
from repro.oram.treetop import TreeTopCache
from repro.oram.types import PathAccessRecord, PathType

from tests.conftest import make_oram


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc in (ConfigError, ProtocolError, StashOverflowError, TraceError):
            assert issubclass(exc, ReproError)

    def test_stash_overflow_is_protocol_error(self):
        assert issubclass(StashOverflowError, ProtocolError)

    def test_integrity_error_is_repro_error(self):
        from repro.oram.integrity import IntegrityError

        assert issubclass(IntegrityError, ReproError)


class TestDescribeStrings:
    def test_treetop_describe(self):
        top = TreeTopCache(make_oram(top=3))
        text = top.describe()
        assert "top 3 levels" in text
        assert "28 entries" in text

    def test_sstash_describe(self):
        sstash = SStash(make_oram(top=3))
        text = sstash.describe()
        assert "S-Stash" in text
        assert "TT table" in text


class TestSchemesMetadata:
    def test_descriptions_nonempty(self):
        for scheme in SCHEMES.values():
            assert scheme.description
            assert scheme.name

    def test_fig10_schemes_all_registered(self):
        from repro.experiments.fig10_performance import SCHEME_ORDER

        for name in SCHEME_ORDER:
            assert name in SCHEMES


class TestLayoutEdgeCases:
    def test_no_memory_levels_rejected(self):
        oram = make_oram(levels=4, top=3)
        # top 3 of 4 leaves one memory level: fine
        TreeLayout(oram, DRAMConfig())
        with pytest.raises(ConfigError):
            # z=0 on the only memory level -> still constructible?  The
            # layout requires at least one memory level; emptying it via
            # top_cached==levels is rejected at config level instead.
            make_oram(levels=4, top=4)

    def test_bucket_addresses_respect_z(self):
        oram = make_oram(levels=6, top=2).with_z_vector((4, 4, 1, 2, 3, 4))
        layout = TreeLayout(oram, DRAMConfig())
        assert len(layout.bucket_addresses(2, 0)) == 1
        assert len(layout.bucket_addresses(3, 0)) == 2
        assert len(layout.bucket_addresses(4, 0)) == 3


class TestDRAMHelpers:
    def test_batch_from_addresses(self):
        batch = batch_from_addresses([1, 2], True)
        assert all(access.is_write for access in batch)
        assert [access.phys_block for access in batch] == [1, 2]

    def test_access_latency_single(self):
        dram = DRAMModel(DRAMConfig())
        from repro.mem.request import MemAccess

        first = dram.access_latency(MemAccess(0), 0)
        assert first > 0


class TestPathAccessRecord:
    def test_defaults(self):
        record = PathAccessRecord(
            issue_cycle=5, leaf=3, path_type=PathType.DATA
        )
        assert record.read_addresses == []
        assert record.write_addresses == []


class TestEvictionStormYield:
    def test_queued_request_progresses_during_storm(self):
        """Even with the stash pinned above threshold, a queued demand
        request is eventually serviced (anti-starvation yield)."""
        from repro.oram.controller import MAX_CONSECUTIVE_EVICTIONS
        from repro.oram.types import Request, RequestKind

        config = SystemConfig.tiny()
        components = build_scheme("Baseline", config)
        controller = components.controller

        # Pin the stash above threshold artificially by monkeypatching the
        # threshold check input: move blocks from the tree into the stash.
        from repro.oram.tree import EMPTY

        tree = controller.tree
        moved = 0
        for level in range(tree.levels - 1, -1, -1):
            for position in range(1 << level):
                slots = tree.bucket(level, position)
                for i, block in enumerate(slots):
                    if block != EMPTY:
                        tree.set_slot(level, position, i, EMPTY)
                        tree.level_used[level] -= 1
                        controller.stash.add(
                            block, controller.posmap.leaf_of(block)
                        )
                        moved += 1
                    if moved > controller.oram.eviction_threshold + 220:
                        break
                if moved > controller.oram.eviction_threshold + 220:
                    break
            if moved > controller.oram.eviction_threshold + 220:
                break

        request = Request(block=0, kind=RequestKind.READ, arrival=0)
        controller.enqueue(request)
        now = 0
        for _ in range(3 * MAX_CONSECUTIVE_EVICTIONS):
            result = controller.step(now, allow_dummy=False)
            if result is None or request.completion is not None:
                break
            now = max(now + 1, result.finish_write)
        assert request.completion is not None


class TestSeedIsolation:
    def test_controller_rngs_do_not_alias(self):
        """Two builds with the same seed produce identical trees."""
        a = build_scheme("Baseline", SystemConfig.tiny()).controller
        b = build_scheme("Baseline", SystemConfig.tiny()).controller
        assert a.posmap._leaf_of == b.posmap._leaf_of
        assert a.tree.level_used == b.tree.level_used
