"""Unit tests for the DRAM timing model."""

import pytest

from repro.config import DRAMConfig
from repro.mem.dram import DRAMModel, batch_from_addresses
from repro.mem.request import MemAccess
from repro.stats import Stats


@pytest.fixture
def dram():
    return DRAMModel(DRAMConfig())


class TestDecompose:
    def test_rows_stripe_across_channels(self, dram):
        cfg = dram.config
        channels = [
            dram.decompose(row * cfg.row_blocks)[0] for row in range(cfg.channels)
        ]
        assert sorted(channels) == list(range(cfg.channels))

    def test_same_row_same_bank(self, dram):
        cfg = dram.config
        a = dram.decompose(0)
        b = dram.decompose(cfg.row_blocks - 1)
        assert a == b

    def test_decompose_delegates_to_batch(self, dram):
        # decompose and decompose_batch share one arithmetic: the scalar
        # (channel, bank, row) must match the flat triple for any address.
        cfg = dram.config
        for phys in (0, 1, 63, 64, 1000, 123457):
            channel, bank, row = dram.decompose(phys)
            flat = dram.decompose_batch([phys])
            assert list(flat) == [
                channel * cfg.banks_per_channel + bank, channel, row
            ]


class TestTiming:
    def test_single_access_latency(self, dram):
        cfg = dram.config
        finish = dram.access_latency(MemAccess(0), start_cycle=0)
        expected = (cfg.t_rcd + cfg.t_cas + cfg.t_burst) * (
            cfg.cpu_cycles_per_dram_cycle
        )
        assert finish == expected

    def test_row_hit_faster_than_miss(self, dram):
        first = dram.access_latency(MemAccess(0), 0)
        second = dram.access_latency(MemAccess(1), first)
        third_row = dram.config.row_blocks * dram.config.channels  # same bank
        third = dram.access_latency(MemAccess(third_row), second)
        assert second - first < third - second

    def test_row_hit_counters(self, dram):
        dram.service_batch(batch_from_addresses([0, 1, 2, 3], False), 0)
        assert dram.stats.get("dram.row_hits") == 3
        assert dram.stats.get("dram.accesses") == 4

    def test_row_conflict_counted(self, dram):
        cfg = dram.config
        same_bank_stride = cfg.row_blocks * cfg.channels * cfg.banks_per_channel
        dram.service_batch(
            batch_from_addresses([0, same_bank_stride], False), 0
        )
        assert dram.stats.get("dram.row_conflicts") == 1

    def test_channel_parallelism(self, dram):
        cfg = dram.config
        # one block in each channel: should finish far faster than 4 blocks
        # in one channel's single bank row-conflicting
        parallel_addrs = [
            row * cfg.row_blocks for row in range(cfg.channels)
        ]
        finish_parallel = dram.service_batch(
            batch_from_addresses(parallel_addrs, False), 0
        )
        dram2 = DRAMModel(cfg)
        stride = cfg.row_blocks * cfg.channels * cfg.banks_per_channel
        serial_addrs = [i * stride for i in range(cfg.channels)]
        finish_serial = dram2.service_batch(
            batch_from_addresses(serial_addrs, False), 0
        )
        assert finish_parallel < finish_serial

    def test_monotonic_completion(self, dram):
        finish1 = dram.service_batch(batch_from_addresses([0, 1], False), 0)
        finish2 = dram.service_batch(batch_from_addresses([2, 3], False), finish1)
        assert finish2 >= finish1

    def test_start_cycle_respected(self, dram):
        finish = dram.service_batch(batch_from_addresses([0], False), 1000)
        assert finish > 1000

    def test_empty_batch(self, dram):
        finish = dram.service_batch([], 123)
        # empty batches complete at (rounded) start
        assert finish >= 123 - dram.config.cpu_cycles_per_dram_cycle
        assert finish <= 123 + dram.config.cpu_cycles_per_dram_cycle

    def test_write_counters(self, dram):
        dram.service_addresses([0, 1], True, 0)
        dram.service_addresses([2], False, 0)
        assert dram.stats.get("dram.writes") == 2
        assert dram.stats.get("dram.reads") == 1

    def test_mixed_batch_split_counts(self, dram):
        batch = [MemAccess(0, False), MemAccess(1, True)]
        dram.service_batch(batch, 0)
        assert dram.stats.get("dram.reads") == 1
        assert dram.stats.get("dram.writes") == 1

    def test_mixed_batch_counters_match_per_access(self, dram):
        # 3 reads, 2 writes, 1 read: grouped into maximal runs, yet the
        # per-direction counters must equal a per-access loop's.
        batch = [
            MemAccess(0, False), MemAccess(1, False), MemAccess(2, False),
            MemAccess(64, True), MemAccess(65, True),
            MemAccess(3, False),
        ]
        dram.service_batch(batch, 0)
        assert dram.stats.get("dram.reads") == 4
        assert dram.stats.get("dram.writes") == 2
        assert dram.stats.get("dram.accesses") == 6

        reference = DRAMModel(dram.config)
        finish = 0
        for access in batch:
            finish = reference.service_batch([access], finish)
        assert reference.stats.get("dram.reads") == 4
        assert reference.stats.get("dram.writes") == 2

    def test_mixed_batch_runs_pipeline(self, dram):
        # Same-direction runs keep the batch path's bank/bus pipelining,
        # so a grouped mixed batch never finishes later than servicing
        # every access as its own one-element batch.
        batch = [MemAccess(addr, False) for addr in range(4)]
        batch += [MemAccess(64 + addr, True) for addr in range(4)]
        grouped_finish = dram.service_batch(batch, 0)

        reference = DRAMModel(dram.config)
        finish = 0
        for access in batch:
            finish = reference.service_batch([access], finish)
        assert grouped_finish <= finish
        # The 4-read run gets 3 row hits and the 4-write run 3 more; the
        # one-by-one loop would see the same rows but pay bus turnaround
        # sequencing per element.  Row-hit counts still agree.
        assert dram.stats.get("dram.row_hits") == reference.stats.get(
            "dram.row_hits"
        )

    def test_single_direction_batch_unchanged_by_mixed_path(self, dram):
        # A pure batch must not take the run-splitting path.
        finish = dram.service_batch(batch_from_addresses([0, 1, 2], False), 0)
        reference = DRAMModel(dram.config)
        assert finish == reference.service_addresses([0, 1, 2], False, 0)

    def test_row_hit_rate(self, dram):
        dram.service_addresses(list(range(8)), False, 0)
        assert dram.row_hit_rate() == pytest.approx(7 / 8)


class TestMemAccess:
    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemAccess(-1)
