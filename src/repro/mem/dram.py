"""Cycle-approximate DRAM timing model (USIMM-like).

The paper evaluates with USIMM, a cycle-accurate DRAM simulator.  We model
the first-order behaviour USIMM provides to an ORAM study:

* per-channel data buses with burst occupancy;
* per-bank row buffers with activate/precharge penalties on row misses;
* bank-level parallelism within and across channels;
* a close-to-FR-FCFS effect obtained by servicing each path's accesses in
  address order (the subtree layout then yields row hits within supernodes).

The model is driven in *batches*: the ORAM controller hands over all block
accesses of one path phase at once and receives the cycle at which the
phase completes.  All public times are in CPU cycles (3.2 GHz); internal
state is kept in DRAM cycles (800 MHz).

Bank state is held in three flat ``array('q')`` buffers (``bank_ready``,
``bank_open_row`` with ``-1`` meaning closed, ``bus_free``), banks indexed
by ``channel * banks_per_channel + bank``.  The batch-service inner loop
runs in the optional :mod:`repro.perf.native` C kernel when available,
with a bit-identical pure-Python fallback.  A controller's kernel state
holds the same three arrays, so a kernel path access times both of its
bursts in C on them directly and counts them there; the arrays never
resize.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence, Tuple

from .. import stats_keys as sk
from ..config import DRAMConfig
from ..obs import events as ev
from ..perf.native import fastpath as _native
from ..stats import Stats
from .request import MemAccess

#: sentinel row id meaning "no row open in this bank"
_CLOSED = -1


class DRAMModel:
    """State-holding DRAM timing engine.

    Addressing: physical block address -> row via ``row_blocks``; rows are
    striped across channels first, then banks, so consecutive rows (and thus
    consecutive supernodes along a path) exploit channel parallelism.
    """

    def __init__(self, config: DRAMConfig, stats: Optional[Stats] = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        n_banks = config.channels * config.banks_per_channel
        self.bank_ready = array("q", [0]) * n_banks
        self.bank_open_row = array("q", [_CLOSED]) * n_banks
        self.bus_free = array("q", [0]) * config.channels

    # -- address decomposition ----------------------------------------------
    def decompose(self, phys_block: int) -> Tuple[int, int, int]:
        """Return ``(channel, bank, row)`` for a physical block address.

        Delegates to :meth:`decompose_batch` so the address-mapping
        arithmetic lives in exactly one place.
        """
        flat_bank, channel, row = self.decompose_batch((phys_block,))
        return channel, flat_bank - channel * self.config.banks_per_channel, row

    def decompose_batch(self, addresses: Iterable[int]) -> "array[int]":
        """Resolve addresses to a flat ``array('q')`` of (bank, channel, row).

        The triples use this model's flat bank indexing; the C kernels'
        ``dram_triples`` computes the same array for a whole path.
        """
        cfg = self.config
        row_blocks = cfg.row_blocks
        channels = cfg.channels
        banks_per_channel = cfg.banks_per_channel
        flat = array("q")
        append = flat.append
        for phys_block in addresses:
            row = phys_block // row_blocks
            channel = row % channels
            append(channel * banks_per_channel + (row // channels) % banks_per_channel)
            append(channel)
            append(row)
        return flat

    # -- timing --------------------------------------------------------------
    def service_batch(self, accesses: Iterable[MemAccess], start_cycle: int) -> int:
        """Service a batch of block accesses; return the completion cycle.

        ``start_cycle`` and the return value are CPU cycles.  Accesses are
        serviced in the order given; callers wanting row-buffer locality
        should present them sorted by physical address (path reads from the
        subtree layout already are).
        """
        accesses = list(accesses)
        writes = sum(1 for access in accesses if access.is_write)
        if 0 < writes < len(accesses):
            # Mixed batch: split into maximal same-direction runs so the
            # per-direction counters stay exact while runs keep the
            # batch path's bank/bus pipelining.
            finish = start_cycle
            run: List[int] = []
            run_write = accesses[0].is_write
            for access in accesses:
                if access.is_write != run_write:
                    finish = self.service_addresses(run, run_write, finish)
                    run = []
                    run_write = access.is_write
                run.append(access.phys_block)
            return self.service_addresses(run, run_write, finish)
        addresses = [access.phys_block for access in accesses]
        return self.service_addresses(addresses, writes == len(addresses), start_cycle)

    def service_addresses(
        self, addresses: List[int], is_write: bool, start_cycle: int
    ) -> int:
        """Service raw physical block addresses in order."""
        return self.service_decomposed(
            self.decompose_batch(addresses), is_write, start_cycle
        )

    def service_decomposed(
        self, triples: "array[int]", is_write: bool, start_cycle: int
    ) -> int:
        """Service a flat ``array('q')`` of DRAM triples.

        Timing-identical to :meth:`service_addresses` on the corresponding
        address list.  Bursts issued apart from a kernel path access
        (deferred writes, the Rho and Ring small trees, the Python
        phases) hand over the triples the controller computes per access
        (:meth:`decompose_batch`, or the kernels' ``dram_triples``).
        """
        cfg = self.config
        now_dram = -(-start_cycle // cfg.cpu_cycles_per_dram_cycle)
        if _native is not None:
            finish, row_hits, conflicts = _native.dram_service(
                triples,
                self.bank_ready,
                self.bank_open_row,
                self.bus_free,
                now_dram,
                cfg.t_rp,
                cfg.t_rcd,
                cfg.t_burst,
                cfg.t_cas + cfg.t_burst,
            )
        else:
            finish, row_hits, conflicts = self._service_py(triples, now_dram)
        finish_cpu = finish * cfg.cpu_cycles_per_dram_cycle
        self.book(len(triples) // 3, is_write, start_cycle, finish_cpu,
                  row_hits, conflicts)
        return finish_cpu

    def book(self, count: int, is_write: bool, start_cycle: int,
             finish_cpu: int, row_hits: int, conflicts: int) -> None:
        """Book one serviced burst of ``count`` accesses: the DRAM
        counters, and a ``dram.batch`` event when traced.  The C kernels
        count the bursts they time themselves (the state's counter keys)
        and leave the event to :meth:`emit_batch`."""
        counters = self.stats.counters
        counters[sk.DRAM_ACCESSES] += count
        counters[sk.DRAM_ROW_HITS] += row_hits
        counters[sk.DRAM_ROW_CONFLICTS] += conflicts
        counters[sk.DRAM_WRITES if is_write else sk.DRAM_READS] += count
        self.emit_batch(count, is_write, start_cycle, finish_cpu, row_hits,
                        conflicts)

    def emit_batch(self, count: int, is_write: bool, start_cycle: int,
                   finish_cpu: int, row_hits: int, conflicts: int) -> None:
        """The ``dram.batch`` event of one burst, when traced."""
        tracer = self.stats.tracer
        if tracer is not None:
            tracer.emit(
                ev.DRAM_BATCH,
                start_cycle,
                accesses=count,
                row_hits=row_hits,
                row_conflicts=conflicts,
                write=is_write,
                finish=finish_cpu,
            )

    def _service_py(
        self, triples: Sequence[int], now_dram: int
    ) -> Tuple[int, int, int]:
        """Pure-Python batch service; the native kernel's oracle."""
        cfg = self.config
        finish = now_dram
        row_hits = 0
        conflicts = 0
        t_rp = cfg.t_rp
        t_rcd = cfg.t_rcd
        t_burst = cfg.t_burst
        cas_burst = cfg.t_cas + t_burst
        bus_free = self.bus_free
        ready = self.bank_ready
        open_row = self.bank_open_row
        for i in range(0, len(triples), 3):
            bank = triples[i]
            channel = triples[i + 1]
            row = triples[i + 2]
            t = ready[bank]
            free = bus_free[channel]
            if free > t:
                t = free
            if now_dram > t:
                t = now_dram
            current = open_row[bank]
            if current != row:
                if current != _CLOSED:
                    t += t_rp
                    conflicts += 1
                t += t_rcd
                open_row[bank] = row
            else:
                row_hits += 1
            # Column accesses pipeline: the next command can issue after
            # one burst slot; the data itself lands tCAS later.
            done = t + cas_burst
            next_slot = t + t_burst
            bus_free[channel] = next_slot
            ready[bank] = next_slot
            if done > finish:
                finish = done
        return finish, row_hits, conflicts

    def access_latency(self, access: MemAccess, start_cycle: int) -> int:
        """Service a single access; convenience wrapper over a batch of one."""
        return self.service_batch([access], start_cycle)

    # -- inspection -----------------------------------------------------------
    def row_hit_rate(self) -> float:
        hits = self.stats.get(sk.DRAM_ROW_HITS)
        total = self.stats.get(sk.DRAM_ACCESSES)
        return hits / total if total else 0.0


def batch_from_addresses(
    addresses: Iterable[int], is_write: bool
) -> List[MemAccess]:
    """Build a batch of :class:`MemAccess` from raw physical addresses."""
    return [MemAccess(addr, is_write) for addr in addresses]
