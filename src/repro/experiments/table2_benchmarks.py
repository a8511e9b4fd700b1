"""Table II: the evaluated benchmarks and their read/write MPKI.

Regenerates the table from the benchmark models and validates each model
by generating a trace and measuring the post-LLC miss intensity it
actually produces on the scaled platform (the paper's MPKI are L2 misses
per kilo-instruction).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Optional

from ..config import SystemConfig
from ..traces.benchmarks import BENCHMARKS, benchmark_trace
from .common import RECORDS, ExperimentResult


def measured_llc_mpki(name: str, config: SystemConfig, records: int, seed: int = 7):
    """Post-LLC (read, write) MPKI of a generated trace, via a fast LRU model."""
    model = BENCHMARKS[name]
    rng = random.Random(seed)
    trace = benchmark_trace(
        model, config.oram.user_blocks, records, rng, llc_lines=config.llc.lines
    )
    lru: "OrderedDict[int, None]" = OrderedDict()
    read_misses = write_misses = 0
    for _, block, is_write in trace:
        if block in lru:
            lru.move_to_end(block)
            continue
        lru[block] = None
        if len(lru) > config.llc.lines:
            lru.popitem(last=False)
        if is_write:
            write_misses += 1
        else:
            read_misses += 1
    instructions = trace.instructions()
    scale = 1000.0 / max(instructions, 1)
    return read_misses * scale, write_misses * scale


def run(
    config: Optional[SystemConfig] = None, records: Optional[int] = None
) -> ExperimentResult:
    config = config if config is not None else SystemConfig.scaled()
    records = records if records is not None else RECORDS
    rows = []
    for name, model in BENCHMARKS.items():
        read_measured, write_measured = measured_llc_mpki(name, config, records)
        rows.append(
            [
                model.suite,
                name,
                model.read_mpki,
                model.write_mpki,
                round(read_measured, 2),
                round(write_measured, 2),
            ]
        )
    return ExperimentResult(
        experiment_id="Table II",
        title="Evaluated benchmarks: Table II MPKI vs generated-trace MPKI",
        headers=[
            "suite",
            "benchmark",
            "paper read MPKI",
            "paper write MPKI",
            "measured read MPKI",
            "measured write MPKI",
        ],
        rows=rows,
        paper_claim="13 SPEC CPU2017 / PARSEC programs spanning 0.05-45.3 MPKI",
        notes=[
            "Measured MPKI comes from replaying the generated trace through "
            "an LRU model of the scaled LLC; the models aim at the paper's "
            "read/write balance and relative intensity, not exact values.",
        ],
    )
