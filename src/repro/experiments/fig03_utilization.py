"""Fig. 3: tree space utilization per level over time.

The paper's methodology: a benchmark mix followed by a random-trace tail,
with snapshots taken along the run.  The expected shape: fluctuating top
levels, low-utilization middle levels (~20% under benchmark accesses,
~30% under random), and high-utilization bottom levels (70-80%).
"""

from __future__ import annotations

import random
from typing import Optional

from ..config import SystemConfig
from ..core.schemes import build_scheme
from ..sim.simulator import Simulator
from ..traces.mix import benchmark_mix_with_random_tail
from .common import RECORDS, ExperimentResult


def run(
    config: Optional[SystemConfig] = None,
    records: Optional[int] = None,
    snapshots: int = 5,
    scheme: str = "Baseline",
) -> ExperimentResult:
    config = config if config is not None else SystemConfig.scaled()
    records = records if records is not None else RECORDS
    rng = random.Random(11)
    # 92.5% benchmark mix, 7.5% random tail — the paper's 3.7B-of-4B split.
    trace = benchmark_mix_with_random_tail(
        config.oram.user_blocks,
        benchmark_count=int(records * 0.925),
        random_count=records - int(records * 0.925),
        rng=rng,
    )
    components = build_scheme(scheme, config)
    simulator = Simulator(components, trace)
    result = simulator.run(utilization_snapshots=snapshots)

    levels = config.oram.levels
    headers = ["snapshot"] + [f"L{level}" for level in range(levels)]
    rows = []
    series = result.utilization_series
    for index, (cycle, utilization) in enumerate(series):
        label = "init" if index == 0 else f"{index}/{len(series) - 1}"
        rows.append([label] + [round(u, 3) for u in utilization])
    if series:
        averaged = [
            round(sum(snapshot[level] for _, snapshot in series) / len(series), 3)
            for level in range(levels)
        ]
        rows.append(["average"] + averaged)
    return ExperimentResult(
        experiment_id="Fig. 3",
        title=f"Space utilization per tree level over time ({scheme})",
        headers=headers,
        rows=rows,
        paper_claim="top levels fluctuate; middle levels ~20% (benchmarks) "
                    "to ~30% (random); bottom levels 70-80%",
        notes=[f"trace: benchmark mix + random tail, {records} records"],
    )
