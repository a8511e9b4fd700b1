"""Table I: the evaluation platform configuration.

Prints the paper-scale configuration side by side with the scaled default
the experiments run on, so every scaling decision is visible.
"""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from .common import ExperimentResult


def run(config: Optional[SystemConfig] = None) -> ExperimentResult:
    paper = SystemConfig.paper()
    scaled = config if config is not None else SystemConfig.scaled()

    def describe(system: SystemConfig):
        oram = system.oram
        return {
            "Processor fetch width / ROB": f"{system.cpu.issue_width} / {system.cpu.rob_size}",
            "Memory channels": system.dram.channels,
            "DRAM clock ratio (CPU/DRAM)": system.dram.cpu_cycles_per_dram_cycle,
            "LLC (sets x ways)": f"{system.llc.sets} x {system.llc.ways} = "
                                 f"{system.llc.capacity_bytes // 1024} KB",
            "Protected space (blocks)": oram.tree_slots(),
            "User data (blocks)": oram.user_blocks,
            "ORAM tree levels": oram.levels,
            "Bucket / block size": f"{max(oram.z_per_level)} / {oram.block_bytes} B",
            "Stash entries": oram.stash_capacity,
            "Tree-top cache levels (entries)": f"{oram.top_cached_levels} "
            f"({sum(oram.z_per_level[l] << l for l in range(oram.top_cached_levels))})",
            "PLB entries": oram.plb_sets * oram.plb_ways,
            "Issue interval T (cycles)": oram.issue_interval,
            "Blocks per path (PL)": oram.blocks_per_path(),
        }

    paper_desc = describe(paper)
    scaled_desc = describe(scaled)
    rows = [
        [key, paper_desc[key], scaled_desc[key]] for key in paper_desc
    ]
    return ExperimentResult(
        experiment_id="Table I",
        title="System configuration (paper scale vs scaled default)",
        headers=["parameter", "paper", "scaled"],
        rows=rows,
        paper_claim="8GB/4GB protected space, L=25, Z=4, 2MB LLC, "
                    "10-level tree-top cache, 200-entry stash",
    )
