"""IR-ORAM: Path Access Type Based Memory Intensity Reduction for Path-ORAM.

A full reproduction of the HPCA 2022 paper by Raoufi, Zhang, and Yang:
a trace-driven secure-memory simulator (Path ORAM + Freecursive + subtree
layout + background eviction + timing-channel protection over a bank-level
DRAM model) with the paper's three contributions — IR-Alloc, IR-Stash, and
IR-DWB — and the comparison baselines (dedicated-tree-top Baseline, Rho,
LLC-D).

Quickstart::

    from repro import RunSpec, run

    out = run(RunSpec(scheme="IR-ORAM", workload="gcc"))
    print(out.cycles, out.result.path_type_distribution())

The :mod:`repro.api` facade is the entry point for every kind of run
(single runs, batches, sweeps, the benchmark); observability — event
tracing, metrics export, cycle breakdowns — is switched on per run with
:class:`repro.api.ObsOptions`.
"""

from . import api
from .api import ObsOptions, RunResult, RunSpec, run, run_many
from .config import (
    CacheConfig,
    CPUConfig,
    DRAMConfig,
    ORAMConfig,
    SystemConfig,
)
from .core.ir_alloc import (
    PAPER_ALLOC_CONFIGS,
    AllocPlan,
    apply_alloc_plan,
    find_z_allocation,
    scale_plan,
)
from .core.ir_dwb import DWBEngine
from .core.ir_stash import SStash
from .core.schemes import SCHEMES, Scheme, build_scheme
from .errors import (
    ConfigError,
    ProtocolError,
    ReproError,
    StashOverflowError,
    TraceError,
)
from .oram.controller import PathORAMController
from .oram.types import PathType
from .security.obliviousness import (
    AccessRecorder,
    ObliviousnessReport,
    check_obliviousness,
)
from .sim.results import SimulationResult
from .sim.runner import make_workload
from .sim.simulator import Simulator
from .stats import Stats
from .traces.benchmarks import BENCHMARKS, BenchmarkModel, benchmark_trace
from .traces.trace import Trace

__version__ = "1.0.0"

__all__ = [
    "api",
    "RunSpec",
    "RunResult",
    "ObsOptions",
    "run",
    "run_many",
    "SystemConfig",
    "ORAMConfig",
    "DRAMConfig",
    "CacheConfig",
    "CPUConfig",
    "PathORAMController",
    "PathType",
    "SCHEMES",
    "Scheme",
    "build_scheme",
    "SStash",
    "DWBEngine",
    "AllocPlan",
    "PAPER_ALLOC_CONFIGS",
    "apply_alloc_plan",
    "scale_plan",
    "find_z_allocation",
    "Simulator",
    "SimulationResult",
    "make_workload",
    "Trace",
    "BENCHMARKS",
    "BenchmarkModel",
    "benchmark_trace",
    "AccessRecorder",
    "ObliviousnessReport",
    "check_obliviousness",
    "Stats",
    "ReproError",
    "ConfigError",
    "ProtocolError",
    "StashOverflowError",
    "TraceError",
]
