"""The ``python -m repro bench`` performance suite.

Two sections, both deterministic for a fixed seed:

* **suite** — full-system simulations (scheme × workload grid) through
  :func:`repro.perf.engine.run_points`, timed per point and end to end;
* **kernel** — a tight ``dummy_path`` loop per scheme, measuring the
  hot-path layer alone (read phase + stash + write phase + DRAM model)
  in paths per second, with no trace/LLC machinery around it.

Reports are machine-readable JSON (``BENCH_PR1.json`` at the repo root is
the committed reference).  ``--check`` compares the *normalized*
throughputs (paths per second, which are records-count independent) of a
fresh run against a reference report and fails on regressions beyond
``--max-regression`` — this is what CI runs with ``--smoke``.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from .engine import SimPoint, aggregate_engine_counters, run_points
from .native import available as native_available

#: rows kept per phase by ``--profile`` (sorted by cumulative time)
PROFILE_TOP_N = 12

#: tree levels for every bench configuration (kept modest so the suite
#: finishes in seconds while still exercising the real protocol depth)
BENCH_LEVELS = 13

FULL_SCHEMES = ["Baseline", "IR-Alloc", "IR-Stash", "IR-DWB", "IR-ORAM", "LLC-D"]
FULL_WORKLOADS = ["mix", "random", "gcc"]
FULL_RECORDS = 2500

SMOKE_SCHEMES = ["Baseline", "IR-Stash", "IR-ORAM"]
SMOKE_WORKLOADS = ["mix"]
SMOKE_RECORDS = 800

KERNEL_SCHEMES = ["Baseline", "IR-Alloc", "IR-Stash", "IR-ORAM"]
FULL_KERNEL_PATHS = 18000
SMOKE_KERNEL_PATHS = 1500

#: paths per native run_batch call in the kernel loop
KERNEL_BATCH_SLOTS = 512

BENCH_SEED = 7


def _kernel_worker(
    spec: Tuple[str, int, int, int], profile: bool = False
) -> Dict[str, object]:
    """One kernel measurement: a batched dummy-path loop on a fresh scheme.

    Drains paths through :meth:`PathORAMController.run_dummy_batch` in
    chunks — the native whole-batch kernel when available, the bit-
    identical per-path loop otherwise — so the measured cycles are the
    same either way and double as a cross-machine determinism gate.
    ``cycles_smoke`` snapshots the clock after ``SMOKE_KERNEL_PATHS``
    paths, a point every kernel run passes, so smoke and full reports
    stay cycle-comparable to each other.
    """
    from ..core.schemes import build_scheme

    scheme, levels, paths, seed = spec
    config = SystemConfig.scaled(levels=levels)
    controller = build_scheme(
        scheme, config, rng=random.Random(seed)
    ).controller
    # Warm the pure address-geometry cache (DRAM triples, and their
    # packed kernel form) outside the timed region: they never affect simulated cycles, and
    # cold misses otherwise dominate the first few thousand paths.
    warm = getattr(controller, "warm_path_caches", None)
    if warm is not None:
        warm()
    now = 0
    done = 0
    cycles_smoke = 0
    start = time.perf_counter()
    while done < paths:
        target = paths
        if done < SMOKE_KERNEL_PATHS <= paths:
            target = SMOKE_KERNEL_PATHS
        chunk = min(KERNEL_BATCH_SLOTS, target - done)
        issued, now, _ = controller.run_dummy_batch(
            now, chunk, collect_timing=profile
        )
        if issued != chunk:
            raise RuntimeError(
                f"kernel batch stopped early: {issued}/{chunk} paths"
            )
        done += issued
        if done == SMOKE_KERNEL_PATHS:
            cycles_smoke = now
    wall = time.perf_counter() - start
    return {
        "scheme": scheme,
        "paths": paths,
        "cycles": now,
        "cycles_smoke": cycles_smoke,
        "wall_s": round(wall, 4),
        "paths_per_s": round(paths / wall, 1),
        "batch": dict(controller.batch_counters),
    }


def _profile_rows(profile: cProfile.Profile) -> List[Dict[str, object]]:
    """Top-N rows of a finished profile, sorted by cumulative time."""
    stream = io.StringIO()
    stats = pstats.Stats(profile, stream=stream)
    rows: List[Dict[str, object]] = []
    entries = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: -item[1][3],  # cumulative time
    )
    for (filename, line, name), data in entries[:PROFILE_TOP_N]:
        calls, _, tottime, cumtime, _ = data
        rows.append(
            {
                "func": f"{os.path.basename(filename)}:{line}({name})",
                "calls": int(calls),
                "tottime": round(tottime, 4),
                "cumtime": round(cumtime, 4),
            }
        )
    return rows


def run_bench(
    smoke: bool = False,
    jobs: int = 1,
    seed: int = BENCH_SEED,
    trace_out: Optional[str] = None,
    profile: bool = False,
) -> Dict[str, object]:
    """Run the suite and return the JSON-ready report.

    ``trace_out`` names a directory; each suite point then streams its
    event trace to ``<trace_out>/<scheme>_<workload>.jsonl`` (one file per
    point, so parallel workers never share a handle).  Tracing does not
    change simulation results, but it does cost wall time — traced bench
    numbers are not comparable to untraced references.

    ``profile`` wraps each phase in :mod:`cProfile` and attaches the
    top-N hotspots per phase to the report.  Profiling forces the suite
    serial (``jobs=1``) — child processes cannot be profiled from here —
    and costs wall time, so profiled numbers are not comparable either.
    """
    schemes = SMOKE_SCHEMES if smoke else FULL_SCHEMES
    workloads = SMOKE_WORKLOADS if smoke else FULL_WORKLOADS
    records = SMOKE_RECORDS if smoke else FULL_RECORDS
    kernel_paths = SMOKE_KERNEL_PATHS if smoke else FULL_KERNEL_PATHS
    if profile:
        jobs = 1

    if trace_out is not None:
        os.makedirs(trace_out, exist_ok=True)

    def point_trace(scheme: str, workload: str) -> Optional[str]:
        if trace_out is None:
            return None
        return os.path.join(trace_out, f"{scheme}_{workload}.jsonl")

    config = SystemConfig.scaled(levels=BENCH_LEVELS)
    points = [
        SimPoint(
            scheme,
            workload,
            records=records,
            seed=seed,
            config=config,
            trace_out=point_trace(scheme, workload),
        )
        for scheme in schemes
        for workload in workloads
    ]
    suite_profile = cProfile.Profile() if profile else None
    if suite_profile is not None:
        suite_profile.enable()
    results, suite_wall = run_points(points, jobs=jobs)
    if suite_profile is not None:
        suite_profile.disable()

    point_rows = []
    total_paths = 0.0
    for item in results:
        paths = item.result.total_paths()
        total_paths += paths
        point_rows.append(
            {
                "scheme": item.point.scheme,
                "workload": item.point.workload,
                "records": item.point.records,
                "seed": item.point.seed,
                "cycles": item.result.cycles,
                "paths": int(paths),
                "wall_s": round(item.wall_s, 4),
                "paths_per_s": round(paths / max(item.wall_s, 1e-9), 1),
            }
        )

    # The kernel section measures single-core throughput, so it always
    # runs serially — parallel kernel runs would contend with each other
    # and report degraded, machine-load-dependent numbers.
    kernel_profile = cProfile.Profile() if profile else None
    if kernel_profile is not None:
        kernel_profile.enable()
    kernel_rows = [
        _kernel_worker(
            (scheme, BENCH_LEVELS, kernel_paths, seed), profile=profile
        )
        for scheme in KERNEL_SCHEMES
    ]
    if kernel_profile is not None:
        kernel_profile.disable()

    report_extra = {} if trace_out is None else {"trace_out": trace_out}
    report = {
        "suite": "smoke" if smoke else "full",
        "levels": BENCH_LEVELS,
        "seed": seed,
        "jobs": jobs,
        **report_extra,
        "native_kernels": native_available(),
        "suite_wall_s": round(suite_wall, 4),
        "suite_paths_per_s": round(total_paths / max(suite_wall, 1e-9), 1),
        "engine": {
            key.split(".", 1)[1]: value
            for key, value in sorted(
                aggregate_engine_counters(results).items()
            )
        },
        "points": point_rows,
        "kernel": kernel_rows,
    }
    if suite_profile is not None and kernel_profile is not None:
        report["profile"] = {
            "suite": _profile_rows(suite_profile),
            "kernel": _profile_rows(kernel_profile),
        }
        batch_rows = _batch_profile_rows(kernel_rows)
        if batch_rows:
            # Only present when the native batch kernel ran: its
            # engine.batch.*_ns clocks attribute the opaque C frame.
            report["profile"]["batch"] = batch_rows
    return report


def _batch_profile_rows(
    kernel_rows: Sequence[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Per-phase time spent *inside* the native batch kernel.

    cProfile sees one opaque C frame per ``run_batch`` call; the kernel's
    own ``engine.batch.*_ns`` clocks attribute that time to the protocol
    phases instead.
    """
    totals: Dict[str, int] = {}
    for row in kernel_rows:
        for key, value in (row.get("batch") or {}).items():
            if key.endswith("_ns"):
                totals[key] = totals.get(key, 0) + int(value)
    return [
        {
            "phase": key.rsplit(".", 1)[1][: -len("_ns")],
            "ms": round(value / 1e6, 3),
        }
        for key, value in sorted(totals.items(), key=lambda kv: -kv[1])
    ]


def check_report(
    current: Dict[str, object],
    reference: Dict[str, object],
    max_regression: float = 2.0,
) -> List[str]:
    """Regression check: normalized throughput vs a reference report.

    Compares paths-per-second figures (independent of how many records or
    paths each suite ran), so a ``--smoke`` run can be checked against a
    committed full-bench reference.  Returns failure descriptions; empty
    means the check passed.
    """
    failures: List[str] = []
    floor = 1.0 / max_regression

    # Suite aggregate throughput is only meaningful against a reference
    # of the same kind: a smoke suite is startup-dominated, so checking
    # it against a full-bench reference measures process warmup, not the
    # simulator.  Cross-kind checks rely on the kernel rows instead.
    same_kind = current.get("suite") == reference.get("suite")
    ref_suite = float(reference.get("suite_paths_per_s", 0.0))
    cur_suite = float(current.get("suite_paths_per_s", 0.0))
    if same_kind and ref_suite > 0 and cur_suite < ref_suite * floor:
        failures.append(
            f"suite throughput {cur_suite:.0f} paths/s is more than "
            f"{max_regression:.1f}x below reference {ref_suite:.0f}"
        )

    ref_rows = {
        row["scheme"]: row for row in reference.get("kernel", [])
    }
    comparable = (
        current.get("seed") == reference.get("seed")
        and current.get("levels") == reference.get("levels")
    )
    for row in current.get("kernel", []):
        scheme = row["scheme"]
        ref_row = ref_rows.get(scheme)
        if ref_row is None:
            continue
        ref = float(ref_row["paths_per_s"])
        if ref and float(row["paths_per_s"]) < ref * floor:
            failures.append(
                f"kernel {scheme}: {row['paths_per_s']:.0f} paths/s is more "
                f"than {max_regression:.1f}x below reference {ref:.0f}"
            )
        if not comparable:
            continue
        # Cycle counts are simulated, not measured: for the same seed and
        # geometry they are machine-independent, so any comparable figure
        # must match the reference *exactly* (the determinism gate).
        for key in ("cycles_smoke", "cycles"):
            if key == "cycles" and row.get("paths") != ref_row.get("paths"):
                continue
            cur_val = row.get(key)
            ref_val = ref_row.get(key)
            if cur_val is not None and ref_val is not None \
                    and cur_val != ref_val:
                failures.append(
                    f"kernel {scheme}: {key}={cur_val} differs from "
                    f"reference {ref_val} (determinism violation)"
                )
    return failures


def format_report(report: Dict[str, object]) -> str:
    lines = [
        f"bench suite={report['suite']} levels={report['levels']} "
        f"jobs={report['jobs']} native={report['native_kernels']}",
        f"suite wall {report['suite_wall_s']:.2f}s  "
        f"({report['suite_paths_per_s']:.0f} paths/s aggregate)",
        "",
        f"{'scheme':<10} {'workload':<8} {'cycles':>13} {'paths':>7} "
        f"{'wall s':>7} {'paths/s':>9}",
    ]
    for row in report["points"]:
        lines.append(
            f"{row['scheme']:<10} {row['workload']:<8} "
            f"{row['cycles']:>13,} {row['paths']:>7} "
            f"{row['wall_s']:>7.2f} {row['paths_per_s']:>9.0f}"
        )
    lines.append("")
    lines.append(f"{'kernel (hot path alone)':<19} {'paths/s':>9}")
    for row in report["kernel"]:
        lines.append(f"{row['scheme']:<19} {row['paths_per_s']:>9.0f}")
    engine = report.get("engine") or {}
    if engine:
        lines.append("")
        lines.append(
            "engine: " + "  ".join(
                f"{key}={value}" for key, value in sorted(engine.items())
            )
        )
    for phase, rows in (report.get("profile") or {}).items():
        lines.append("")
        if rows and "phase" in rows[0]:
            lines.append(f"profile [{phase}]  {'ms':>10}")
            for row in rows:
                lines.append(f"  {row['phase']:<48} {row['ms']:>10.3f}")
            continue
        lines.append(
            f"profile [{phase}]  {'calls':>9} {'tottime':>8} {'cumtime':>8}"
        )
        for row in rows:
            lines.append(
                f"  {row['func']:<48} {row['calls']:>7} "
                f"{row['tottime']:>8.3f} {row['cumtime']:>8.3f}"
            )
    return "\n".join(lines)


def load_report(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
