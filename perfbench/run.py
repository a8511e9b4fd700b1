"""Simulator benchmark: host time per simulated ORAM path, setup and memory.

Run from the repository root::

    python3 perfbench/run.py --workload real-random --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload deep-writes --trace 1   # per-layer table
    python3 perfbench/run.py --workload all                     # every workload
    python3 perfbench/run.py --record-digests                   # after a model change

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=(*harness.WORKLOADS, "all"), default="all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="re-record the expected output digest of every workload and "
        "input seed, then exit",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def print_table(report, traced: bool) -> None:
    """Human-readable metrics; traced, each time also as a share of wall."""
    wall = None
    if traced:
        walls = [rep.wall_s for rep in report.reps if rep.traced]
        wall = statistics.median(walls) if walls else None
    for name, (value, unit) in report.metrics.items():
        share = ""
        if wall and unit == "s":
            share = f"  {value / wall:6.1%} of traced wall_s"
        print(f"  {name:28s} {value:>16.6g} {unit}{share}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # REPRO_FASTPATH=0, REPRO_BATCH_SLOTS and the like select other code
    # paths, so results taken under them would not compare.
    leaked = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if leaked:
        print(f"perfbench: refusing to run with {', '.join(leaked)} set",
              file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all" and not args.record_digests:
        return run_all(args)

    # The native kernel builds into the checkout, not the user's cache.
    os.environ["REPRO_FASTPATH_CACHE"] = str(ROOT / ".bench_build" / "fastpath")
    sys.path.insert(0, str(SRC))
    facts = harness.prepare()
    if args.record_digests:
        harness.record_digests()
        print(f"perfbench: wrote {harness.DIGESTS_FILE.relative_to(ROOT)}")
        return 0

    workload = harness.WORKLOADS[args.workload]
    expected = harness.expected_digest(workload, args.seed)
    if expected is None:
        print(f"perfbench: no current expected digest for {workload.name}; "
              "run with --record-digests", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    print("perfbench: " + json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "input_seed": args.seed % harness.INPUT_SEEDS,
        "trace": args.trace,
        **facts,
    }))
    report = harness.measure(workload, args.seed, args.seconds, traced,
                             expected)
    print(f"perfbench: {workload.name}: {report.attempted} runs, "
          f"{report.failed} failed")
    for rep in report.reps:
        print(f"  {'traced' if rep.traced else 'plain':6s} wall_s {rep.wall_s:.4f}"
              f"  setup_s {rep.setup_s:.4f}"
              f"  paths_per_s {rep.paths / rep.sim_s:.1f}"
              f"  slowdown {rep.slowdown:.3f}")
    print_table(report, traced)
    print(json.dumps(report.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
