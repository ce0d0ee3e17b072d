"""Command-line entry point: ``python -m repro.bench``.

Subcommands::

    run      time the workload grid on every engine, write BENCH_<rev>.json
    compare  gate a new payload against a baseline payload

See :mod:`repro.bench` for the artifact schema and gating semantics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from .campaign_bench import CAMPAIGN_WORKLOADS
from .compare import METRICS, compare_files
from .harness import WORKLOADS, profile_workload, render_report, run_benchmarks


def _detect_rev() -> str:
    """Short git revision of the working tree, or ``local`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "local"
    except (OSError, subprocess.SubprocessError):
        return "local"


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser for ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Perf harness: time the simulation engines and gate regressions",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="time the workload grid, emit BENCH_<rev>.json")
    run.add_argument("--quick", action="store_true", help="reduced workload sizes (CI smoke mode)")
    run.add_argument(
        "--out",
        metavar="DIR",
        default="benchmarks/perf/out",
        help="directory for the BENCH_<rev>.json artifact (default: benchmarks/perf/out)",
    )
    run.add_argument(
        "--rev",
        default=None,
        help="revision label for the artifact name (default: git short hash)",
    )
    run.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="runs per engine per workload; best wall time is kept (default: 2)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="also cProfile each scenario per fast engine and write "
        "profile/<scenario>.txt hotspot tables next to the BENCH json",
    )
    run.add_argument(
        "--workload",
        action="append",
        choices=[workload.name for workload in WORKLOADS],
        help="restrict to specific engine workloads (repeatable; default: "
        "all; restricting skips the other families unless their own "
        "filters are also given)",
    )
    run.add_argument(
        "--campaign",
        action="append",
        choices=[bench.name for bench in CAMPAIGN_WORKLOADS],
        help="restrict to specific campaign benches (repeatable; default: "
        "all; restricting skips the other families unless their own "
        "filters are also given)",
    )

    compare = subparsers.add_parser("compare", help="gate new BENCH payload(s) against a baseline")
    compare.add_argument("old", help="baseline BENCH_*.json")
    compare.add_argument("new", nargs="+", help="candidate BENCH_*.json file(s)")
    compare.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="allowed fractional drop of the gated metric (default: 0.15)",
    )
    compare.add_argument(
        "--metric",
        choices=METRICS,
        default="speedup",
        help="gated metric; speedup is host-independent (default: speedup)",
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    rev = args.rev if args.rev is not None else _detect_rev()
    workloads = WORKLOADS
    campaigns = CAMPAIGN_WORKLOADS
    if args.workload or args.campaign:
        # Any explicit filter narrows the run to exactly the named
        # benches; families without a filter of their own are skipped.
        workloads = (
            tuple(w for w in WORKLOADS if w.name in set(args.workload))
            if args.workload
            else ()
        )
        campaigns = (
            tuple(c for c in CAMPAIGN_WORKLOADS if c.name in set(args.campaign))
            if args.campaign
            else ()
        )
    payload = run_benchmarks(
        workloads=workloads,
        quick=args.quick,
        repeats=args.repeats,
        rev=rev,
        campaigns=campaigns,
    )
    print(render_report(payload))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{rev}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nWrote {path}")
    if args.profile:
        profile_dir = out_dir / "profile"
        profile_dir.mkdir(parents=True, exist_ok=True)
        for workload in workloads:
            text = profile_workload(workload, quick=args.quick)
            target = profile_dir / f"{workload.name.replace('/', '-')}.txt"
            target.write_text(text, encoding="utf-8")
            print(f"Wrote {target}")
    return 0


def _compare(args: argparse.Namespace) -> int:
    result = compare_files(
        args.old, args.new, max_regression=args.max_regression, metric=args.metric
    )
    print(result.render())
    return 0 if result.ok else 2


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.bench``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    return _compare(args)


if __name__ == "__main__":
    sys.exit(main())
