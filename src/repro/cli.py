"""Command-line interface.

Six subcommands cover the library's main use cases without writing any
Python:

* ``repro-bounds derive-ubd`` — run the full rsk-nop methodology on a preset
  platform and print the derived ``ubdm`` with its confidence report;
* ``repro-bounds synchrony`` — run a load rsk against ``Nc - 1`` rsk and show
  the contention-delay histogram (the Figure 6(b) experiment);
* ``repro-bounds campaign`` — run an experiment campaign (randomly composed
  EEMBC-like workloads plus rsk reference runs, the Figure 6(a) experiment)
  through the parallel campaign engine, optionally writing JSON artifacts;
* ``repro-bounds audit`` — run every registered audit dimension over a
  preset, an ``ArchConfig`` JSON file or a finished campaign directory and
  emit a machine-readable ``flags.json`` plus a self-contained
  ``report.html``, exiting with the worst verdict (0 pass / 1 warn /
  2 fail) so CI can gate on it;
* ``repro-bounds cache`` — inspect (``stats``) and expire old entries of
  (``gc --keep-days N``) a durable result store.  Exit codes: 0 on
  success, 2 on configuration errors (missing store directory, corrupt
  arguments) — the same convention every subcommand follows;
* ``repro-bounds list`` — print the registered presets, arbitration
  policies, simulation engines and topologies.  The listing is read straight
  from the factories' registries, so it can never drift from what the
  simulator actually builds.

Examples::

    repro-bounds derive-ubd --preset ref --k-max 60 --iterations 40
    repro-bounds synchrony --preset var
    repro-bounds campaign --preset ref --workloads 8
    repro-bounds campaign --jobs 4 --out out/campaign --store out/store
    repro-bounds campaign --topology bus_only --topology bus_bank_queues
    repro-bounds cache stats --store out/store --json
    repro-bounds cache gc --store out/store --keep-days 30
    repro-bounds audit small --topology split_bus --out out/audit
    repro-bounds audit out/campaign
    repro-bounds list
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .config import ARBITRATION_POLICIES, ENGINES, PRESETS, TOPOLOGIES, get_preset
from .config import PER_RESOURCE, SAWTOOTH, admissibility
from .errors import ConfigurationError, MethodologyError, ReproError


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser for the ``repro-bounds`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-bounds",
        description="Measurement-based contention bounds for round-robin buses "
        "(DAC 2015 reproduction)",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="ref",
        help="platform preset to simulate (default: ref)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="event",
        help="simulation engine: the event-driven fast path, the codegen "
        "engine (a loop generated for the configured topology chain and "
        "arbiter set, falling back to the event engine on unknown registry "
        "entries), the replay engine (each core's request trace captured "
        "once per kernel and streamed through the interconnect on later "
        "runs) or the stepped cycle-by-cycle oracle; all are cycle-exact "
        "(default: event)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    derive = subparsers.add_parser("derive-ubd", help="run the rsk-nop methodology and report ubdm")
    derive.add_argument("--k-max", type=int, default=60, help="initial nop sweep upper bound")
    derive.add_argument(
        "--iterations", type=int, default=40, help="loop iterations of each rsk-nop kernel"
    )
    derive.add_argument(
        "--instruction-type",
        choices=("load", "store"),
        default="load",
        help="bus access type used by the kernels",
    )
    derive.add_argument(
        "--show-sweep", action="store_true", help="print the measured dbus(k) series"
    )
    derive.add_argument(
        "--topology",
        choices=TOPOLOGIES,
        default=None,
        help="override the preset's shared-resource topology",
    )
    derive.add_argument(
        "--per-resource",
        action="store_true",
        help="run the resource-generic measured-bound pipeline: one measured "
        "ubdm term per shared resource of the topology (selected from the "
        "rsk registry), sandwich-checked against the analytical terms and "
        "composed into an end-to-end measured bound",
    )
    derive.add_argument(
        "--stress-iterations",
        type=int,
        default=40,
        help="loop iterations of each per-resource stressing kernel "
        "(--per-resource only)",
    )

    synchrony = subparsers.add_parser(
        "synchrony", help="show the per-request contention histogram of rsk vs rsk"
    )
    synchrony.add_argument("--iterations", type=int, default=150)
    synchrony.add_argument(
        "--topology",
        choices=TOPOLOGIES,
        default=None,
        help="override the preset's shared-resource topology",
    )
    synchrony.add_argument(
        "--decompose",
        action="store_true",
        help="additionally attribute each request's latency to bus wait, "
        "bank-queue wait, DRAM service and response wait (per-resource "
        "Figure 6(b)-style histograms; needs a run with memory traffic to "
        "show more than the bus stage)",
    )

    campaign = subparsers.add_parser(
        "campaign",
        help="run an experiment campaign (random workloads + rsk references) "
        "with optional parallelism, caching and JSON artifacts",
    )
    campaign.add_argument("--workloads", type=int, default=8)
    campaign.add_argument("--iterations", type=int, default=25)
    campaign.add_argument("--seed", type=int, default=2015)
    campaign.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; 1 runs in-process (results are identical)",
    )
    campaign.add_argument(
        "--out",
        metavar="DIR",
        help="write results.jsonl, summary.json and the campaign.json "
        "manifest into DIR, streaming them while the campaign runs",
    )
    campaign.add_argument(
        "--store",
        metavar="DIR",
        help="durable result store, one <digest>.json artifact per run: "
        "re-runs only simulate misses and hits dedupe across all historical "
        "campaigns; any directory of such artifacts is a store "
        "(see 'repro-bounds cache')",
    )
    campaign.add_argument(
        "--arbiter",
        action="append",
        choices=ARBITRATION_POLICIES,
        help="bus arbitration policy to sweep (repeatable; default round_robin)",
    )
    campaign.add_argument(
        "--contenders",
        type=int,
        action="append",
        help="number of co-runners to sweep (repeatable; default: all cores)",
    )
    campaign.add_argument(
        "--topology",
        action="append",
        choices=TOPOLOGIES,
        help="shared-resource topology to sweep (repeatable; default: the "
        "preset's own topology)",
    )

    audit = subparsers.add_parser(
        "audit",
        help="evaluate every registered audit dimension over a preset, an "
        "ArchConfig JSON file or a finished campaign directory; emits "
        "flags.json + report.html and exits with the worst verdict "
        "(0 pass / 1 warn / 2 fail)",
    )
    audit.add_argument(
        "target",
        help="preset name, ArchConfig JSON file, or campaign output directory",
    )
    audit.add_argument(
        "--topology",
        choices=TOPOLOGIES,
        default=None,
        help="override the topology of a preset/config target "
        "(invalid for campaign directories)",
    )
    audit.add_argument(
        "--out",
        metavar="DIR",
        default="out/audit",
        help="directory receiving flags.json and report.html "
        "(default: out/audit)",
    )
    audit.add_argument("--k-max", type=int, default=60, help="initial nop sweep upper bound")
    audit.add_argument(
        "--iterations",
        type=int,
        default=40,
        help="loop iterations of each rsk-nop kernel",
    )
    audit.add_argument(
        "--stress-iterations",
        type=int,
        default=40,
        help="loop iterations of each per-resource stressing kernel",
    )
    audit.add_argument(
        "--synchrony-iterations",
        type=int,
        default=150,
        help="loop iterations of the traced synchrony/store-probe runs",
    )
    audit.add_argument(
        "--equivalence-iterations",
        type=int,
        default=40,
        help="loop iterations of the engine cross-check run",
    )

    cache = subparsers.add_parser(
        "cache",
        help="inspect and maintain a durable result store (exit 0 on "
        "success, 2 on configuration errors)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats",
        help="print entry counts and on-disk sizes",
    )
    cache_stats.add_argument(
        "--store", metavar="DIR", required=True, help="result store directory"
    )
    cache_gc = cache_sub.add_parser("gc", help="delete entries older than --keep-days")
    cache_gc.add_argument(
        "--store", metavar="DIR", required=True, help="result store directory"
    )
    cache_gc.add_argument(
        "--keep-days",
        type=float,
        required=True,
        metavar="N",
        help="keep entries created within the last N days",
    )
    for cache_parser in (cache_stats, cache_gc):
        cache_parser.add_argument(
            "--json",
            action="store_true",
            help="emit the result as one JSON object (for scripting)",
        )

    subparsers.add_parser(
        "list",
        help="print registered presets, arbiters, engines and topologies "
        "(read from the factories' registries)",
    )

    return parser


def _preset_config(args: argparse.Namespace):
    """Resolve the platform from the common --preset/--engine/--topology flags."""
    config = get_preset(args.preset, engine=args.engine)
    if getattr(args, "topology", None):
        config = config.with_topology_name(args.topology)
    return config


def _run_per_resource_derive(args: argparse.Namespace, config) -> int:
    """The ``derive-ubd --per-resource`` path: the measured-bound pipeline."""
    from .methodology.ubd import MeasuredBoundPipeline
    from .report.tables import render_series, render_table

    pipeline = MeasuredBoundPipeline(
        config,
        instruction_type=args.instruction_type,
        k_max=args.k_max,
        iterations=args.iterations,
        stress_iterations=args.stress_iterations,
    )
    report = pipeline.run()
    print(
        f"Platform: {args.preset} (topology {report.topology}; analytical "
        f"end-to-end bound {report.end_to_end_analytical} cycles)"
    )
    print()
    print("Measured per-resource bounds (observed <= ubdm <= analytical):")
    rows = []
    for term in report.terms.values():
        rows.append(
            [
                term.resource,
                term.observed_worst_case,
                term.ubdm,
                term.analytical,
                term.method,
                term.sandwich.status,
            ]
        )
    print(
        render_table(["resource", "observed", "ubdm", "analytical", "method", "check"], rows)
    )
    refusal = report.end_to_end_refusal
    if refusal is not None:
        raise MethodologyError(refusal)
    print()
    sawtooth = report.bus_methodology
    if sawtooth is None:
        bus_note = f"no bus saw-tooth: {admissibility(config)[SAWTOOTH]}"
    else:
        bus_note = f"the bus saw-tooth alone gives {sawtooth.ubdm}"
    print(
        f"End-to-end measured bound: {report.end_to_end_ubdm} cycles "
        f"(analytical envelope {report.end_to_end_analytical}; {bus_note})"
    )
    if report.memory_split is not None:
        print(f"Memory term split: {report.memory_split.summary()}")
    print()
    if report.write_burst is not None:
        status = "PASS" if report.write_burst.passed else "FAIL"
        print(f"[{status}] {report.write_burst.name}: {report.write_burst.detail}")
    if sawtooth is not None:
        print(sawtooth.confidence.summary())
        if args.show_sweep:
            print()
            print(render_series(sawtooth.ks, sawtooth.dbus_values, "k", "dbus"))
    return 0 if report.passed else 1


def _run_derive_ubd(args: argparse.Namespace) -> int:
    if args.k_max < 1:
        raise ConfigurationError(f"--k-max must be >= 1, got {args.k_max}")
    config = _preset_config(args)
    if args.per_resource:
        return _run_per_resource_derive(args, config)
    from .methodology.ubd import UbdEstimator

    estimator = UbdEstimator(
        config,
        instruction_type=args.instruction_type,
        k_max=args.k_max,
        iterations=args.iterations,
    )
    result = estimator.run()
    for check in result.confidence.failed_checks():
        if check.name == "observed_floor":
            # The one check that disproves the value: the sweep saw a longer wait.
            raise MethodologyError(
                f"{config.name}: observed_floor fails, so no bound is reported: {check.detail}"
            )
    print(f"Platform: {args.preset} (analytical ubd = {config.ubd} cycles)")
    if config.topology.has_memory_queues:
        refusal = admissibility(config)[PER_RESOURCE]
        if refusal is None:
            terms = " + ".join(f"{resource}:{term}" for resource, term in config.ubd_terms.items())
            print(
                f"Topology {config.topology.name}: per-resource bounds {terms} "
                f"= end-to-end {config.end_to_end_ubd} cycles per memory request"
            )
        else:
            print(f"Topology {config.topology.name}: {refusal}")
    print(f"delta_nop = {result.delta_nop.cycles_per_nop:.3f} cycles/nop "
          f"(rounded {result.delta_nop.rounded})")
    print(result.period.summary())
    print(f"ubdm = {result.ubdm} cycles")
    print()
    print(result.confidence.summary())
    if args.show_sweep:
        from .report.tables import render_series

        print()
        print(render_series(result.ks, result.dbus_values, "k", "dbus"))
    return 0 if result.confidence.passed else 1


def _run_synchrony(args: argparse.Namespace) -> int:
    from .analysis.confidence import assess_write_burst
    from .analysis.contention import contention_histogram, latency_decomposition
    from .kernels.rsk import build_rsk
    from .methodology.experiment import ExperimentRunner
    from .methodology.naive import NaiveUbdEstimator
    from .report.histogram import render_histogram

    config = _preset_config(args)
    runner = ExperimentRunner(config)
    scua = build_rsk(config, 0, iterations=args.iterations)
    contended = runner.run_against_rsk(scua, trace=True)
    histogram = contention_histogram(contended.trace, 0)
    naive = NaiveUbdEstimator(config).estimate_with_rsk_as_scua(iterations=args.iterations)
    print(
        render_histogram(
            histogram.counts,
            title=f"{args.preset}: contention delay per rsk request "
            f"(bus utilisation {contended.bus_utilisation:.0%})",
            label="gamma",
        )
    )
    print()
    print(f"Observed plateau (naive ubdm): {histogram.mode} cycles "
          f"(det/nr = {naive.ubdm:.1f}); analytical ubd = {config.ubd} cycles")
    burst = assess_write_burst(config, contended.result.pmc)
    print(f"[{'PASS' if burst.passed else 'FAIL'}] {burst.name}: {burst.detail}")
    if args.decompose:
        decomposition = latency_decomposition(contended.trace, 0)
        print()
        print(
            f"Per-resource latency decomposition "
            f"({decomposition.total_requests} requests, "
            f"{decomposition.memory_requests} reached the memory stage):"
        )
        for stage, counts in decomposition.histograms.items():
            if not counts:
                continue
            print()
            print(
                render_histogram(
                    counts,
                    title=f"{stage}: wait/service cycles per request "
                    f"(max {decomposition.max_observed(stage)}, "
                    f"mean {decomposition.mean_observed(stage):.1f})",
                    label="cycles",
                )
            )
    return 0


def _run_campaign(args: argparse.Namespace) -> int:
    from .campaign.artifacts import CampaignStreamWriter
    from .campaign.runner import ParallelRunner
    from .campaign.spec import CampaignSpec
    from .campaign.store import ResultStore
    from .report.campaign import render_campaign_summary

    spec = CampaignSpec(
        presets=(args.preset,),
        arbiters=tuple(args.arbiter) if args.arbiter else ("round_robin",),
        topologies=tuple(args.topology) if args.topology else (),
        contender_counts=tuple(args.contenders) if args.contenders else (),
        seeds=(args.seed,),
        num_workloads=args.workloads,
        iterations=args.iterations,
        rsk_iterations=args.iterations * 5,
        engine=args.engine,
    )
    descriptors = spec.expand()
    runner = ParallelRunner(jobs=args.jobs, cache=ResultStore(args.store) if args.store else None)
    if args.out:
        stream = CampaignStreamWriter(args.out)
        outcome = runner.run(descriptors, stream=stream)
        summary = outcome.summary()
        artifacts = stream.finalize(summary)
        print(render_campaign_summary(summary))
        print()
        print(f"Wrote {artifacts.results_path}")
        print(f"Wrote {artifacts.summary_path}")
        print(f"Wrote {artifacts.manifest_path}")
    else:
        outcome = runner.run(descriptors)
        summary = outcome.summary()
        print(render_campaign_summary(summary))
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """The ``cache`` subcommand: durable-store maintenance.

    Exit codes: 0 on success; 2 when the store directory is missing or
    invalid (raised as :class:`ConfigurationError` and mapped by
    :func:`main`).
    """
    from .campaign.store import ResultStore

    if not os.path.isdir(args.store):
        raise ConfigurationError(
            f"{args.store} is not a result store (no such directory); "
            "'repro-bounds campaign --store DIR' creates one"
        )
    store = ResultStore(args.store)
    if args.cache_command == "stats":
        stats = store.stats()
        if args.json:
            import json

            print(json.dumps(stats, sort_keys=True, indent=2))
            return 0
        print(f"Store: {stats['directory']}")
        print(f"Entries: {stats['entries']} ({stats['artifact_bytes']} artifact bytes)")
        return 0
    if args.cache_command == "gc":
        outcome = store.gc(keep_days=args.keep_days)
        if args.json:
            import json

            print(json.dumps(outcome.as_dict(), sort_keys=True, indent=2))
            return 0
        removed = outcome.removed
        print(
            f"Removed {removed} entr{'y' if removed == 1 else 'ies'} older "
            f"than {args.keep_days:g} day(s); {len(store)} remain"
        )
        return 0
    raise ConfigurationError(
        f"unknown cache command {args.cache_command!r}"
    )  # pragma: no cover


def _run_audit(args: argparse.Namespace) -> int:
    """The ``audit`` subcommand: dimensions -> verdict -> artifacts."""
    from .audit import AuditOptions, run_audit
    from .report.tables import render_table

    options = AuditOptions(
        k_max=args.k_max,
        iterations=args.iterations,
        stress_iterations=args.stress_iterations,
        synchrony_iterations=args.synchrony_iterations,
        equivalence_iterations=args.equivalence_iterations,
    )
    artifacts = run_audit(args.target, args.out, topology=args.topology, options=options)
    report = artifacts.report
    target = " ".join(f"{key}={value}" for key, value in sorted(report.target.items()))
    print(f"Audit target: {target}")
    print()
    print(
        render_table(
            ["dimension", "verdict", "findings"],
            [
                [dimension.name, dimension.verdict.upper(), len(dimension.findings)]
                for dimension in report.dimensions
            ],
        )
    )
    flagged = [
        (dimension, finding)
        for dimension in report.dimensions
        for finding in dimension.findings
        if finding.verdict != "pass"
    ]
    if flagged:
        print()
        for dimension, finding in flagged:
            print(
                f"[{finding.verdict.upper()}] {dimension.name}/{finding.check}: "
                f"{finding.detail}"
            )
    print()
    print(f"Wrote {artifacts.flags_path}")
    print(f"Wrote {artifacts.html_path}")
    print(f"Verdict: {report.verdict} (exit code {report.exit_code})")
    return report.exit_code


def _run_list(args: argparse.Namespace) -> int:
    """Print every registered preset, arbiter, engine and topology.

    Reads the registries the factories themselves use
    (:mod:`repro.sim.arbiter`, :mod:`repro.sim.scheduler`,
    :mod:`repro.sim.topology`), so the listing cannot drift from what
    ``System`` actually builds.
    """
    del args
    from .report.tables import render_table
    from .sim.arbiter import ARBITER_REGISTRY
    from .sim.scheduler import ENGINE_REGISTRY
    from .sim.topology import TOPOLOGY_REGISTRY

    print("Presets (--preset):")
    rows = []
    for name in sorted(PRESETS):
        config = get_preset(name)
        rows.append(
            [
                name,
                config.num_cores,
                config.bus.arbitration,
                config.topology.name,
                config.engine,
                config.ubd,
            ]
        )
    print(render_table(["name", "cores", "bus arbiter", "topology", "engine", "ubd"], rows))

    print()
    print("Arbitration policies (--arbiter, TopologyConfig.mem_arbitration):")
    print(
        render_table(
            ["name", "description"],
            [[entry.name, entry.description] for entry in ARBITER_REGISTRY.values()],
        )
    )

    print()
    print("Simulation engines (--engine):")
    print(
        render_table(
            ["name", "description"],
            [[entry.name, entry.description] for entry in ENGINE_REGISTRY.values()],
        )
    )

    print()
    print("Topologies (--topology):")
    print(
        render_table(
            ["name", "description"],
            [[entry.name, entry.description] for entry in TOPOLOGY_REGISTRY.values()],
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-bounds`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "derive-ubd":
            return _run_derive_ubd(args)
        if args.command == "synchrony":
            return _run_synchrony(args)
        if args.command == "campaign":
            return _run_campaign(args)
        if args.command == "audit":
            return _run_audit(args)
        if args.command == "cache":
            return _run_cache(args)
        if args.command == "list":
            return _run_list(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A downstream reader closed early (`repro-bounds list | head`);
        # that is not an error.  Point stdout at devnull so the interpreter's
        # exit-time flush does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
