"""Benchmark workloads and the measurement loop.

A :class:`BenchWorkload` describes one contended rsk run — the hot path
every campaign, methodology sweep and figure regeneration spends its time
in — on one platform preset and arbiter.  :func:`run_benchmarks` executes
each workload once per registered engine (``stepped``, ``event``,
``codegen`` and ``replay``), checks that every engine simulated the exact
same number of cycles as the stepped oracle (a cheap standing equivalence
guard on top of the property tests) and reports wall-clock, cycles/sec
and each fast engine's speedup over the oracle.  The replay engine gets
one untimed priming run per workload (the capture run), so its numbers
quote the trace-warm steady state a sweep actually spends its time in.

``python -m repro.bench run --profile`` additionally captures a cProfile
hotspot table per scenario (:func:`profile_workload`), written next to
the BENCH json under ``profile/``.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..config import ENGINES, get_preset

if TYPE_CHECKING:  # pragma: no cover - avoids a load-time module cycle
    from .campaign_bench import CampaignBench
from ..errors import SimulationError
from ..kernels.rsk import build_stress_contender_set, rsk_for_resource
from ..sim.system import System

#: Version stamp embedded in BENCH_*.json; bump when the payload layout or
#: the meaning of a metric changes, so the compare gate never misreads a
#: stale baseline.  v2: entries gain a per-engine ``speedups`` mapping and
#: the summary a per-engine ``engines`` section (the codegen engine).
#: v3: payloads gain a ``campaigns`` section (campaign throughput through
#: the result store: cold/warm runs-per-sec, ``warm_speedup``, parallel
#: efficiency) and the summary a ``campaign_geomean_warm_speedup``.
#: v4: payloads gain a ``services`` section (campaigns through the serve
#: daemon: cold submit+wait vs concurrent warm clients) and the summary a
#: ``service_geomean_multi_client_speedup``.
#: v5: entries gain a ``replay`` speedup (the trace-warm replay engine),
#: campaign entries may carry a ``replay`` phase (codegen-engine campaign
#: vs trace-warm replay-engine campaign, ``campaign_replay_speedup``) and
#: the summary a ``campaign_replay_speedup`` geomean.
#: v6: the event-engine mirrors are gone — the per-workload ``speedup``
#: (now only ``speedups["event"]``) and the summary's top-level
#: ``geomean/min/max/default_speedup`` (now only under ``engines``).
#: v7: the ``services`` section and the summary's
#: ``service_geomean_multi_client_speedup`` are gone with the serve daemon.
#: v8: campaign entries gain ``artifact_reads`` (the same artifacts read
#: with ``json.loads``), and ``warm_speedup`` is warm over that leg's
#: runs-per-sec instead of over cold runs-per-sec.
BENCH_SCHEMA_VERSION = 8


@dataclass(frozen=True)
class BenchWorkload:
    """One timed workload: a contended rsk run on a preset platform.

    Attributes:
        name: stable identifier used to match workloads across payloads.
        preset: platform preset (``ref``, ``var``, ``small``).
        arbiter: bus arbitration policy.
        topology: shared-resource topology name overriding the preset's own
            (``bus_only`` or ``bus_bank_queues``); ``None`` keeps the
            preset's topology untouched, including its memory-side
            arbitration parameters.
        kind: rsk flavour (``"load"`` or ``"store"``).
        stress: the rsk registry entry the kernels come from (``"memory"``,
            ``"bus_response"``) — the hot path of ``derive-ubd
            --per-resource``, whose stress runs drive exactly these kernels;
            ``None`` means ``"bus"``, the plain rsk.
        preload_l2: warm the L2 first (True gives the paper's L2-hit hot
            path; False sends every miss to the DRAM model).
        iterations: observed-rsk loop iterations in full mode.
        quick_iterations: reduced size for ``--quick`` (CI) runs.
    """

    name: str
    preset: str
    arbiter: str
    topology: Optional[str] = None
    kind: str = "load"
    stress: Optional[str] = None
    preload_l2: bool = True
    iterations: int = 2500
    quick_iterations: int = 700


def _grid() -> Tuple[BenchWorkload, ...]:
    workloads: List[BenchWorkload] = []
    for preset in ("ref", "var"):
        for arbiter in ("round_robin", "fifo", "fixed_priority", "tdma"):
            workloads.append(
                BenchWorkload(
                    name=f"{preset}/{arbiter}/load",
                    preset=preset,
                    arbiter=arbiter,
                )
            )
    workloads.append(
        BenchWorkload(
            name="ref/round_robin/load-dram",
            preset="ref",
            arbiter="round_robin",
            preload_l2=False,
            iterations=1500,
            quick_iterations=450,
        )
    )
    workloads.append(
        BenchWorkload(
            name="ref/round_robin/store",
            preset="ref",
            arbiter="round_robin",
            kind="store",
        )
    )
    workloads.append(
        # Bank contention: every miss crosses the bus *and* arbitrates for
        # its DRAM bank queue (the multi_resource topology's hot path).
        BenchWorkload(
            name="ref/round_robin/load-bank-queues",
            preset="ref",
            arbiter="round_robin",
            topology="bus_bank_queues",
            preload_l2=False,
            iterations=1500,
            quick_iterations=450,
        )
    )
    workloads.append(
        # Split-transaction bus: the three-resource chain (request channel,
        # bank queues, response channel) — the generic event loop drives one
        # more horizon than any other scenario, so this guards the perf of
        # topologies the engine was never specialised for.
        BenchWorkload(
            name="ref/round_robin/load-split-bus",
            preset="ref",
            arbiter="round_robin",
            topology="split_bus",
            preload_l2=False,
            iterations=1500,
            quick_iterations=450,
        )
    )
    workloads.append(
        # The derive-ubd --per-resource hot path: the response-channel
        # stressor from the rsk registry (row-hit jitter, per-core period
        # skew) on the full split_bus preset — the workload each measured
        # bus_response term is derived from.
        BenchWorkload(
            name="split_bus/round_robin/derive-ubd-stress",
            preset="split_bus",
            arbiter="round_robin",
            stress="bus_response",
            preload_l2=False,
            iterations=1500,
            quick_iterations=450,
        )
    )
    return tuple(workloads)


#: The representative workload grid (per arbiter x preset, plus the DRAM
#: and store-buffer variants of the paper's default platform).
WORKLOADS: Tuple[BenchWorkload, ...] = _grid()

#: The workload the headline speedup is quoted on: the paper's default
#: platform (``ref``) with its round-robin bus running the load rsk.
DEFAULT_WORKLOAD = "ref/round_robin/load"


def _effective_topology(workload: BenchWorkload) -> str:
    """The topology a workload actually runs on (preset's own unless overridden)."""
    if workload.topology is not None:
        return workload.topology
    return get_preset(workload.preset).topology.name


def _build_system(
    workload: BenchWorkload, quick: bool, engine: str = "event"
) -> Tuple[System, int]:
    config = get_preset(workload.preset, engine=engine)
    config = config.with_overrides(bus=replace(config.bus, arbitration=workload.arbiter))
    if workload.topology is not None:
        config = config.with_topology_name(workload.topology)
    iterations = workload.quick_iterations if quick else workload.iterations
    stress = workload.stress or "bus"
    scua = rsk_for_resource(stress).build(config, 0, kind=workload.kind, iterations=iterations)
    contenders = build_stress_contender_set(config, stress, 0, kind=workload.kind)
    programs: List[Optional[object]] = [None] * config.num_cores
    programs[0] = scua
    for core, program in contenders.items():
        programs[core] = program
    system = System(
        config,
        programs,
        preload_l2=workload.preload_l2,
        preload_il1=True,
    )
    return system, iterations


def _time_engine(
    workload: BenchWorkload, engine: str, quick: bool, repeats: int
) -> Dict[str, float]:
    best_seconds = None
    cycles = None
    captures_after_priming = 0
    if engine == "replay":
        # One untimed priming run captures the core traces (and proves any
        # trace-unsafe program unsafe), so the timed repeats measure the
        # trace-warm steady state — the number a sweep's 2nd..Nth runs see.
        from ..sim.trace import clear_trace_cache, global_trace_cache

        clear_trace_cache()
        system, _ = _build_system(workload, quick, "replay")
        system.run(observed_cores=[0])
        captures_after_priming = global_trace_cache().counters["captures"]
    for _ in range(max(1, repeats)):
        system, _ = _build_system(workload, quick, engine)
        started = time.perf_counter()
        result = system.run(observed_cores=[0])
        elapsed = time.perf_counter() - started
        if cycles is None:
            cycles = result.cycles
        elif cycles != result.cycles:
            raise SimulationError(
                f"{workload.name}: {engine} engine is nondeterministic "
                f"({cycles} vs {result.cycles} cycles)"
            )
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    if engine == "replay":
        # The memoisation guarantee: once primed, the timed runs must not
        # have re-simulated any core's cache hierarchy (trace-unsafe cores
        # fall back without capturing, so this holds for every workload).
        from ..sim.trace import global_trace_cache

        captures = global_trace_cache().counters["captures"]
        if captures != captures_after_priming:
            raise SimulationError(
                f"{workload.name}: replay engine re-captured core traces "
                f"after the priming run ({captures - captures_after_priming} "
                "extra captures); the trace cache failed to memoise the "
                "core side"
            )
    return {
        "cycles": cycles,
        "seconds": best_seconds,
        "cycles_per_sec": cycles / best_seconds if best_seconds else 0.0,
    }


def run_benchmarks(
    workloads: Sequence[BenchWorkload] = WORKLOADS,
    quick: bool = False,
    repeats: int = 2,
    rev: str = "local",
    campaigns: Optional[Sequence["CampaignBench"]] = None,
) -> Dict[str, object]:
    """Time ``workloads`` on every registered engine and return the payload.

    Each engine is run ``repeats`` times per workload and the best wall
    time is kept (first-run noise on shared CI machines would otherwise
    dominate).  Every engine must simulate the same cycle count as the
    stepped oracle for every workload — a mismatch means a fast engine
    broke cycle-exactness and is reported as an error rather than a slow
    result.

    ``campaigns`` selects the campaign-throughput family
    (:mod:`repro.bench.campaign_bench`): ``None`` runs its default grid and
    ``()`` skips the family entirely.
    """
    from .campaign_bench import CAMPAIGN_WORKLOADS, run_campaign_benchmarks

    if campaigns is None:
        campaigns = CAMPAIGN_WORKLOADS
    entries: List[Dict[str, object]] = []
    for workload in workloads:
        engines: Dict[str, Dict[str, float]] = {}
        for engine in ENGINES:
            engines[engine] = _time_engine(workload, engine, quick, repeats)
        oracle = engines["stepped"]
        for engine, timing in engines.items():
            if timing["cycles"] != oracle["cycles"]:
                raise SimulationError(
                    f"{workload.name}: engines disagree on the cycle count "
                    f"(stepped {oracle['cycles']}, {engine} "
                    f"{timing['cycles']}); the {engine} engine is no longer "
                    "cycle-exact"
                )
        speedups = {
            engine: (
                timing["cycles_per_sec"] / oracle["cycles_per_sec"]
                if oracle["cycles_per_sec"]
                else 0.0
            )
            for engine, timing in engines.items()
            if engine != "stepped"
        }
        entries.append(
            {
                "name": workload.name,
                "preset": workload.preset,
                "arbiter": workload.arbiter,
                "topology": _effective_topology(workload),
                "kind": workload.kind,
                "stress": workload.stress,
                "preload_l2": workload.preload_l2,
                "iterations": workload.quick_iterations if quick else workload.iterations,
                "cycles": engines["event"]["cycles"],
                "engines": engines,
                "speedups": speedups,
            }
        )
    campaign_entries = run_campaign_benchmarks(campaigns, quick=quick, repeats=repeats)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "rev": rev,
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "workloads": entries,
        "campaigns": campaign_entries,
        "summary": _summarize(entries, campaign_entries),
    }


def _geomean(values: Sequence[float]) -> float:
    if not values:
        return 1.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def _summarize(
    entries: Sequence[Dict[str, object]],
    campaign_entries: Sequence[Dict[str, object]] = (),
) -> Dict[str, object]:
    default = next((entry for entry in entries if entry["name"] == DEFAULT_WORKLOAD), None)
    per_engine: Dict[str, Dict[str, object]] = {}
    engine_names = entries[0]["speedups"].keys() if entries else ()
    for engine in engine_names:
        values = [entry["speedups"][engine] for entry in entries if entry["speedups"][engine] > 0]
        per_engine[engine] = {
            "geomean_speedup": _geomean(values),
            "min_speedup": min(values) if values else 0.0,
            "max_speedup": max(values) if values else 0.0,
            "default_speedup": default["speedups"][engine] if default else None,
        }
    warm_speedups = [
        entry["warm_speedup"] for entry in campaign_entries if entry["warm_speedup"] > 0
    ]
    replay_speedups = [
        entry["campaign_replay_speedup"]
        for entry in campaign_entries
        if entry.get("campaign_replay_speedup", 0) > 0
    ]
    return {
        "default_workload": DEFAULT_WORKLOAD,
        "engines": per_engine,
        "campaign_geomean_warm_speedup": (
            _geomean(warm_speedups) if warm_speedups else None
        ),
        "campaign_replay_speedup": (
            _geomean(replay_speedups) if replay_speedups else None
        ),
    }


def render_report(payload: Dict[str, object]) -> str:
    """Render a BENCH payload as an aligned plain-text table."""
    lines = [
        f"rev {payload['rev']}  (quick={payload['quick']}, repeats={payload['repeats']}, "
        f"python {payload['python']})",
        f"{'workload':28s} {'cycles':>10s} {'stepped kc/s':>13s} "
        f"{'event kc/s':>11s} {'codegen kc/s':>13s} {'replay kc/s':>12s} "
        f"{'event x':>8s} {'codegen x':>10s} {'replay x':>9s}",
    ]
    for entry in payload["workloads"]:
        stepped = entry["engines"]["stepped"]["cycles_per_sec"] / 1e3
        event = entry["engines"]["event"]["cycles_per_sec"] / 1e3
        codegen = entry["engines"]["codegen"]["cycles_per_sec"] / 1e3
        replay = entry["engines"]["replay"]["cycles_per_sec"] / 1e3
        lines.append(
            f"{entry['name']:28s} {entry['cycles']:>10d} {stepped:>13.0f} "
            f"{event:>11.0f} {codegen:>13.0f} {replay:>12.0f} "
            f"{entry['speedups']['event']:>7.2f}x "
            f"{entry['speedups']['codegen']:>9.2f}x "
            f"{entry['speedups']['replay']:>8.2f}x"
        )
    summary = payload["summary"]
    for engine, stats in summary["engines"].items():
        line = (
            f"{engine} speedup: geomean {stats['geomean_speedup']:.2f}x, "
            f"min {stats['min_speedup']:.2f}x, max {stats['max_speedup']:.2f}x"
        )
        if stats["default_speedup"] is not None:
            line += (
                f"; default ({summary['default_workload']}) "
                f"{stats['default_speedup']:.2f}x"
            )
        lines.append(line)
    campaigns = payload.get("campaigns") or []
    if campaigns:
        lines.append("")
        lines.append(
            f"{'campaign':24s} {'runs':>5s} {'cold r/s':>9s} {'warm r/s':>9s} "
            f"{'read r/s':>9s} {'warm x':>7s}  parallel"
        )
        for entry in campaigns:
            parallel = ", ".join(
                f"jobs={jobs}: {stats['runs_per_sec']:.0f} r/s "
                f"(eff {stats['efficiency']:.2f})"
                for jobs, stats in sorted(entry["parallel"].items())
            )
            lines.append(
                f"{entry['name']:24s} {entry['runs']:>5d} "
                f"{entry['cold']['runs_per_sec']:>9.0f} "
                f"{entry['warm']['runs_per_sec']:>9.0f} "
                f"{entry['artifact_reads']['runs_per_sec']:>9.0f} "
                f"{entry['warm_speedup']:>6.3f}x  {parallel}"
            )
        geomean = summary.get("campaign_geomean_warm_speedup")
        if geomean is not None:
            lines.append(f"campaign warm speedup (warm / bare reads): geomean {geomean:.3f}x")
        for entry in campaigns:
            replay = entry.get("replay")
            if replay:
                lines.append(
                    f"{entry['name']}: codegen-engine campaign "
                    f"{replay['codegen']['runs_per_sec']:.0f} r/s, trace-warm "
                    f"replay-engine campaign {replay['warm']['runs_per_sec']:.0f} r/s "
                    f"-> {entry['campaign_replay_speedup']:.2f}x"
                )
        geomean = summary.get("campaign_replay_speedup")
        if geomean is not None:
            lines.append(f"campaign replay speedup: geomean {geomean:.2f}x")
    return "\n".join(lines)


def profile_workload(
    workload: BenchWorkload,
    quick: bool = False,
    engines: Sequence[str] = ("event", "codegen", "replay"),
    top: int = 30,
) -> str:
    """cProfile one run per fast engine and return the hotspot tables.

    The ``--profile`` flag of ``python -m repro.bench run`` writes this
    text to ``profile/<scenario>.txt`` next to the BENCH json — the map of
    where each engine's wall time actually goes, sorted by cumulative
    time.  The replay engine is primed first (capture run outside the
    profile), so its table shows the trace-warm steady state being gated.
    """
    import cProfile
    import io
    import pstats

    from ..sim.trace import clear_trace_cache

    sections: List[str] = [f"profile: {workload.name} (quick={quick})"]
    for engine in engines:
        if engine == "replay":
            clear_trace_cache()
            system, _ = _build_system(workload, quick, "replay")
            system.run(observed_cores=[0])
        system, _ = _build_system(workload, quick, engine)
        profiler = cProfile.Profile()
        profiler.enable()
        system.run(observed_cores=[0])
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        sections.append(f"--- engine: {engine} ---\n{buffer.getvalue().rstrip()}")
    return "\n\n".join(sections) + "\n"
