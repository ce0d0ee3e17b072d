"""Campaign-throughput benchmarks: runs/sec through the result store.

While :mod:`repro.bench.harness` times single simulations, this family
times whole *campaigns* through the durable
:class:`~repro.campaign.store.ResultStore`, capturing the three numbers
the campaign engine is optimised for:

* **cold** runs/sec — miss-frontier execution through shard dispatch;
* **warm** runs/sec — a re-run of an unchanged campaign, which must
  simulate nothing and resolve the whole grid from the store's artifacts
  (one read per unique run, zero writes);
* **parallel efficiency** — cold speedup per worker versus ``--jobs``.

The gated metric is ``warm_speedup``: warm runs per second over the runs
per second of bare artifact reads, that is of reading and parsing the same
artifacts with :func:`json.loads` in the same process.  Like the engine
``speedup`` metrics it is a same-process ratio, so a committed baseline
stays meaningful on any CI host; and neither leg simulates, so a faster
simulator does not move it (over cold runs per second it did).  Raw
runs/sec and the store's operation counters are recorded for trend plots.

Each measurement also re-asserts the engine's core guarantees — a warm
re-run performs zero simulations, reads each unique run's artifact once
and writes none, and parallel records equal serial records — so a broken
guarantee surfaces as a bench *error*, never as a silently fast number.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass, replace as dataclass_replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..campaign.runner import ParallelRunner
from ..campaign.spec import CampaignSpec
from ..campaign.store import ResultStore
from ..errors import SimulationError
from ..sim.trace import clear_trace_cache, global_trace_cache


@dataclass(frozen=True)
class CampaignBench:
    """One timed campaign: a spec grid pushed through the result store.

    Attributes:
        name: stable identifier used to match entries across payloads.
        preset: platform preset the campaign sweeps.
        arbiters: bus arbitration policies of the grid.
        seeds: base seeds (each draws an independent workload set).
        quick_seeds: reduced seed axis for ``--quick`` (CI) runs.
        workloads / quick_workloads: random workloads per grid point.
        iterations / quick_iterations: observed-task loop iterations.
        rsk_iterations / quick_rsk_iterations: observed-rsk iterations.
        jobs_axis: worker counts measured for the parallel-efficiency
            series (cold, fresh store per point).
        replay_compare: also measure the replay-engine phase — a dedicated
            trace-safe arbiter sweep (see :meth:`replay_spec`) run through
            the ``codegen`` engine versus the ``replay`` engine with a warm
            trace cache (fresh result store each time, so every run still
            simulates the *interconnect*).  Produces
            ``campaign_replay_speedup``, the gated metric of the trace
            fast path.
        replay_rsk_iterations / quick_replay_rsk_iterations: observed-rsk
            iterations of the replay phase's sweep.  Deliberately much
            heavier than ``rsk_iterations``: the phase gates a *simulation*
            speedup, so simulated cycles must dominate the campaign's
            fixed per-run overhead (workload build, analysis, store I/O).
    """

    name: str
    preset: str
    arbiters: Tuple[str, ...] = ("round_robin",)
    seeds: Tuple[int, ...] = (2015,)
    quick_seeds: Tuple[int, ...] = (2015,)
    workloads: int = 4
    quick_workloads: int = 2
    iterations: int = 10
    quick_iterations: int = 5
    rsk_iterations: int = 20
    quick_rsk_iterations: int = 10
    jobs_axis: Tuple[int, ...] = (2,)
    replay_compare: bool = False
    replay_rsk_iterations: int = 600
    quick_replay_rsk_iterations: int = 300

    def spec(self, quick: bool) -> CampaignSpec:
        """The campaign grid at full or quick size."""
        return CampaignSpec(
            presets=(self.preset,),
            arbiters=self.arbiters,
            seeds=self.quick_seeds if quick else self.seeds,
            num_workloads=self.quick_workloads if quick else self.workloads,
            iterations=self.quick_iterations if quick else self.iterations,
            rsk_iterations=self.quick_rsk_iterations if quick else self.rsk_iterations,
        )

    def replay_spec(self, quick: bool) -> CampaignSpec:
        """The replay phase's grid: the reference rsk swept over every
        arbiter of the bench.

        Synthetic workloads contain stores, which are never trace-safe, so
        they fall back to execution-driven cores and would measure the
        fallback, not the fast path.  The load-kind reference rsk is the
        paper's own arbiter-sweep shape — the exact scenario the trace
        cache accelerates: one core-side capture per kernel, replayed
        across every arbiter of the sweep.
        """
        return CampaignSpec(
            presets=(self.preset,),
            arbiters=self.arbiters,
            seeds=(self.quick_seeds if quick else self.seeds)[:1],
            num_workloads=0,
            include_rsk_reference=True,
            rsk_iterations=(
                self.quick_replay_rsk_iterations if quick else self.replay_rsk_iterations
            ),
        )


def _grid() -> Tuple[CampaignBench, ...]:
    return (
        # Seed sweep on the 2-core platform: many runs per config object,
        # which is exactly the shape shard-level config dedup amortises.
        CampaignBench(
            name="small/seed-sweep",
            preset="small",
            seeds=(2015, 2016, 2017, 2018),
            quick_seeds=(2015, 2016),
        ),
        # Arbiter sweep on the paper's default 4-core platform: heavier
        # individual runs, four distinct configs in the frontier.  This is
        # the replay engine's home turf — the core side is identical
        # across the arbiter axis, so it also carries the replay phase.
        CampaignBench(
            name="ref/arbiter-sweep",
            preset="ref",
            arbiters=("round_robin", "fifo", "fixed_priority", "tdma"),
            workloads=4,
            quick_workloads=2,
            iterations=8,
            quick_iterations=4,
            rsk_iterations=16,
            quick_rsk_iterations=8,
            replay_compare=True,
        ),
    )


#: The campaign-throughput workload grid.
CAMPAIGN_WORKLOADS: Tuple[CampaignBench, ...] = _grid()


def _timed_run(
    runner: ParallelRunner, descriptors: Sequence[object]
) -> Tuple[float, object]:
    started = time.perf_counter()
    outcome = runner.run(descriptors)  # type: ignore[arg-type]
    return time.perf_counter() - started, outcome


def time_campaign(
    bench: CampaignBench, quick: bool, repeats: int
) -> Dict[str, object]:
    """Measure one campaign bench: cold, warm and parallel phases.

    Every phase keeps the best wall time of ``repeats`` attempts (cold and
    parallel attempts each get a fresh store; warm attempts share the store
    the last cold attempt populated).
    """
    descriptors = bench.spec(quick).expand()
    runs = len(descriptors)
    entry: Dict[str, object] = {
        "name": bench.name,
        "preset": bench.preset,
        "runs": runs,
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-campaign-") as tmp:
        base = Path(tmp)
        cold_seconds: Optional[float] = None
        reference: Optional[Tuple[Dict[str, object], ...]] = None
        warm_dir: Optional[Path] = None
        for attempt in range(max(1, repeats)):
            directory = base / f"cold-{attempt}"
            store = ResultStore(directory)
            elapsed, outcome = _timed_run(ParallelRunner(jobs=1, cache=store), descriptors)
            if outcome.stats["simulated"] != outcome.stats["unique_runs"]:
                raise SimulationError(
                    f"{bench.name}: cold campaign hit a fresh store "
                    f"({outcome.stats['simulated']} simulated of "
                    f"{outcome.stats['unique_runs']} unique runs)"
                )
            if reference is None:
                reference = outcome.records
                entry["unique_runs"] = outcome.stats["unique_runs"]
            if cold_seconds is None or elapsed < cold_seconds:
                cold_seconds = elapsed
            warm_dir = directory
        assert cold_seconds is not None and warm_dir is not None and reference is not None

        warm_seconds: Optional[float] = None
        warm_counters: Dict[str, int] = {}
        store = ResultStore(warm_dir)
        for _ in range(max(1, repeats)):
            store.counters.reset()
            elapsed, outcome = _timed_run(ParallelRunner(jobs=1, cache=store), descriptors)
            if outcome.stats["simulated"] != 0:
                raise SimulationError(
                    f"{bench.name}: warm re-run simulated "
                    f"{outcome.stats['simulated']} run(s); the store "
                    "failed to dedupe an unchanged campaign"
                )
            counters = store.counters
            if (counters.artifact_reads, counters.artifact_writes) != (entry["unique_runs"], 0):
                raise SimulationError(
                    f"{bench.name}: warm re-run read {counters.artifact_reads} "
                    f"and wrote {counters.artifact_writes} artifact file(s); "
                    f"expected one read per unique run ({entry['unique_runs']}) "
                    "and no write"
                )
            if outcome.records != reference:
                raise SimulationError(
                    f"{bench.name}: warm records differ from cold records"
                )
            if warm_seconds is None or elapsed < warm_seconds:
                warm_seconds = elapsed
                warm_counters = counters.as_dict()
        assert warm_seconds is not None
        read_seconds = _time_artifact_reads(bench, warm_dir, entry["unique_runs"], repeats)

        parallel: Dict[str, Dict[str, float]] = {}
        for jobs in bench.jobs_axis:
            best: Optional[float] = None
            for attempt in range(max(1, repeats)):
                directory = base / f"par{jobs}-{attempt}"
                elapsed, outcome = _timed_run(
                    ParallelRunner(jobs=jobs, cache=ResultStore(directory)), descriptors
                )
                if outcome.records != reference:
                    raise SimulationError(
                        f"{bench.name}: parallel (jobs={jobs}) records differ "
                        "from serial records"
                    )
                if best is None or elapsed < best:
                    best = elapsed
            assert best is not None
            speedup = cold_seconds / best if best else 0.0
            parallel[str(jobs)] = {
                "seconds": best,
                "runs_per_sec": runs / best if best else 0.0,
                "speedup": speedup,
                "efficiency": speedup / jobs,
            }

        if bench.replay_compare:
            entry["replay"] = _time_replay_phase(bench, quick, repeats, base)
            codegen_rps = entry["replay"]["codegen"]["runs_per_sec"]
            warm_rps_replay = entry["replay"]["warm"]["runs_per_sec"]
            entry["campaign_replay_speedup"] = (
                warm_rps_replay / codegen_rps if codegen_rps else 0.0
            )

    cold_rps = runs / cold_seconds if cold_seconds else 0.0
    warm_rps = runs / warm_seconds if warm_seconds else 0.0
    entry["cold"] = {"seconds": cold_seconds, "runs_per_sec": cold_rps}
    entry["warm"] = {
        "seconds": warm_seconds,
        "runs_per_sec": warm_rps,
        "counters": warm_counters,
    }
    read_rps = runs / read_seconds if read_seconds else 0.0
    entry["artifact_reads"] = {"seconds": read_seconds, "runs_per_sec": read_rps}
    entry["warm_speedup"] = warm_rps / read_rps if read_rps else 0.0
    entry["parallel"] = parallel
    return entry


def _time_artifact_reads(
    bench: CampaignBench, directory: Path, unique_runs: object, repeats: int
) -> float:
    """Best wall time of ``repeats`` passes that read and parse every
    artifact of the store in ``directory`` with :func:`json.loads`: the floor
    of a warm re-run, which no simulation speed moves."""
    paths = sorted(directory.glob("*.json"))
    if len(paths) != unique_runs:
        raise SimulationError(
            f"{bench.name}: the warm store holds {len(paths)} artifact(s), "
            f"expected one per unique run ({unique_runs})"
        )
    best: Optional[float] = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        for path in paths:
            with open(path, "rb", buffering=0) as handle:
                json.loads(handle.readall())
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return best


def _strip_engine(records: Sequence[Dict[str, object]]) -> Tuple[Dict[str, object], ...]:
    """Records with the config's ``engine`` field removed.

    The engine never changes results (every engine is cycle-exact); the
    replay phase asserts that by comparing codegen-campaign records with
    replay-campaign records modulo this one config field.
    """
    stripped: List[Dict[str, object]] = []
    for record in records:
        clone = dict(record)
        config = clone.get("config")
        if isinstance(config, dict):
            config = dict(config)
            config.pop("engine", None)
            clone["config"] = config
        stripped.append(clone)
    return tuple(stripped)


def _time_replay_phase(
    bench: CampaignBench, quick: bool, repeats: int, base: Path
) -> Dict[str, object]:
    """The trace fast path's gated measurement.

    Times the bench's trace-safe arbiter sweep (:meth:`CampaignBench.replay_spec`)
    twice through fresh result stores (so every run simulates the
    interconnect):

    * through the ``codegen`` engine — the fastest execution-driven
      baseline, re-simulating every core's cache hierarchy per run;
    * through the ``replay`` engine with a warm trace cache — one priming
      campaign captures each kernel's core side once, then the timed
      campaigns stream the memoised traces.

    The memoisation guarantee is asserted on the trace-cache counters: the
    timed replay campaigns must capture *zero* traces — every core side of
    the sweep (observed rsk and contenders alike) replays from the cache,
    so no cache-hierarchy simulation happens after the first capture.
    """
    spec = bench.replay_spec(quick)
    codegen_descriptors = dataclass_replace(spec, engine="codegen").expand()
    replay_descriptors = dataclass_replace(spec, engine="replay").expand()
    runs = len(codegen_descriptors)

    codegen_seconds: Optional[float] = None
    reference: Optional[Tuple[Dict[str, object], ...]] = None
    for attempt in range(max(1, repeats)):
        directory = base / f"replaycmp-codegen-{attempt}"
        elapsed, outcome = _timed_run(
            ParallelRunner(jobs=1, cache=ResultStore(directory)), codegen_descriptors
        )
        if reference is None:
            reference = _strip_engine(outcome.records)
        if codegen_seconds is None or elapsed < codegen_seconds:
            codegen_seconds = elapsed
    assert codegen_seconds is not None and reference is not None

    cache = global_trace_cache()
    clear_trace_cache()
    # Priming campaign: the only execution-driven core simulations of the
    # whole phase.  Its store is discarded so the timed attempts resolve
    # nothing from the result store — only from the trace cache.
    _timed_run(
        ParallelRunner(jobs=1, cache=ResultStore(base / "replaycmp-prime")), replay_descriptors
    )

    replay_seconds: Optional[float] = None
    warm_counters: Dict[str, int] = {}
    for attempt in range(max(1, repeats)):
        cache.reset_counters()
        directory = base / f"replaycmp-replay-{attempt}"
        elapsed, outcome = _timed_run(
            ParallelRunner(jobs=1, cache=ResultStore(directory)), replay_descriptors
        )
        if cache.counters["captures"] != 0:
            raise SimulationError(
                f"{bench.name}: trace-warm replay campaign captured "
                f"{cache.counters['captures']} core trace(s); the core side "
                "should have been memoised by the priming campaign"
            )
        if cache.counters["hits"] == 0:
            raise SimulationError(
                f"{bench.name}: trace-warm replay campaign hit zero cached "
                "traces; the grid is not exercising the fast path"
            )
        if _strip_engine(outcome.records) != reference:
            raise SimulationError(
                f"{bench.name}: replay-engine campaign records differ from "
                "codegen-engine records"
            )
        if replay_seconds is None or elapsed < replay_seconds:
            replay_seconds = elapsed
            warm_counters = dict(cache.stats())
    assert replay_seconds is not None
    clear_trace_cache()

    return {
        "runs": runs,
        "codegen": {
            "seconds": codegen_seconds,
            "runs_per_sec": runs / codegen_seconds if codegen_seconds else 0.0,
        },
        "warm": {
            "seconds": replay_seconds,
            "runs_per_sec": runs / replay_seconds if replay_seconds else 0.0,
            "trace_cache": warm_counters,
        },
    }


def run_campaign_benchmarks(
    campaigns: Sequence[CampaignBench] = CAMPAIGN_WORKLOADS,
    quick: bool = False,
    repeats: int = 2,
) -> List[Dict[str, object]]:
    """Time every campaign bench and return the ``campaigns`` payload section."""
    return [time_campaign(bench, quick, repeats) for bench in campaigns]
