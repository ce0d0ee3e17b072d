"""The campaign pipeline: descriptors in, ordered records and stats out.

:func:`execute_run` turns one :class:`~repro.campaign.spec.RunDescriptor`
into a plain-JSON result record.  :class:`ParallelRunner` is the only code
that turns a descriptor sequence into records: it probes the result store
for the miss-frontier, partitions the misses into *shards*, hands the
shards to a *shard executor* and absorbs their results in shard order.
Two executors exist: in-process (:func:`execute_inline`, ``jobs=1``) and a
``concurrent.futures.ProcessPoolExecutor`` (:func:`pool_executor`).
Because every record is a pure function of its descriptor and the absorb
order is fixed, a parallel campaign's artifacts are bit-identical to a
serial campaign's — the only difference is wall-clock time.

Sharding is the IPC amortisation: a 10k-run grid crosses the executor
boundary ~``4 * jobs`` times instead of 10k times.  A :class:`ShardTask`
is its index plus its ``(digest, descriptor)`` pairs; descriptors of one
grid point share their :class:`ArchConfig` object, and pickle writes an
object shared within one ``dumps`` call once, so a shard ships each
platform once however many of its runs use it.  Inside a worker, contender
rsk programs are memoised per (config, kind) across the shard's runs.

A :class:`~repro.campaign.store.ResultStore` can be attached so repeated
campaigns only simulate misses: one ``get_many`` resolves the whole grid
(hits dedupe across *all* historical campaigns) and each absorbed shard is
one ``put_many``.  When a pending run uses the replay engine, the store
also backs the replay trace cache while :meth:`ParallelRunner.run` runs,
in this process and in every pool worker, so core captures persist in its
``traces/`` section.  :class:`CampaignOutcome.stats` reports how many runs
were simulated versus served from the store.

Store probing and absorb never touch the simulator: the execution
functions import the kernels, methodology, analysis and simulator layers
when a shard runs, and the parent imports them (and the engines its
pending runs use) before a pool forks, so every worker inherits them
loaded.  A warm re-run, answered entirely by the store, imports none of
them.

Streaming: pass a :class:`~repro.campaign.artifacts.CampaignStreamWriter`
to :meth:`ParallelRunner.run` and records are appended to
``results.jsonl`` (and ``summary.json`` checkpointed) while the campaign
runs, in exactly the order a one-shot write would produce.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..config import FAIR_ARBITRATION_POLICIES, config_from_dict
from ..errors import AnalysisError, MethodologyError
from .spec import KIND_RSK, KIND_SYNTHETIC, SCHEMA_VERSION, RunDescriptor, campaign_digest
from .store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from concurrent.futures import ProcessPoolExecutor

    from ..sim.isa import Program
    from ..sim.trace import TraceCache
    from .artifacts import CampaignStreamWriter


def execute_run(
    descriptor: RunDescriptor,
    *,
    _contender_memo: Optional["_ContenderMemo"] = None,
) -> Dict[str, object]:
    """Simulate one descriptor and return its JSON-serialisable result record.

    This is the worker function shipped to pool processes; it must stay a
    module-level callable so descriptors and results pickle cleanly.  The
    returned record intentionally contains no wall-clock or host metadata —
    it is the cacheable, machine-independent part of a campaign result.  The
    simulation engine is stripped from the embedded configuration for the
    same reason it is excluded from the digest: every engine is cycle-exact,
    so artifacts must be byte-identical whichever one produced them.
    """
    config_dict = descriptor.config.to_dict()
    config_dict.pop("engine", None)
    record: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "digest": descriptor.digest(),
        "preset": descriptor.preset,
        "kind": descriptor.kind,
        "arbiter": descriptor.config.bus.arbitration,
        "topology": descriptor.config.topology.name,
        "tasks": list(descriptor.tasks),
        "contenders": descriptor.contenders,
        "observed_core": descriptor.observed_core,
        "iterations": descriptor.iterations,
        "seed": descriptor.seed,
        "config": config_dict,
    }
    if descriptor.kind == KIND_SYNTHETIC:
        record["metrics"] = _synthetic_metrics(descriptor)
    else:
        record["rsk_kind"] = descriptor.rsk_kind
        record["metrics"] = _rsk_metrics(descriptor, _contender_memo)
    return record


#: Memo key for contender rsk programs: (config identity, rsk kind,
#: occupied cores, observed core) fully determines the contender program
#: map.  A memo lives for one shard, which keeps its configs alive, so a
#: config's ``id`` cannot be reused by another config while it is a key.
_ContenderKey = Tuple[int, str, int, int]
_ContenderMemo = Dict[_ContenderKey, Dict[int, "Program"]]


def load_execution_layers(engines: Iterable[str]) -> None:
    """Import what executing a run needs: the kernels, methodology, analysis
    and simulator layers, plus the classes of ``engines``.

    The execution functions import these when a shard first runs; a pool's
    parent calls this before it forks, so every worker inherits them loaded
    instead of importing them again.
    """
    from ..analysis import contention  # noqa: F401
    from ..kernels import rsk  # noqa: F401
    from ..methodology import experiment, workloads  # noqa: F401
    from ..sim.scheduler import ENGINE_REGISTRY

    for engine in engines:
        ENGINE_REGISTRY.require(engine).cls  # imports a path-registered engine


def _synthetic_metrics(descriptor: RunDescriptor) -> Dict[str, object]:
    from ..analysis.contention import contender_histogram
    from ..methodology.workloads import build_workload_programs
    from ..sim.system import System

    config = descriptor.config
    observed = descriptor.observed_core
    programs = build_workload_programs(
        config, descriptor.tasks, observed, descriptor.iterations, seed=descriptor.seed
    )
    system = System(
        config,
        programs,
        trace=True,
        preload_l2=True,
        preload_il1=True,
        preload_dl1=True,
    )
    result = system.run(observed_cores=[observed])
    ready = contender_histogram(result.trace, observed, config.num_cores)
    return {
        "execution_time": result.execution_time(observed),
        "bus_utilisation": result.pmc.bus_utilisation(),
        "contender_histogram": _json_histogram(ready.counts),
        "contender_total_requests": ready.total_requests,
    }


def _rsk_metrics(
    descriptor: RunDescriptor,
    contender_memo: Optional[_ContenderMemo] = None,
) -> Dict[str, object]:
    from ..analysis.contention import (
        DECOMPOSITION_STAGES,
        contender_histogram,
        contention_histogram,
        latency_decomposition,
    )
    from ..kernels.rsk import build_rsk
    from ..methodology.experiment import ExperimentRunner

    config = descriptor.config
    observed = descriptor.observed_core
    scua = build_rsk(config, observed, kind=descriptor.rsk_kind, iterations=descriptor.iterations)
    # Contender programs depend only on (config, kind, cores, observed), so a
    # shard executing many runs on the same platform builds them once.
    # Programs are frozen dataclasses, which makes sharing them safe.
    memo_key: _ContenderKey = (
        id(config),
        descriptor.rsk_kind,
        len(descriptor.tasks),
        observed,
    )
    contenders: Optional[Dict[int, "Program"]] = (
        contender_memo.get(memo_key) if contender_memo is not None else None
    )
    if contenders is None:
        contenders = {
            core: build_rsk(config, core, kind=descriptor.rsk_kind, iterations=None)
            for core in range(len(descriptor.tasks))
            if core != observed
        }
        if contender_memo is not None:
            contender_memo[memo_key] = contenders
    runner = ExperimentRunner(config)
    isolation, contended = runner.run_pair(scua, contenders, scua_core=observed, trace=True)
    metrics: Dict[str, object] = contended.as_record()
    metrics["isolation"] = isolation.as_record()
    metrics["slowdown"] = contended.slowdown_versus(isolation)
    ready = contender_histogram(contended.trace, observed, config.num_cores)
    metrics["contender_histogram"] = _json_histogram(ready.counts)
    metrics["contender_total_requests"] = ready.total_requests
    try:
        decomposition = latency_decomposition(contended.trace, observed, skip_first=1)
    except AnalysisError:
        # No completed demand request of the observed core (e.g. a pure
        # store run): there is no per-resource decomposition to record.
        pass
    else:
        # Per-resource observed worst cases: the measured-bound fields the
        # summary aggregates against the analytical ``ubd_terms``.
        metrics["memory_requests"] = decomposition.memory_requests
        metrics["stage_worst_case"] = {
            stage: decomposition.max_observed(stage)
            for stage in DECOMPOSITION_STAGES
            if decomposition.histograms.get(stage)
        }
    try:
        delays = contention_histogram(contended.trace, observed, kinds=(descriptor.rsk_kind,))
    except AnalysisError:
        # Store rsk traffic drains through the store buffer; if no request of
        # the requested kind completed there is no delay histogram to report.
        return metrics
    metrics["contention_histogram"] = _json_histogram(delays.counts)
    metrics["max_contention_delay"] = delays.max_observed
    metrics["modal_contention_delay"] = delays.mode
    return metrics


def _json_histogram(counts: Dict[int, int]) -> Dict[str, int]:
    """Render an int-keyed histogram with string keys, sorted for stable JSON."""
    return {str(key): counts[key] for key in sorted(counts)}


def histogram_from_json(counts: Dict[str, int]) -> Dict[int, int]:
    """Invert :func:`_json_histogram` when loading artifacts."""
    return {int(key): value for key, value in counts.items()}


@dataclass(frozen=True)
class ShardTask:
    """A contiguous slice of the miss-frontier, shipped to one worker:
    ``(digest, descriptor)`` pairs in frontier order."""

    index: int
    runs: Tuple[Tuple[str, RunDescriptor], ...]


def _attach_worker_trace_store(directory: str) -> None:
    """Pool-worker initializer: back this process's trace cache with the
    campaign store's ``traces/`` section.

    Runs once per worker process.  Only the trace section is touched
    through the worker's handle (run records still travel back over IPC).
    """
    from ..sim.trace import global_trace_cache

    try:
        store = ResultStore(directory)
    except Exception:  # pragma: no cover - a worker without traces still works
        return
    global_trace_cache().attach_store(store)


#: ``(digest, record)`` pairs of one executed shard, in run order.
ShardResults = List[Tuple[str, Dict[str, object]]]

#: Runs a campaign's shards and yields each shard's results in shard
#: order.  Executors are generators so the runner can close one it
#: abandons mid-campaign (an absorb failure stops the dispatch).
ShardExecutor = Callable[[Sequence[ShardTask]], Generator[ShardResults, None, None]]


def execute_shard(shard: ShardTask) -> ShardResults:
    """Execute a shard's runs in order; the worker entry point.

    Returns ``[(digest, record), ...]`` in run order.  One process-level
    setup (the contender-program memo) is amortised across every run of
    the shard.
    """
    memo: _ContenderMemo = {}
    return [
        (digest, execute_run(descriptor, _contender_memo=memo))
        for digest, descriptor in shard.runs
    ]


def execute_inline(shards: Sequence[ShardTask]) -> Generator[ShardResults, None, None]:
    """In-process executor: the reference behaviour every other executor
    must reproduce bit-for-bit (no pool, no pickling)."""
    for shard in shards:
        yield execute_shard(shard)


def worker_pool(jobs: int, store: Optional[ResultStore]) -> "ProcessPoolExecutor":
    """A process pool of ``jobs`` workers whose trace caches are backed by
    ``store``'s ``traces/`` section.

    A replay-engine campaign therefore captures each kernel once
    *globally*: the first worker to capture persists the trace and every
    other process replays it from disk.
    """
    from concurrent.futures import ProcessPoolExecutor

    if store is None:
        return ProcessPoolExecutor(max_workers=jobs)
    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_attach_worker_trace_store,
        initargs=(str(store.directory),),
    )


def pool_executor(pool: "ProcessPoolExecutor") -> ShardExecutor:
    """Executor over ``pool``: every shard is submitted up front and the
    results are yielded by waiting on the futures in submission order, so
    store writes and the stream see the exact serial sequence."""

    def execute(shards: Sequence[ShardTask]) -> Generator[ShardResults, None, None]:
        futures = [pool.submit(execute_shard, shard) for shard in shards]
        for future in futures:
            yield future.result()

    return execute


@dataclass(frozen=True)
class CampaignOutcome:
    """All records of a finished campaign plus execution statistics.

    Attributes:
        records: one result record per descriptor, in descriptor order, each
            carrying its ``run_id``.  Everything here is deterministic.
        stats: how the campaign was executed — jobs, cache hits, wall time.
            This is *timing metadata* and never enters ``results.jsonl``.
    """

    records: Tuple[Dict[str, object], ...]
    stats: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """Aggregate the records into the ``summary.json`` payload."""
        summary = summarize_records(self.records)
        summary["timing"] = dict(self.stats)
        return summary


def default_shard_size(pending: int, jobs: int) -> int:
    """Shard size targeting ~4 shards per worker: small enough that a slow
    shard cannot straggle the whole campaign, large enough that executor
    round-trips stay negligible (a 10k-run grid on 8 jobs crosses the pool
    boundary 32 times, not 10k times)."""
    if pending <= 0:
        return 1
    return max(1, math.ceil(pending / (4 * max(1, jobs))))


class ParallelRunner:
    """Executes run descriptors, optionally in parallel and through a store.

    Args:
        jobs: parallel execution slots.  Shards are sized to ~4 per slot
            (:func:`default_shard_size`); without an explicit executor,
            ``1`` executes in-process and ``N > 1`` runs the shards on a
            pool of ``N`` worker processes.
        cache: optional :class:`~repro.campaign.store.ResultStore` shared
            across campaigns; hits skip simulation entirely.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultStore] = None) -> None:
        if jobs < 1:
            raise MethodologyError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache

    def run(
        self,
        descriptors: Sequence[RunDescriptor],
        stream: Optional["CampaignStreamWriter"] = None,
        executor: Optional[ShardExecutor] = None,
    ) -> CampaignOutcome:
        """Execute ``descriptors`` and return their records in input order.

        With ``stream``, records are additionally appended to the stream
        writer as they resolve (cached prefix immediately, then shard by
        shard); the caller still finalises the stream with the summary.
        ``executor`` overrides how shards run (any :data:`ShardExecutor`
        generator, e.g. a recording wrapper around :func:`execute_inline`);
        by default :meth:`run` picks the in-process or the pool executor
        from ``jobs``.
        """
        started = time.perf_counter()
        # The replay trace cache counts per process, across campaigns: the
        # stats report what this run adds to its counters (all zero while
        # the replay engine's module is not loaded).
        replay_cache = _loaded_trace_cache()
        trace_before = dict(replay_cache.counters) if replay_cache is not None else {}
        store = self.cache
        digests = [descriptor.digest() for descriptor in descriptors]
        # First occurrence of each digest, in descriptor order: duplicate
        # descriptors simulate once and share the record.
        frontier: Dict[str, RunDescriptor] = {}
        for digest, descriptor in zip(digests, descriptors):
            frontier.setdefault(digest, descriptor)
        by_digest: Dict[str, Dict[str, object]] = {}
        if store is not None:
            for digest, record in store.get_many(list(frontier)).items():
                if record.get("schema") == SCHEMA_VERSION:
                    by_digest[digest] = record
        cached_hits = len(by_digest)
        pending = [
            (digest, descriptor)
            for digest, descriptor in frontier.items()
            if digest not in by_digest
        ]
        shard_size = default_shard_size(len(pending), self.jobs)
        shards = [
            ShardTask(index, tuple(pending[start : start + shard_size]))
            for index, start in enumerate(range(0, len(pending), shard_size))
        ]
        engines = {descriptor.config.engine for _, descriptor in pending}
        # Replay-engine runs dedup core captures across campaigns and
        # processes through the store's ``traces/`` section.
        trace_store = store if "replay" in engines else None

        records: List[Dict[str, object]] = []

        def emit() -> None:
            """Emit every descriptor whose digest has resolved, in order."""
            batch: List[Dict[str, object]] = []
            while len(records) < len(digests):
                base = by_digest.get(digests[len(records)])
                if base is None:
                    break
                record = dict(base)
                record["run_id"] = descriptors[len(records)].run_id
                records.append(record)
                batch.append(record)
            if batch and stream is not None:
                stream.append(batch)

        if stream is not None:
            stream.begin(campaign_digest(digests), len(descriptors))
        try:
            # The cached prefix (the whole campaign, on a warm re-run)
            # streams before any shard is dispatched.
            emit()
            with contextlib.ExitStack() as stack:
                if trace_store is not None:
                    from ..sim.trace import global_trace_cache

                    # Attached for this campaign only: the previous
                    # attachment comes back when the campaign ends.
                    trace_cache = global_trace_cache()
                    stack.callback(trace_cache.attach_store, trace_cache.store)
                    trace_cache.attach_store(trace_store)
                if executor is None:
                    executor = execute_inline
                    if self.jobs > 1 and len(shards) > 1:
                        load_execution_layers(engines)
                        pool = worker_pool(min(self.jobs, len(shards)), trace_store)
                        executor = pool_executor(stack.enter_context(pool))
                results = stack.enter_context(contextlib.closing(executor(shards)))
                for fresh in results:
                    by_digest.update(fresh)
                    if store is not None:
                        store.put_many(fresh)
                    emit()
        except BaseException:
            if stream is not None:
                stream.abandon()
            raise

        stats: Dict[str, object] = {
            "runs": len(descriptors),
            "unique_runs": len(frontier),
            "simulated": len(pending),
            "cached": cached_hits,
            "jobs": self.jobs,
            "shards": len(shards),
            "shard_size": shard_size,
            "elapsed_seconds": time.perf_counter() - started,
        }
        if store is not None:
            stats["store"] = store.counters.as_dict()
        # Only meaningful when the replay engine ran in this process (worker
        # processes keep their own per-process trace caches); ``entries`` is
        # the cache's size, not a delta.
        replay_cache = _loaded_trace_cache()
        if replay_cache is not None:
            counted = {
                name: value - trace_before.get(name, 0)
                for name, value in replay_cache.counters.items()
            }
            if any(counted.values()):
                stats["trace_cache"] = dict(counted, entries=len(replay_cache))
        return CampaignOutcome(records=tuple(records), stats=stats)


def _loaded_trace_cache() -> Optional["TraceCache"]:
    """The process-wide replay trace cache, or ``None`` while
    :mod:`repro.sim.trace` is not loaded (nothing has counted yet)."""
    trace = sys.modules.get("repro.sim.trace")
    return trace.global_trace_cache() if trace is not None else None


def summarize_records(records: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate result records into the deterministic summary payload.

    Records are bucketed per *platform* — the (preset, arbiter) pair — so an
    arbiter sweep never merges delays measured under different arbitration
    policies.  Each bucket carries what the report layer renders: aggregated
    contender histograms (split by workload kind), bus utilisation, and the
    worst observed contention delay next to the analytical ``ubd`` — which
    Equation 1 only defines for round-robin and FIFO arbitration, so other
    arbiters report ``analytical_ubd: null``.
    """
    if not records:
        raise MethodologyError("cannot summarise an empty campaign")
    per_platform: Dict[str, Dict[str, object]] = {}
    for record in records:
        preset = record["preset"]
        arbiter = record["arbiter"]
        # Records predating the topology field describe bus_only platforms.
        topology = record.get("topology", "bus_only")
        # The historical bucket key stays "<preset>/<arbiter>" for the
        # paper's single-bus platform; chained topologies append the
        # topology *and* its bank-queue arbitration, so delays measured on
        # different resource chains or bank policies never merge.
        key = f"{preset}/{arbiter}"
        mem_arbitration = None
        response_arbitration = None
        if topology != "bus_only":
            mem_arbitration = record["config"]["topology"]["mem_arbitration"]
            key = f"{key}/{topology}/{mem_arbitration}"
            if topology == "split_bus":
                # The response channel is its own arbitrated stage; its
                # policy separates buckets like the bank policy does.
                response_arbitration = record["config"]["topology"].get(
                    "response_arbitration", "fifo"
                )
                key = f"{key}/{response_arbitration}"
        bucket = per_platform.get(key)
        if bucket is None:
            config = config_from_dict(record["config"])
            bucket = per_platform[key] = {
                "preset": preset,
                "arbiter": arbiter,
                "topology": topology,
                "mem_arbitration": mem_arbitration,
                "response_arbitration": response_arbitration,
                "runs": 0,
                "analytical_ubd": (config.ubd if arbiter in FAIR_ARBITRATION_POLICIES else None),
                # Like analytical_ubd, only reported where the fair-round
                # reasoning holds — has_composable_bounds checks *both*
                # stages: the bus arbiter and the bank-queue arbiter.
                "end_to_end_ubd": (
                    config.end_to_end_ubd
                    if config.topology.has_memory_queues
                    and config.has_composable_bounds
                    else None
                ),
                # The per-resource decomposition of end_to_end_ubd: what the
                # aggregated stage_worst_case fields are checked against.
                "analytical_terms": (
                    dict(config.ubd_terms) if config.has_composable_bounds else None
                ),
                "_utilisations": [],
            }
        bucket["runs"] += 1
        bucket["_utilisations"].append(record["metrics"]["bus_utilisation"])
        kind_bucket = bucket.setdefault(
            record["kind"],
            {"runs": 0, "aggregated_contenders": {}, "total_requests": 0},
        )
        kind_bucket["runs"] += 1
        kind_bucket["total_requests"] += record["metrics"]["contender_total_requests"]
        aggregated = kind_bucket["aggregated_contenders"]
        for bin_key, count in record["metrics"]["contender_histogram"].items():
            aggregated[bin_key] = aggregated.get(bin_key, 0) + count
        if record["kind"] == KIND_RSK:
            delay = record["metrics"].get("max_contention_delay")
            if delay is not None:
                previous = kind_bucket.get("max_contention_delay", 0)
                kind_bucket["max_contention_delay"] = max(previous, delay)
            slowdown = record["metrics"].get("slowdown")
            if slowdown is not None:
                kind_bucket["max_slowdown"] = max(kind_bucket.get("max_slowdown", 0), slowdown)
            stage_worst = record["metrics"].get("stage_worst_case")
            if stage_worst:
                aggregated_stages = kind_bucket.setdefault("stage_worst_case", {})
                for stage, worst in stage_worst.items():
                    aggregated_stages[stage] = max(aggregated_stages.get(stage, 0), worst)

    for bucket in per_platform.values():
        utilisations = bucket.pop("_utilisations")
        bucket["mean_bus_utilisation"] = sum(utilisations) / len(utilisations)
        synthetic = bucket.get(KIND_SYNTHETIC)
        if synthetic is not None:
            synthetic["fraction_with_at_most_1"] = _fraction_at_most(
                synthetic["aggregated_contenders"], 1
            )
    return {
        "schema": SCHEMA_VERSION,
        "total_runs": len(records),
        "presets": sorted({record["preset"] for record in records}),
        "arbiters": sorted({record["arbiter"] for record in records}),
        "topologies": sorted({record.get("topology", "bus_only") for record in records}),
        "kinds": {
            kind: sum(1 for record in records if record["kind"] == kind)
            for kind in sorted({record["kind"] for record in records})
        },
        "per_platform": per_platform,
    }


def _fraction_at_most(aggregated: Dict[str, int], contenders: int) -> float:
    total = sum(aggregated.values())
    if total == 0:
        return 0.0
    matching = sum(count for key, count in aggregated.items() if int(key) <= contenders)
    return matching / total
