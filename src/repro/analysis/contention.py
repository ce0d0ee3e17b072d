"""Per-request contention analysis and the histograms of Figure 6.

Figure 6(a) histograms *how many contenders are ready* whenever the observed
core tries to access the bus — showing that real (EEMBC-like) workloads
almost never build the worst-case scenario, while four rsk saturate the bus.

Figure 6(b) histograms the *contention delay* each rsk request actually
suffers — showing that under the synchrony effect nearly every request sees
the same delay, and that this plateau (``ubdm`` = 26 on ``ref``, 23 on
``var``) underestimates the real ``ubd`` of 27.

On multi-resource topologies a request's end-to-end latency is more than its
bus-grant wait: an L2 miss also waits for its DRAM bank queue, is served by
the DRAM, and waits again for the response transfer.
:func:`latency_decomposition` attributes each request's latency to those
stages — per-resource Figure 6(b)-style histograms plus totals that
cross-check against the :class:`repro.sim.memctrl.MemCtrlStats` queue
counters — using the stage timestamps the simulator stamps into each
:class:`repro.sim.request_trace.RequestRecord`.

All analyses are produced from the request trace collected by
:class:`repro.sim.request_trace.TraceRecorder`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..sim.memctrl import MemCtrlStats
from ..sim.request_trace import TraceRecorder


@dataclass(frozen=True)
class ContentionHistogram:
    """Histogram of per-request contention delays (Figure 6(b)).

    Attributes:
        counts: mapping contention delay (cycles) -> number of requests.
        total_requests: number of requests analysed.
        observed_core: the core whose requests were analysed.
    """

    counts: Dict[int, int]
    total_requests: int
    observed_core: int

    @property
    def max_observed(self) -> int:
        """The largest contention delay observed — this is ``ubdm``."""
        if not self.counts:
            return 0
        return max(self.counts)

    @property
    def mode(self) -> int:
        """The most frequent contention delay (the synchrony plateau)."""
        if not self.counts:
            return 0
        return max(self.counts.items(), key=lambda item: (item[1], item[0]))[0]

    def fraction_at_mode(self) -> float:
        """Fraction of requests that suffered exactly the modal delay."""
        if self.total_requests == 0:
            return 0.0
        return self.counts[self.mode] / self.total_requests

    def fraction_at(self, delay: int) -> float:
        """Fraction of requests that suffered exactly ``delay`` cycles."""
        if self.total_requests == 0:
            return 0.0
        return self.counts.get(delay, 0) / self.total_requests

    def as_sorted_items(self) -> List[Tuple[int, int]]:
        """Histogram entries sorted by contention delay."""
        return sorted(self.counts.items())


@dataclass(frozen=True)
class ContenderHistogram:
    """Histogram of ready contenders at request time (Figure 6(a)).

    Attributes:
        counts: mapping number of ready contenders -> number of requests.
        total_requests: number of requests analysed.
        observed_core: the core whose requests were analysed.
        num_cores: total number of cores on the platform (so the histogram's
            x axis spans 0 .. num_cores - 1).
    """

    counts: Dict[int, int]
    total_requests: int
    observed_core: int
    num_cores: int

    def fraction_with_at_most(self, contenders: int) -> float:
        """Fraction of requests that found at most ``contenders`` ready contenders."""
        if self.total_requests == 0:
            return 0.0
        matching = sum(count for value, count in self.counts.items() if value <= contenders)
        return matching / self.total_requests

    def fraction_with(self, contenders: int) -> float:
        """Fraction of requests that found exactly ``contenders`` ready contenders."""
        if self.total_requests == 0:
            return 0.0
        return self.counts.get(contenders, 0) / self.total_requests

    def as_sorted_items(self) -> List[Tuple[int, int]]:
        """Histogram entries sorted by contender count."""
        return sorted(self.counts.items())


def contention_histogram(
    trace: TraceRecorder,
    observed_core: int,
    kinds: Sequence[str] = ("load",),
    skip_first: int = 1,
) -> ContentionHistogram:
    """Histogram the contention delay of the observed core's requests.

    Args:
        trace: the request trace of a contended run.
        observed_core: core whose requests are analysed.
        kinds: request kinds to include (demand loads by default; Figure 6(b)
            analyses a load rsk).
        skip_first: number of leading requests to drop — the first request of
            a run pre-dates the synchrony lock-in and its delay depends only
            on the arbitrary initial arbiter state.
    """
    records = [r for r in trace.for_port(observed_core, kinds) if r.completed]
    if not records:
        raise AnalysisError(
            f"trace holds no completed {list(kinds)} requests for core {observed_core}"
        )
    selected = records[skip_first:] if skip_first < len(records) else records
    counts = Counter(record.contention_delay for record in selected)
    return ContentionHistogram(
        counts=dict(counts),
        total_requests=len(selected),
        observed_core=observed_core,
    )


def contender_histogram(
    trace: TraceRecorder,
    observed_core: int,
    num_cores: int,
    kinds: Optional[Sequence[str]] = None,
    skip_first: int = 0,
) -> ContenderHistogram:
    """Histogram how many contenders were ready when the observed core's requests arrived."""
    kinds = kinds if kinds is not None else ("load", "store", "ifetch")
    records = list(trace.for_port(observed_core, kinds))
    if not records:
        raise AnalysisError(f"trace holds no {list(kinds)} requests for core {observed_core}")
    selected = records[skip_first:] if skip_first < len(records) else records
    counts = Counter(record.contenders_at_ready for record in selected)
    return ContenderHistogram(
        counts=dict(counts),
        total_requests=len(selected),
        observed_core=observed_core,
        num_cores=num_cores,
    )


#: Decomposition stage -> the resource it measures, in end-to-end order.
#: ``bus`` is the request-phase grant wait (the request channel on
#: ``split_bus``), ``memory`` the bank-queue wait, ``dram`` the DRAM service,
#: ``bus_response`` the response-phase grant wait.  The stage names align
#: with the ``ArchConfig.ubd_terms`` keys so each per-request histogram can
#: be checked directly against its analytical per-resource bound.
DECOMPOSITION_STAGES = ("bus", "memory", "dram", "bus_response")


@dataclass(frozen=True)
class LatencyDecomposition:
    """Per-resource attribution of the observed core's request latencies.

    Attributes:
        observed_core: the core whose requests were analysed.
        total_requests: number of completed demand requests analysed.
        memory_requests: the subset that missed the L2 and reached the
            memory stage (only those contribute to the ``memory``, ``dram``
            and ``bus_response`` histograms).
        histograms: per-stage delay histograms
            (``stage -> {delay_cycles: request_count}``), stages as in
            :data:`DECOMPOSITION_STAGES`.
        totals: per-stage summed cycles over all analysed requests.
    """

    observed_core: int
    total_requests: int
    memory_requests: int
    histograms: Dict[str, Dict[int, int]] = field(default_factory=dict)
    totals: Dict[str, int] = field(default_factory=dict)

    def max_observed(self, stage: str) -> int:
        """Largest delay observed at ``stage`` (0 when the stage was idle)."""
        counts = self.histograms.get(stage)
        if not counts:
            return 0
        return max(counts)

    def mean_observed(self, stage: str) -> float:
        """Mean delay at ``stage`` over the requests that visited it."""
        counts = self.histograms.get(stage)
        if not counts:
            return 0.0
        total = sum(delay * count for delay, count in counts.items())
        visits = sum(counts.values())
        return total / visits

    def consistent_with(self, stats: MemCtrlStats) -> bool:
        """Cross-check the ``memory`` stage against the controller's queue
        counters.

        The decomposition covers the observed core's demand reads, a subset
        of the accesses a bank-queued controller arbitrates (writes and
        other cores' traffic also accumulate into
        ``MemCtrlStats.total_queue_wait``), so the per-request waits can
        never exceed the aggregate; with the observed core's demand reads
        as the *only* memory traffic the two are exactly equal.  The plain
        arrival-scheduled controller records no queue grants at all — its
        implicit FIFO wait appears only in the per-request stamps — so
        there is no aggregate to check against and the method returns True
        vacuously.
        """
        if stats.queue_grants == 0:
            return True
        return self.totals.get("memory", 0) <= stats.total_queue_wait


def latency_decomposition(
    trace: TraceRecorder,
    observed_core: int,
    kinds: Sequence[str] = ("load", "ifetch"),
    skip_first: int = 0,
) -> LatencyDecomposition:
    """Attribute each request's end-to-end latency to the resource it waited at.

    Every completed demand request of ``observed_core`` contributes its
    request-phase grant wait to the ``bus`` histogram; the requests that
    missed the L2 additionally contribute their bank-queue wait
    (``memory``), their DRAM service time (``dram``) and their
    response-phase grant wait (``bus_response``) — the Figure 6(b) analysis,
    repeated per shared resource of the topology.

    Args:
        trace: the request trace of a contended run.
        observed_core: core whose requests are analysed.
        kinds: demand request kinds to include.
        skip_first: leading requests to drop (see :func:`contention_histogram`).
    """
    records = [
        r
        for r in trace.for_port(observed_core, kinds)
        if r.completed and r.origin_core in (observed_core, -1)
    ]
    if not records:
        raise AnalysisError(
            f"trace holds no completed {list(kinds)} requests for core {observed_core}"
        )
    selected = records[skip_first:] if skip_first < len(records) else records
    histograms: Dict[str, Counter] = {stage: Counter() for stage in DECOMPOSITION_STAGES}
    memory_requests = 0
    for record in selected:
        histograms["bus"][record.contention_delay] += 1
        if not record.reached_memory:
            continue
        memory_requests += 1
        histograms["memory"][record.memory_queue_wait] += 1
        histograms["dram"][record.dram_service] += 1
        if record.response_grant_cycle >= 0:
            histograms["bus_response"][record.response_wait] += 1
    totals = {
        stage: sum(delay * count for delay, count in counts.items())
        for stage, counts in histograms.items()
    }
    return LatencyDecomposition(
        observed_core=observed_core,
        total_requests=len(selected),
        memory_requests=memory_requests,
        histograms={stage: dict(counts) for stage, counts in histograms.items()},
        totals=totals,
    )


@dataclass(frozen=True)
class MemoryTermSplit:
    """Queue-wait vs DRAM-service split of the measured ``memory`` stage.

    The analytical ``memory`` term bundles two physically distinct effects —
    the wait in the arbitrated bank queue and the (row-state dependent) DRAM
    service of the access itself.  Splitting the measured decomposition the
    same way makes an analytical-vs-measured gap *attributable*: a queue-wait
    shortfall points at the ``Nc - 1`` competitor assumption, a service gap
    at the row-miss envelope.  Derived from the ``memory`` (queue wait) and
    ``dram`` (service) histograms of :class:`LatencyDecomposition`.
    """

    memory_requests: int
    queue_wait_max: int
    queue_wait_mean: float
    queue_wait_total: int
    service_max: int
    service_mean: float
    service_total: int

    def summary(self) -> str:
        """One-line human readable report."""
        return (
            f"memory stage split over {self.memory_requests} request(s): "
            f"queue wait max {self.queue_wait_max} (mean {self.queue_wait_mean:.1f}) "
            f"+ DRAM service max {self.service_max} (mean {self.service_mean:.1f})"
        )


def memory_term_split(decomposition: LatencyDecomposition) -> MemoryTermSplit:
    """Split the decomposition's memory-stage cycles into queue wait and service."""
    return MemoryTermSplit(
        memory_requests=decomposition.memory_requests,
        queue_wait_max=decomposition.max_observed("memory"),
        queue_wait_mean=decomposition.mean_observed("memory"),
        queue_wait_total=decomposition.totals.get("memory", 0),
        service_max=decomposition.max_observed("dram"),
        service_mean=decomposition.mean_observed("dram"),
        service_total=decomposition.totals.get("dram", 0),
    )


@dataclass(frozen=True)
class StageBoundCheck:
    """Cross-check of one resource's measured bound against its neighbours.

    A measured per-resource bound is trustworthy only when it is sandwiched:
    it must *cover* the worst contention actually observed at the resource
    (``observed_worst_case <= ubdm``, the paper's trustworthiness argument)
    and stay *within* the analytical envelope (``ubdm <= analytical``, the
    sanity direction — a measurement exceeding the analytical worst case
    means either the model or the measurement is wrong).
    """

    resource: str
    observed_worst_case: int
    ubdm: int
    analytical: int

    @property
    def covers_observation(self) -> bool:
        """True when the measured bound covers the observed worst case."""
        return self.ubdm >= self.observed_worst_case

    @property
    def within_envelope(self) -> bool:
        """True when the measured bound stays below the analytical term."""
        return self.ubdm <= self.analytical

    @property
    def passed(self) -> bool:
        """Both directions of the sandwich hold."""
        return self.covers_observation and self.within_envelope

    @property
    def status(self) -> str:
        """Short verdict label (``OK`` / ``NOT COVERING`` / ``EXCEEDS
        ENVELOPE``) shared by reports and the CLI table."""
        if not self.covers_observation:
            return "NOT COVERING"
        if not self.within_envelope:
            return "EXCEEDS ENVELOPE"
        return "OK"

    def summary(self) -> str:
        """One-line human readable report."""
        return (
            f"{self.resource}: observed {self.observed_worst_case} <= "
            f"ubdm {self.ubdm} <= analytical {self.analytical} [{self.status}]"
        )


@dataclass(frozen=True)
class BoundCrossCheck:
    """Per-stage sandwich checks for a whole measured-bound report."""

    checks: List[StageBoundCheck]

    @property
    def passed(self) -> bool:
        """True only if every stage's sandwich holds."""
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> List[StageBoundCheck]:
        """The stages whose sandwich does not hold."""
        return [check for check in self.checks if not check.passed]

    def summary(self) -> str:
        """Multi-line human readable report."""
        return "\n".join(check.summary() for check in self.checks)


def cross_check_stage_bounds(
    observed: Mapping[str, int],
    measured: Mapping[str, int],
    analytical: Mapping[str, int],
) -> BoundCrossCheck:
    """Sandwich-check every measured per-resource bound.

    Args:
        observed: worst per-request delay observed at each resource (from
            :func:`latency_decomposition` of the stressing runs).
        measured: the measured ``ubdm`` terms, keyed like
            :attr:`repro.config.ArchConfig.ubd_terms`.
        analytical: the analytical per-resource terms.

    Raises:
        AnalysisError: when a measured term has no analytical counterpart —
            a sandwich with a missing side checks nothing.
    """
    checks: List[StageBoundCheck] = []
    for resource, ubdm in measured.items():
        if resource not in analytical:
            raise AnalysisError(
                f"measured term {resource!r} has no analytical counterpart; "
                f"analytical terms cover {sorted(analytical)}"
            )
        checks.append(
            StageBoundCheck(
                resource=resource,
                observed_worst_case=observed.get(resource, 0),
                ubdm=ubdm,
                analytical=analytical[resource],
            )
        )
    return BoundCrossCheck(checks=checks)


def injection_time_histogram(
    trace: TraceRecorder,
    observed_core: int,
    kinds: Sequence[str] = ("load",),
) -> Dict[int, int]:
    """Histogram of injection times ``delta_i`` between consecutive requests."""
    deltas = trace.injection_times(observed_core, kinds)
    if not deltas:
        raise AnalysisError(
            f"trace holds fewer than two requests for core {observed_core}; "
            "injection times are undefined"
        )
    return dict(Counter(deltas))
