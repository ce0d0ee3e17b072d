"""Request-level bus trace.

Every bus transaction can be recorded as a :class:`RequestRecord` carrying
the cycles at which it became ready, was granted and completed, plus how
many *other* ports had a pending request at the moment it became ready.
The bus channels, the memory controllers and the system stamp the records
in place under every engine; the analysis layer
(:mod:`repro.analysis.contention`) turns them into the histograms of
Figure 6 and into per-request contention delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(slots=True)
class RequestRecord:
    """Timing of one bus transaction, across every resource it visits.

    The record is created when the request is posted on a bus channel and
    filled in place as the transaction progresses: the channel stamps its
    grant and completion, the memory controller stamps the memory-stage
    timing of an L2 miss (``mem_*``), and the system stamps the response
    transfer (``response_*``).  The per-resource latency decomposition of
    :mod:`repro.analysis.contention` is computed entirely from these fields.

    Attributes:
        port: channel port that issued the request (core id, or the shared
            response port index for single-bus split transactions).
        kind: ``"load"``, ``"store"``, ``"ifetch"`` or ``"response"``.
        addr: target byte address.
        ready_cycle: cycle at which the request became visible to the arbiter.
        grant_cycle: cycle at which the channel was granted.
        complete_cycle: first cycle after the occupancy ends (data usable).
        service_cycles: channel occupancy in cycles.
        contenders_at_ready: number of other ports with a pending request at
            ``ready_cycle`` (the quantity histogrammed in Figure 6(a)).
        bus_busy_at_ready: True if the channel was serving another
            transaction when this request became ready.
        resource: ``resource_name`` of the channel the request was posted on
            (``"bus"`` for the request channel, ``"bus_response"`` for the
            split-bus response channel).
        origin_core: core the transaction ultimately belongs to (equals
            ``port`` except for shared-port responses).
        mem_ready_cycle: cycle an L2 miss entered the memory controller.
        mem_grant_cycle: cycle its DRAM access was issued (bank-queue grant,
            or arrival-scheduled issue on the plain controller).
        mem_complete_cycle: cycle the DRAM access completed.
        response_ready_cycle: cycle the response transfer became ready.
        response_grant_cycle: cycle the response channel was granted.
        response_complete_cycle: cycle the response reached the core.
    """

    port: int
    kind: str
    addr: int
    ready_cycle: int
    grant_cycle: int = -1
    complete_cycle: int = -1
    service_cycles: int = 0
    contenders_at_ready: int = 0
    bus_busy_at_ready: bool = False
    resource: str = "bus"
    origin_core: int = -1
    mem_ready_cycle: int = -1
    mem_grant_cycle: int = -1
    mem_complete_cycle: int = -1
    response_ready_cycle: int = -1
    response_grant_cycle: int = -1
    response_complete_cycle: int = -1

    @property
    def contention_delay(self) -> int:
        """Cycles spent waiting for the grant (``gamma`` in the paper)."""
        if self.grant_cycle < 0:
            return 0
        return self.grant_cycle - self.ready_cycle

    @property
    def total_latency(self) -> int:
        """Cycles from readiness to data availability."""
        if self.complete_cycle < 0:
            return 0
        return self.complete_cycle - self.ready_cycle

    @property
    def completed(self) -> bool:
        """True once the transaction has finished on the bus."""
        return self.complete_cycle >= 0

    @property
    def reached_memory(self) -> bool:
        """True when the request missed the L2 and entered the controller."""
        return self.mem_ready_cycle >= 0

    @property
    def memory_queue_wait(self) -> int:
        """Cycles the L2 miss waited for its DRAM bank (0 if it never missed)."""
        if self.mem_grant_cycle < 0:
            return 0
        return self.mem_grant_cycle - self.mem_ready_cycle

    @property
    def dram_service(self) -> int:
        """Cycles of DRAM service of the L2 miss (0 if it never missed)."""
        if self.mem_complete_cycle < 0:
            return 0
        return self.mem_complete_cycle - self.mem_grant_cycle

    @property
    def response_wait(self) -> int:
        """Cycles the data return waited for its channel grant."""
        if self.response_grant_cycle < 0:
            return 0
        return self.response_grant_cycle - self.response_ready_cycle


class TraceRecorder:
    """Collects :class:`RequestRecord` objects during a simulation.

    Recording is optional (it costs memory proportional to the number of bus
    transactions); the system enables it when an experiment asks for
    request-level analysis such as the Figure 6 histograms.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: List[RequestRecord] = []

    def record(self, record: RequestRecord) -> None:
        """Store one record (no-op when disabled)."""
        if self.enabled:
            self._records.append(record)

    def clear(self) -> None:
        """Drop all collected records."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RequestRecord]:
        return iter(self._records)

    @property
    def records(self) -> Tuple[RequestRecord, ...]:
        """All records collected so far, in grant order."""
        return tuple(self._records)

    # ------------------------------------------------------------------ #
    # Convenience selectors used by the analysis layer.
    # ------------------------------------------------------------------ #
    def for_port(
        self, port: int, kinds: Optional[Sequence[str]] = None
    ) -> Tuple[RequestRecord, ...]:
        """Records issued by ``port``, optionally filtered by request kind."""
        selected = (r for r in self._records if r.port == port)
        if kinds is not None:
            wanted = set(kinds)
            selected = (r for r in selected if r.kind in wanted)
        return tuple(selected)

    def completed_records(self) -> Tuple[RequestRecord, ...]:
        """Only the records whose transaction completed."""
        return tuple(r for r in self._records if r.completed)

    def contention_delays(self, port: int) -> List[int]:
        """Per-request contention delays (``gamma_i``) for ``port``."""
        return [r.contention_delay for r in self.for_port(port) if r.completed]

    def injection_times(self, port: int, kinds: Optional[Sequence[str]] = None) -> List[int]:
        """Injection times ``delta_i`` between consecutive requests of ``port``.

        The injection time of request ``r_i`` is the number of cycles between
        the completion of ``r_{i-1}`` (its data being sent back) and ``r_i``
        becoming ready, exactly as defined in Section 3.1 of the paper.  The
        first request of the port has no predecessor and is skipped.
        """
        records = [r for r in self.for_port(port, kinds) if r.completed]
        deltas: List[int] = []
        for previous, current in zip(records, records[1:]):
            deltas.append(current.ready_cycle - previous.complete_cycle)
        return deltas

    def count_by_kind(self) -> Dict[str, int]:
        """Number of records per request kind."""
        counts: Dict[str, int] = {}
        for record in self._records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def ports(self) -> Tuple[int, ...]:
        """Sorted tuple of ports that issued at least one request."""
        return tuple(sorted({r.port for r in self._records}))


def merge_traces(traces: Iterable[TraceRecorder]) -> TraceRecorder:
    """Merge several traces into a new recorder (records sorted by grant cycle)."""
    merged = TraceRecorder(enabled=True)
    all_records: List[RequestRecord] = []
    for trace in traces:
        all_records.extend(trace.records)
    all_records.sort(key=lambda r: (r.grant_cycle, r.ready_cycle, r.port))
    for record in all_records:
        merged.record(record)
    return merged
