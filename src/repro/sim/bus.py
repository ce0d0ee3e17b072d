"""Shared processor-to-L2 bus with pluggable arbitration.

The bus owns request queues (one per port), the arbitration timing and the
occupancy bookkeeping.  What a granted transaction *does* — looking up the
L2, scheduling a DRAM access, waking a core — is decided by the memory
subsystem through two callbacks supplied by :class:`repro.sim.system.System`:

* ``service_callback(request, cycle)`` is invoked at grant time and must
  return the bus occupancy in cycles for this transaction;
* ``request.on_complete(request, cycle)`` is invoked when the occupancy ends
  and the data is usable by the owner.

Each simulation cycle has two bus phases, called by the system in this order:

1. :meth:`Bus.deliver` — finish a transaction whose occupancy ends now, so
   the owning core can already use the data in this cycle;
2. :meth:`Bus.arbitrate` — after all cores have ticked (and possibly posted
   new requests ready in this very cycle), grant the bus if it is free.

This ordering realises the timing semantics of DESIGN.md Section 5 and is
what produces the synchrony effect the paper studies.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from ..errors import SimulationError
from .arbiter import Arbiter
from .pmc import PerformanceCounters, ResourceCounters
from .request_trace import RequestRecord, TraceRecorder
from .resource import NO_EVENT, SharedResource

#: Signature of the grant-time callback: (request, cycle) -> bus occupancy.
ServiceCallback = Callable[["BusRequest", int], int]
#: Signature of the completion callback: (request, cycle) -> None.
CompletionCallback = Callable[["BusRequest", int], None]


class BusRequest:
    """One bus transaction from readiness to completion.

    A ``__slots__`` class rather than a dataclass: request objects are
    created for every memory access of a simulation, so construction cost
    matters.

    Attributes:
        port: issuing port (core id, or the response port for memory data).
        kind: ``"load"``, ``"store"``, ``"ifetch"`` or ``"response"``.
        addr: target byte address.
        ready_cycle: first cycle at which the arbiter may consider the request.
        origin_core: core the transaction ultimately belongs to (equals
            ``port`` except for split-transaction responses).
        on_complete: callback invoked when the transaction finishes.
        service_cycles: bus occupancy, filled in at grant time.
        record: the trace record attached to this request, if tracing is on.
    """

    __slots__ = (
        "port",
        "kind",
        "addr",
        "ready_cycle",
        "origin_core",
        "on_complete",
        "service_cycles",
        "grant_cycle",
        "complete_cycle",
        "record",
    )

    def __init__(
        self,
        port: int,
        kind: str,
        addr: int,
        ready_cycle: int,
        origin_core: int = -1,
        on_complete: Optional[CompletionCallback] = None,
        service_cycles: int = 0,
        grant_cycle: int = -1,
        complete_cycle: int = -1,
        record: Optional[RequestRecord] = None,
    ) -> None:
        self.port = port
        self.kind = kind
        self.addr = addr
        self.ready_cycle = ready_cycle
        self.origin_core = origin_core if origin_core >= 0 else port
        self.on_complete = on_complete
        self.service_cycles = service_cycles
        self.grant_cycle = grant_cycle
        self.complete_cycle = complete_cycle
        self.record = record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BusRequest(port={self.port}, kind={self.kind!r}, addr={self.addr:#x}, "
            f"ready_cycle={self.ready_cycle}, grant_cycle={self.grant_cycle}, "
            f"complete_cycle={self.complete_cycle})"
        )

    @property
    def granted(self) -> bool:
        """True once the arbiter has granted this request."""
        return self.grant_cycle >= 0


class Bus(SharedResource):
    """A shared bus channel: per-port queues, one transaction in flight.

    The bus is the first :class:`repro.sim.resource.SharedResource` of every
    topology: it implements the deliver/arbitrate lifecycle, the horizon
    computation and wake targets of the event-port surface, and the PMC
    surface (a per-channel section of the attached counter block).  A
    topology may instantiate it more than once — the ``split_bus`` topology
    composes a request channel and a response channel, distinguished by
    ``resource_name``.
    """

    def __init__(
        self,
        num_ports: int,
        arbiter: Arbiter,
        service_callback: ServiceCallback,
        trace: Optional[TraceRecorder] = None,
        pmc: Optional[PerformanceCounters] = None,
        resource_name: str = "bus",
    ) -> None:
        super().__init__()
        if num_ports < 1:
            raise SimulationError("bus needs at least one port")
        if arbiter.num_ports != num_ports:
            raise SimulationError(
                f"arbiter built for {arbiter.num_ports} ports attached to a "
                f"{num_ports}-port bus"
            )
        self.resource_name = resource_name
        self.num_ports = num_ports
        self.arbiter = arbiter
        self.service_callback = service_callback
        self.trace = trace
        self.pmc = pmc
        self._queues: List[Deque[BusRequest]] = [deque() for _ in range(num_ports)]
        self._current: Optional[BusRequest] = None
        self._busy_until = 0
        #: Number of queued (not yet granted) requests across all ports; a
        #: cheap counter so the per-cycle arbitration fast path avoids
        #: scanning the queues when nothing is pending.
        self._queued_total = 0
        #: Number of ports whose queue is currently non-empty, maintained by
        #: :meth:`post` / :meth:`_grant_port` so the traced-post contention
        #: snapshot is O(1) instead of a per-post scan over all queues.
        self._nonempty_ports = 0
        #: Lazily cached PMC section for this channel (see :meth:`deliver`).
        self._pmc_channel: Optional[ResourceCounters] = None
        self._is_demand_channel = resource_name == "bus"
        self.granted_count = 0

    # ------------------------------------------------------------------ #
    # Posting requests.
    # ------------------------------------------------------------------ #
    def post(self, request: BusRequest) -> None:
        """Queue ``request`` on its port and snapshot contention information."""
        port = request.port
        if not 0 <= port < self.num_ports:
            raise SimulationError(f"request posted on invalid port {port}")
        queue = self._queues[port]
        trace = self.trace
        if trace is not None and trace.enabled:
            # The contention snapshot comes from the maintained non-empty
            # port count, so traced posting stays O(1) (posting is hot).
            contenders = self._nonempty_ports - (1 if queue else 0)
            current = self._current
            if current is not None and current.port != port:
                # A transaction currently holding the bus is also a ready
                # contender from the point of view of the request being posted.
                contenders += 1
            # Positional form of RequestRecord(port, kind, addr, ready_cycle,
            # grant_cycle, complete_cycle, service_cycles, contenders_at_ready,
            # bus_busy_at_ready, resource, origin_core): posting is the
            # hottest traced path and keyword marshalling is measurable here.
            request.record = RequestRecord(
                port,
                request.kind,
                request.addr,
                request.ready_cycle,
                -1,
                -1,
                0,
                contenders,
                current is not None and request.ready_cycle < self._busy_until,
                self.resource_name,
                request.origin_core,
            )
            # Recorded at post time so requests still in flight when the run
            # terminates remain visible; completion fills in the remaining
            # fields in place.
            trace.record(request.record)
        if not queue:
            self._nonempty_ports += 1
        queue.append(request)
        self._queued_total += 1
        # A post can only create an earlier event on a *free* channel: while
        # a transaction is in flight the horizon is its delivery at
        # busy_until regardless of the queues, so the cache stays valid (the
        # delivery itself re-invalidates, and the recompute sees the queue).
        if self._current is None:
            self._horizon_dirty = True

    def has_pending(self) -> bool:
        """True if any port has a queued request."""
        return any(self._queues)

    def is_busy_at(self, cycle: int) -> bool:
        """True if a transaction occupies the bus during ``cycle``."""
        return self._current is not None and cycle < self._busy_until

    @property
    def busy_until(self) -> int:
        """First cycle at which the bus will be free again."""
        return self._busy_until if self._current is not None else 0

    @property
    def current_request(self) -> Optional[BusRequest]:
        """The transaction currently occupying the bus, if any."""
        return self._current

    # ------------------------------------------------------------------ #
    # Per-cycle phases.
    # ------------------------------------------------------------------ #
    def deliver(self, cycle: int) -> Optional[BusRequest]:
        """Phase 1: finish the in-flight transaction if its occupancy ends now.

        Returns the completed request, or ``None`` when nothing completed.
        The completed transaction's owning core is published through
        ``wake_targets`` (reset on every call), which is how the event
        engine learns which cores a delivery may have woken without
        interpreting the request itself.
        """
        wake = self.wake_targets
        if wake:
            wake.clear()
        if self._current is None or cycle < self._busy_until:
            return None
        request = self._current
        self._current = None
        self._horizon_dirty = True
        request.complete_cycle = cycle
        if request.record is not None:
            request.record.complete_cycle = cycle
        pmc = self.pmc
        if pmc is not None:
            # Inline of PerformanceCounters.note_bus_service (kept in sync
            # with it) with the channel section cached after its lazy
            # creation: delivery runs once per transaction, and the method
            # call plus per-call dict lookup are measurable there.
            wait = request.grant_cycle - request.ready_cycle
            service = request.service_cycles
            channel = self._pmc_channel
            if channel is None:
                channel = pmc.resources.get(self.resource_name)
                if channel is None:
                    channel = pmc.resources[self.resource_name] = ResourceCounters()
                self._pmc_channel = channel
            if self._is_demand_channel:
                pmc.bus_busy_cycles += service
            channel.requests += 1
            channel.busy_cycles += service
            channel.wait_cycles += wait
            if wait > channel.max_wait:
                channel.max_wait = wait
            origin = request.origin_core
            if 0 <= origin < pmc.num_cores:
                counters = pmc.core[origin]
                counters.bus_requests += 1
                counters.bus_busy_cycles += service
                counters.contention_cycles += wait
        wake.append(request.origin_core)
        if request.on_complete is not None:
            request.on_complete(request, cycle)
        return request

    def arbitrate(self, cycle: int) -> Optional[BusRequest]:
        """Phase 2: grant one pending request if the bus is free.

        Returns the granted request, or ``None`` when nothing was granted
        (bus busy, no ready request, or a TDMA slot mismatch).
        """
        if self._current is not None or self._queued_total == 0:
            return None
        pending_ports = [
            port
            for port, queue in enumerate(self._queues)
            if queue and queue[0].ready_cycle <= cycle
        ]
        if not pending_ports:
            return None
        ready_cycles = None
        if self.arbiter.uses_ready_order:
            ready_cycles = [self._queues[port][0].ready_cycle for port in pending_ports]
        winner = self.arbiter.choose(cycle, pending_ports, ready_cycles)
        if winner < 0:
            return None  # TDMA: no eligible slot owner this cycle
        return self._grant_port(winner, cycle)

    def _grant_port(self, port: int, cycle: int) -> BusRequest:
        """Grant the head request of ``port`` and start its occupancy.

        The winner-independent half of :meth:`arbitrate`: queue bookkeeping,
        occupancy timing, trace/PMC stamps and the arbiter grant notification.
        Shared with the generated loops of :mod:`repro.sim.codegen`, whose
        specialised selection logic picks ``port`` and then delegates here so
        the grant side effects cannot drift between engines.  ``port`` must
        hold a ready request on a free channel.
        """
        queue = self._queues[port]
        request = queue.popleft()
        if not queue:
            self._nonempty_ports -= 1
        self._queued_total -= 1
        self._horizon_dirty = True
        request.grant_cycle = cycle
        request.service_cycles = self.service_callback(request, cycle)
        if request.service_cycles < 1:
            raise SimulationError(
                f"service callback returned non-positive occupancy for {request.kind}"
            )
        self._busy_until = cycle + request.service_cycles
        self._current = request
        self.granted_count += 1
        if request.record is not None:
            request.record.grant_cycle = cycle
            request.record.service_cycles = request.service_cycles
        self.arbiter.notify_grant(cycle, port)
        return request

    # ------------------------------------------------------------------ #
    # Event-horizon support (see repro.sim.scheduler).
    # ------------------------------------------------------------------ #
    def next_event_cycle(self, cycle: int) -> int:
        """Earliest future cycle at which the bus state can change.

        While a transaction is in flight the next event is its delivery at
        ``busy_until``.  On a free bus, the next event is the earliest cycle
        at which a queued request both is ready and could win arbitration —
        the arbiter contributes the latter through
        :meth:`repro.sim.arbiter.Arbiter.next_event_cycle`, which lets
        schedule-driven policies (TDMA) push the horizon to their next slot.
        :data:`~repro.sim.resource.NO_EVENT` means the bus is idle with empty
        queues and will only move again when someone posts a request.
        """
        if self._current is not None:
            return self._busy_until
        if self._queued_total == 0:
            return NO_EVENT
        arbiter = self.arbiter
        horizon = NO_EVENT
        for port, queue in enumerate(self._queues):
            if not queue:
                continue
            ready = queue[0].ready_cycle
            if ready < cycle:
                ready = cycle
            grant = arbiter.next_event_cycle(ready, port)
            if grant < horizon:
                horizon = grant
        return horizon

    def reset(self) -> None:
        """Drop all queued requests and clear the in-flight transaction."""
        for queue in self._queues:
            queue.clear()
        self._current = None
        self._busy_until = 0
        self._queued_total = 0
        self.granted_count = 0
        self.arbiter.reset()
        super().reset()
