"""Memory controllers between the shared L2 and the DRAM.

L2 load misses and write-through traffic that misses the L2 are handed to the
memory controller.  Reads are tracked until their DRAM access completes and a
completion callback fires (the system then posts the split-transaction
response on the bus); writes are fire-and-forget from the core's point of
view but still occupy the target DRAM bank, so heavy write traffic delays
subsequent reads, as on the real platform.

Two controllers subclass :class:`repro.sim.resource.SharedResource`:

* :class:`MemoryController` — the paper's platform (topology ``bus_only``):
  an access is scheduled on its DRAM bank the moment it arrives, so the only
  queueing is the bank's busy window (implicit FIFO by arrival order).  Its
  ``arbitrate`` phase is a no-op; it is not a *visible* contention point.
* :class:`BankQueuedMemoryController` — topology ``bus_bank_queues``: every
  arriving access first enters a per-bank, per-port queue, and a per-bank
  :class:`~repro.sim.arbiter.Arbiter` grants one queued request when its
  bank is free.  The memory controller becomes a second first-class
  contention point behind the bus, with its own arbitration policy, PMC
  surface (queue-wait statistics) and event horizon.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from ..config import DramConfig
from ..errors import ConfigurationError, SimulationError
from .arbiter import create_arbiter
from .dram import Dram
from .request_trace import RequestRecord
from .resource import NO_EVENT, SharedResource
from .steady import AdditiveCounters, Counts, Key, pending, shifted

#: Completion callback signature: (pending_read, cycle) -> None.
ReadCallback = Callable[["PendingRead", int], None]


@dataclass
class PendingRead:
    """A read request travelling through the memory controller.

    ``record`` carries the originating bus transaction's trace record, if
    tracing is on: the controller stamps its memory-stage timing
    (enqueue/grant/DRAM completion) into it, and the system later adds the
    response-channel timing, which is what the per-resource latency
    decomposition of :mod:`repro.analysis.contention` reads.
    """

    core_id: int
    addr: int
    enqueue_cycle: int
    complete_cycle: int = -1
    kind: str = "load"
    record: Optional[RequestRecord] = None

    def normalised(self, cycle: int) -> Tuple:
        """The read relative to ``cycle`` (``complete_cycle`` may be -1)."""
        return (
            self.core_id,
            self.addr,
            self.enqueue_cycle - cycle,
            pending(self.complete_cycle, cycle),
            self.kind,
        )

    def shift(self, cycles: int) -> None:
        """Move the read ``cycles`` cycles on."""
        self.enqueue_cycle += cycles
        self.complete_cycle = shifted(self.complete_cycle, cycles)


@dataclass
class MemCtrlStats(AdditiveCounters):
    """Counters for the memory controller (its PMC surface).

    The queue counters stay zero on the plain controller — only the
    bank-queued controller makes requests wait before their DRAM access.
    """

    reads: int = 0
    writes: int = 0
    total_read_latency: int = 0
    queue_grants: int = 0
    total_queue_wait: int = 0
    max_queue_wait: int = 0

    @property
    def average_read_latency(self) -> float:
        """Mean cycles between enqueue and completion of reads."""
        if self.reads == 0:
            return 0.0
        return self.total_read_latency / self.reads

    @property
    def average_queue_wait(self) -> float:
        """Mean cycles a granted access waited in its bank queue."""
        if self.queue_grants == 0:
            return 0.0
        return self.total_queue_wait / self.queue_grants

    def as_dict(self) -> dict:
        """Flat dictionary view (the memory stage's PMC section, as read by
        the measured-bound pipeline and embedded in reports)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "total_read_latency": self.total_read_latency,
            "queue_grants": self.queue_grants,
            "total_queue_wait": self.total_queue_wait,
            "max_queue_wait": self.max_queue_wait,
        }


class MemoryController(SharedResource):
    """FIFO memory controller with bank-aware DRAM timing.

    Args:
        dram_config: DRAM timing parameters.
        read_callback: invoked when a read's data is available; the system
            uses it to post the response transfer on the bus.
    """

    resource_name = "memctrl"

    def __init__(
        self, dram_config: DramConfig, read_callback: Optional[ReadCallback] = None
    ) -> None:
        super().__init__()
        self.dram = Dram(dram_config)
        self.read_callback = read_callback
        self.stats = MemCtrlStats()
        # Min-heap of (complete_cycle, sequence, PendingRead) awaiting delivery.
        self._in_flight: List[Tuple[int, int, PendingRead]] = []
        self._sequence = 0

    # ------------------------------------------------------------------ #
    # Request entry points (called by the memory subsystem).
    # ------------------------------------------------------------------ #
    def enqueue_read(
        self,
        core_id: int,
        addr: int,
        cycle: int,
        kind: str = "load",
        record: Optional[RequestRecord] = None,
    ) -> PendingRead:
        """Schedule a read; its completion fires ``read_callback`` later."""
        access = self.dram.access(addr, cycle, is_write=False)
        pending = PendingRead(
            core_id=core_id,
            addr=addr,
            enqueue_cycle=cycle,
            complete_cycle=access.complete_cycle,
            kind=kind,
            record=record,
        )
        if record is not None:
            # Arrival scheduling: the "grant" is the DRAM issue (the bank's
            # implicit FIFO may still delay it past the enqueue cycle).
            record.mem_ready_cycle = cycle
            record.mem_grant_cycle = access.issue_cycle
            record.mem_complete_cycle = access.complete_cycle
        self.stats.reads += 1
        self.stats.total_read_latency += access.complete_cycle - cycle
        heapq.heappush(self._in_flight, (access.complete_cycle, self._sequence, pending))
        self._sequence += 1
        self._horizon_dirty = True
        return pending

    def enqueue_write(
        self,
        addr: int,
        cycle: int,
        core_id: int = 0,
        record: Optional[RequestRecord] = None,
    ) -> int:
        """Schedule a write; returns its completion cycle (no callback fires).

        ``core_id`` identifies the originating core; the plain controller
        ignores it, the bank-queued controller uses it as the queue port.
        """
        del core_id
        access = self.dram.access(addr, cycle, is_write=True)
        if record is not None:
            record.mem_ready_cycle = cycle
            record.mem_grant_cycle = access.issue_cycle
            record.mem_complete_cycle = access.complete_cycle
        self.stats.writes += 1
        return access.complete_cycle

    # ------------------------------------------------------------------ #
    # Per-cycle phases.
    # ------------------------------------------------------------------ #
    def deliver(self, cycle: int) -> None:
        """Deliver every read whose DRAM access has completed by ``cycle``.

        Deliveries hand the data to the system's read callback (which posts
        the response transfer on a bus channel); no core is woken directly,
        so ``wake_targets`` stays empty.
        """
        while self._in_flight and self._in_flight[0][0] <= cycle:
            _, _, pending = heapq.heappop(self._in_flight)
            self._horizon_dirty = True
            if self.read_callback is None:
                raise SimulationError(
                    "memory controller completed a read but no callback is attached"
                )
            self.read_callback(pending, cycle)

    def arbitrate(self, cycle: int) -> None:
        """Grant queued accesses to free banks; a no-op without bank queues."""
        del cycle

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest future cycle at which a read completion must be delivered.

        This is the controller's horizon contribution to the event-driven
        scheduler (see :mod:`repro.sim.scheduler`).  Only read completions
        are events here: writes are fire-and-forget and bank release times
        matter only when the *next* access arrives, which is always triggered
        by a bus delivery the scheduler already visits.  (The bank-queued
        subclass additionally reports grant opportunities.)
        """
        del cycle
        if not self._in_flight:
            return NO_EVENT
        return self._in_flight[0][0]

    @property
    def outstanding_reads(self) -> int:
        """Number of reads still waiting for DRAM data."""
        return len(self._in_flight)

    # ------------------------------------------------------------------ #
    # Steady-state key/advance pair (see repro.sim.steady).
    # ------------------------------------------------------------------ #
    def steady_key(self, cycle: int) -> Key:
        """In-flight reads in delivery order (the heap's sequence numbers
        only break ties, so their order stands in for them), the DRAM."""
        dram_state, dram_counts = self.dram.steady_key(cycle)
        reads = tuple(read.normalised(cycle) for _, _, read in sorted(self._in_flight))
        return (reads, dram_state), (self._sequence, self.stats.steady_key()[1], dram_counts)

    def steady_advance(self, shift: int, periods: int, before: Counts, after: Counts) -> None:
        sequence = periods * (after[0] - before[0])
        for _, _, read in self._in_flight:
            read.shift(shift)
        # A uniform shift keeps the heap a heap (the list object stays).
        self._in_flight[:] = [
            (complete + shift, order + sequence, read) for complete, order, read in self._in_flight
        ]
        self._sequence += sequence
        self.stats.steady_advance(shift, periods, before[1], after[1])
        self.dram.steady_advance(shift, periods, before[2], after[2])
        self.invalidate_horizon()

    def reset(self) -> None:
        """Drop in-flight requests and reset the DRAM row state."""
        self._in_flight.clear()
        self.dram.reset()
        super().reset()


class _QueuedAccess:
    """One access waiting in a bank queue (``__slots__``: queues run hot)."""

    __slots__ = ("core_id", "addr", "ready_cycle", "is_write", "kind", "pending", "record")

    def __init__(
        self,
        core_id: int,
        addr: int,
        ready_cycle: int,
        is_write: bool,
        kind: str,
        pending: Optional[PendingRead] = None,
        record: Optional[RequestRecord] = None,
    ) -> None:
        self.core_id = core_id
        self.addr = addr
        self.ready_cycle = ready_cycle
        self.is_write = is_write
        self.kind = kind
        self.pending = pending
        self.record = record

    def normalised(self, cycle: int) -> Tuple:
        return (
            self.core_id,
            self.addr,
            self.ready_cycle - cycle,
            self.is_write,
            self.kind,
            None if self.pending is None else self.pending.normalised(cycle),
        )


class BankQueuedMemoryController(MemoryController):
    """Memory controller whose per-bank queues are arbitrated contention points.

    Every arriving access (read or write-through) enters the queue of its
    DRAM bank on the port of its originating core.  Once per cycle — in the
    arbitrate phase, after the bus — each *free* bank asks its own arbiter to
    pick among the ports with a pending access and starts the winner's DRAM
    access.  With FIFO bank arbitration this reproduces the plain
    controller's timing exactly (arrival order is service order, ≤ one
    memory-bound completion per cycle feeds the queues); round-robin, fixed
    priority or TDMA bank policies reorder the service and make the memory
    stage a genuinely different contention point.

    Args:
        dram_config: DRAM timing parameters.
        read_callback: as for :class:`MemoryController`.
        num_ports: queue ports per bank (one per core).
        arbitration: registered arbiter policy for every bank queue.
        tdma_slot: slot length when ``arbitration`` is ``"tdma"``.
    """

    resource_name = "memqueue"

    def __init__(
        self,
        dram_config: DramConfig,
        read_callback: Optional[ReadCallback] = None,
        num_ports: int = 1,
        arbitration: str = "fifo",
        tdma_slot: int = 40,
    ) -> None:
        super().__init__(dram_config, read_callback=read_callback)
        if num_ports < 1:
            raise ConfigurationError("bank queues need at least one port")
        self.num_ports = num_ports
        self.arbitration = arbitration
        self.bank_arbiters = [
            create_arbiter(arbitration, num_ports, tdma_slot=tdma_slot)
            for _ in range(dram_config.num_banks)
        ]
        self._bank_queues: List[List[Deque[_QueuedAccess]]] = [
            [deque() for _ in range(num_ports)]
            for _ in range(dram_config.num_banks)
        ]
        #: Queued (not yet granted) accesses across all banks; lets the event
        #: engine skip the arbitrate phase and horizon scan when idle.
        self._queued_total = 0
        #: Queued reads awaiting their bank grant (subset of the above),
        #: so ``outstanding_reads`` keeps the base-class meaning: reads that
        #: entered the controller and have not been delivered yet.
        self._queued_reads = 0

    # ------------------------------------------------------------------ #
    # Request entry points: enqueue instead of immediate DRAM access.
    # ------------------------------------------------------------------ #
    def _enqueue(self, access: _QueuedAccess) -> None:
        if not 0 <= access.core_id < self.num_ports:
            raise SimulationError(
                f"memory access from core {access.core_id} but the bank queues "
                f"have {self.num_ports} ports"
            )
        bank = self.dram.bank_of(access.addr)
        self._bank_queues[bank][access.core_id].append(access)
        self._queued_total += 1
        self._horizon_dirty = True
        if access.record is not None:
            access.record.mem_ready_cycle = access.ready_cycle

    def enqueue_read(
        self,
        core_id: int,
        addr: int,
        cycle: int,
        kind: str = "load",
        record: Optional[RequestRecord] = None,
    ) -> PendingRead:
        """Queue a read on its bank; the DRAM access starts at grant time.

        The returned :class:`PendingRead` is the same object later handed to
        ``read_callback`` (the base-class contract); its ``complete_cycle``
        stays ``-1`` until the bank arbiter grants the access and the DRAM
        timing is known.
        """
        pending = PendingRead(
            core_id=core_id, addr=addr, enqueue_cycle=cycle, kind=kind, record=record
        )
        self._enqueue(
            _QueuedAccess(
                core_id,
                addr,
                cycle,
                is_write=False,
                kind=kind,
                pending=pending,
                record=record,
            )
        )
        self._queued_reads += 1
        return pending

    def enqueue_write(
        self,
        addr: int,
        cycle: int,
        core_id: int = 0,
        record: Optional[RequestRecord] = None,
    ) -> int:
        """Queue a write on its bank; returns ``-1`` (completion is at grant)."""
        self._enqueue(
            _QueuedAccess(core_id, addr, cycle, is_write=True, kind="store", record=record)
        )
        return -1

    # ------------------------------------------------------------------ #
    # Arbitration phase.
    # ------------------------------------------------------------------ #
    def arbitrate(self, cycle: int) -> None:
        """Grant at most one queued access per *free* bank at ``cycle``."""
        if self._queued_total == 0:
            return
        for bank_index, queues in enumerate(self._bank_queues):
            if self.dram.bank_busy_until(bank_index) > cycle:
                continue
            arbiter = self.bank_arbiters[bank_index]
            winner = arbiter.pick(queues, cycle)
            if winner < 0:
                continue  # no ready head, or TDMA: no eligible slot owner
            access = queues[winner].popleft()
            self._queued_total -= 1
            self._horizon_dirty = True
            arbiter.notify_grant(cycle, winner)
            self._grant(access, cycle)

    def _grant(self, access: _QueuedAccess, cycle: int) -> None:
        wait = cycle - access.ready_cycle
        self.stats.queue_grants += 1
        self.stats.total_queue_wait += wait
        if wait > self.stats.max_queue_wait:
            self.stats.max_queue_wait = wait
        result = self.dram.access(access.addr, cycle, is_write=access.is_write)
        if access.record is not None:
            access.record.mem_grant_cycle = cycle
            access.record.mem_complete_cycle = result.complete_cycle
        if access.is_write:
            self.stats.writes += 1
            return
        pending = access.pending
        if pending is None:  # pragma: no cover - reads always carry one
            raise SimulationError("granted a queued read without its PendingRead")
        pending.complete_cycle = result.complete_cycle
        self._queued_reads -= 1
        self.stats.reads += 1
        self.stats.total_read_latency += result.complete_cycle - access.ready_cycle
        heapq.heappush(self._in_flight, (result.complete_cycle, self._sequence, pending))
        self._sequence += 1

    # ------------------------------------------------------------------ #
    # Event horizon.
    # ------------------------------------------------------------------ #
    def grant_horizon(self, cycle: int) -> int:
        """Earliest future cycle at which any bank could grant a queued access.

        Mirrors :meth:`repro.sim.bus.Bus.next_event_cycle` on a free bus: per
        bank, the grant cannot happen before the bank is free, the head
        request is ready, and the bank's arbiter admits the port.  The bank's
        arbiter folds the heads from the later of ``cycle`` and the bank's
        release (:meth:`~repro.sim.arbiter.Arbiter.earliest_grant`, which
        adds slot constraints for TDMA).
        """
        if self._queued_total == 0:
            return NO_EVENT
        horizon = NO_EVENT
        for bank_index, queues in enumerate(self._bank_queues):
            bank_free = self.dram.bank_busy_until(bank_index)
            grant = self.bank_arbiters[bank_index].earliest_grant(
                queues, bank_free if bank_free > cycle else cycle
            )
            if grant < horizon:
                horizon = grant
        return horizon

    def next_event_cycle(self, cycle: int) -> int:
        """Min over read completions (base class) and bank-grant opportunities."""
        horizon = MemoryController.next_event_cycle(self, cycle)
        grant = self.grant_horizon(cycle)
        return grant if grant < horizon else horizon

    def steady_key(self, cycle: int) -> Key:
        """The base key plus every bank queue and bank arbiter."""
        state, counts = MemoryController.steady_key(self, cycle)
        queues = tuple(
            tuple(tuple(access.normalised(cycle) for access in queue) for queue in bank)
            for bank in self._bank_queues
        )
        arbiters = tuple(arbiter.steady_key(cycle) for arbiter in self.bank_arbiters)
        return (state, queues, arbiters), counts

    def steady_advance(self, shift: int, periods: int, before: Counts, after: Counts) -> None:
        MemoryController.steady_advance(self, shift, periods, before, after)
        for bank in self._bank_queues:
            for queue in bank:
                for access in queue:
                    access.ready_cycle += shift
                    if access.pending is not None:
                        access.pending.shift(shift)

    @property
    def queued_accesses(self) -> int:
        """Accesses waiting in bank queues (not yet granted to the DRAM)."""
        return self._queued_total

    @property
    def outstanding_reads(self) -> int:
        """Reads not yet delivered: waiting in a bank queue or in flight."""
        return self._queued_reads + len(self._in_flight)

    def reset(self) -> None:
        """Drop queued and in-flight requests; reset banks and bank arbiters."""
        super().reset()
        for queues in self._bank_queues:
            for queue in queues:
                queue.clear()
        self._queued_total = 0
        self._queued_reads = 0
        for arbiter in self.bank_arbiters:
            arbiter.reset()
