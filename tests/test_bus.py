"""Unit tests for the shared bus: posting, arbitration, delivery, tracing."""

from __future__ import annotations

from typing import List

import pytest

from repro.errors import SimulationError
from repro.sim.arbiter import FifoArbiter, RoundRobinArbiter, TdmaArbiter
from repro.sim.bus import Bus, BusRequest
from repro.sim.pmc import PerformanceCounters
from repro.sim.resource import NO_EVENT
from repro.sim.request_trace import TraceRecorder


def make_bus(num_ports: int = 3, service: int = 5, arbiter=None, trace=None, pmc=None) -> Bus:
    if arbiter is None:
        arbiter = RoundRobinArbiter(num_ports)
    return Bus(
        num_ports=num_ports,
        arbiter=arbiter,
        service_callback=lambda request, cycle: service,
        trace=trace,
        pmc=pmc,
    )


def make_request(port: int, ready: int, completions: List = None, kind: str = "load") -> BusRequest:
    def on_complete(request, cycle):
        if completions is not None:
            completions.append((request.port, cycle))

    return BusRequest(port=port, kind=kind, addr=0x100 * (port + 1), ready_cycle=ready,
                      on_complete=on_complete)


class TestPostingAndGranting:
    def test_request_granted_when_bus_free(self):
        bus = make_bus()
        request = make_request(0, ready=0)
        bus.post(request)
        granted = bus.arbitrate(0)
        assert granted is request
        assert request.grant_cycle == 0
        assert request.service_cycles == 5

    def test_request_not_granted_before_ready(self):
        bus = make_bus()
        bus.post(make_request(0, ready=10))
        assert bus.arbitrate(5) is None

    def test_invalid_port_rejected(self):
        bus = make_bus(num_ports=2)
        with pytest.raises(SimulationError):
            bus.post(make_request(5, ready=0))

    def test_only_one_grant_while_busy(self):
        bus = make_bus()
        bus.post(make_request(0, ready=0))
        bus.post(make_request(1, ready=0))
        assert bus.arbitrate(0) is not None
        assert bus.arbitrate(1) is None

    def test_busy_until_reflects_service(self):
        bus = make_bus(service=7)
        bus.post(make_request(0, ready=0))
        bus.arbitrate(0)
        assert bus.busy_until == 7
        assert bus.is_busy_at(6)
        assert not bus.is_busy_at(7)

    def test_non_positive_service_rejected(self):
        bus = Bus(2, RoundRobinArbiter(2), service_callback=lambda r, c: 0)
        bus.post(BusRequest(port=0, kind="load", addr=0, ready_cycle=0))
        with pytest.raises(SimulationError):
            bus.arbitrate(0)

    def test_mismatched_arbiter_port_count_rejected(self):
        with pytest.raises(SimulationError):
            Bus(3, RoundRobinArbiter(2), service_callback=lambda r, c: 1)


class TestDelivery:
    def test_completion_callback_fires_at_busy_until(self):
        completions = []
        bus = make_bus(service=4)
        bus.post(make_request(0, ready=0, completions=completions))
        bus.arbitrate(0)
        bus.deliver(3)
        assert completions == []
        bus.deliver(4)
        assert completions == [(0, 4)]

    def test_deliver_is_idempotent(self):
        completions = []
        bus = make_bus(service=2)
        bus.post(make_request(0, ready=0, completions=completions))
        bus.arbitrate(0)
        bus.deliver(2)
        bus.deliver(3)
        assert completions == [(0, 2)]

    def test_bus_free_for_arbitration_after_delivery(self):
        bus = make_bus(service=2)
        bus.post(make_request(0, ready=0))
        bus.post(make_request(1, ready=0))
        bus.arbitrate(0)
        bus.deliver(2)
        granted = bus.arbitrate(2)
        assert granted is not None and granted.port == 1


class TestRoundRobinTiming:
    def test_contention_delay_of_lowest_priority_request(self):
        """A request posted while all others are pending waits (Nc-1)*lbus."""
        lbus = 5
        completions = []
        bus = make_bus(num_ports=4, service=lbus)
        # Port 3 was granted most recently.
        bus.arbiter.notify_grant(0, 3)
        for port in range(4):
            bus.post(make_request(port, ready=0, completions=completions))
        cycle = 0
        grants = []
        while len(grants) < 4:
            bus.deliver(cycle)
            granted = bus.arbitrate(cycle)
            if granted is not None:
                grants.append((granted.port, granted.grant_cycle))
            cycle += 1
        assert grants == [(0, 0), (1, 5), (2, 10), (3, 15)]
        # Port 3 suffered exactly ubd = 3 * lbus.
        assert grants[-1][1] - 0 == 3 * lbus

    def test_work_conservation_skips_empty_ports(self):
        bus = make_bus(num_ports=4, service=2)
        bus.arbiter.notify_grant(0, 0)
        bus.post(make_request(0, ready=0))
        granted = bus.arbitrate(0)
        assert granted.port == 0


class TestContendersSnapshot:
    def test_contenders_counted_at_post(self):
        trace = TraceRecorder(enabled=True)
        bus = make_bus(num_ports=4, trace=trace)
        bus.post(make_request(1, ready=0))
        bus.post(make_request(2, ready=0))
        observed = make_request(0, ready=0)
        bus.post(observed)
        assert observed.record.contenders_at_ready == 2

    def test_in_service_request_counts_as_contender(self):
        trace = TraceRecorder(enabled=True)
        bus = make_bus(num_ports=4, trace=trace, service=10)
        bus.post(make_request(1, ready=0))
        bus.arbitrate(0)  # port 1 now occupies the bus, queue empty
        observed = make_request(0, ready=1)
        bus.post(observed)
        assert observed.record.contenders_at_ready == 1
        assert observed.record.bus_busy_at_ready

    def test_own_queue_not_counted(self):
        trace = TraceRecorder(enabled=True)
        bus = make_bus(num_ports=4, trace=trace)
        bus.post(make_request(0, ready=0))
        second = make_request(0, ready=1)
        bus.post(second)
        assert second.record.contenders_at_ready == 0


class TestTraceAndPmcIntegration:
    def test_trace_records_full_lifecycle(self):
        trace = TraceRecorder(enabled=True)
        bus = make_bus(service=3, trace=trace)
        bus.post(make_request(0, ready=2))
        bus.arbitrate(2)
        bus.deliver(5)
        assert len(trace) == 1
        record = trace.records[0]
        assert record.ready_cycle == 2
        assert record.grant_cycle == 2
        assert record.complete_cycle == 5
        assert record.service_cycles == 3
        assert record.contention_delay == 0

    def test_pmc_accumulates_busy_and_wait_cycles(self):
        pmc = PerformanceCounters(num_cores=2)
        bus = make_bus(num_ports=2, service=4, pmc=pmc)
        bus.post(make_request(0, ready=0))
        bus.post(make_request(1, ready=0))
        cycle = 0
        while pmc.total_requests() < 2:
            bus.deliver(cycle)
            bus.arbitrate(cycle)
            cycle += 1
        assert pmc.bus_busy_cycles == 8
        assert pmc.core[0].bus_requests == 1
        assert pmc.core[1].contention_cycles == 4


class TestNextActivityAndReset:
    def test_next_event_cycle_while_busy(self):
        bus = make_bus(service=6)
        bus.post(make_request(0, ready=0))
        bus.arbitrate(0)
        assert bus.next_event_cycle(1) == 6

    def test_next_event_cycle_with_future_request(self):
        bus = make_bus()
        bus.post(make_request(0, ready=9))
        assert bus.next_event_cycle(2) == 9

    def test_next_event_cycle_idle(self):
        # Horizon contract (DESIGN.md 5.1): integer cycles only; "no event"
        # is the NO_EVENT sentinel, never float('inf').
        assert make_bus().next_event_cycle(0) == NO_EVENT

    def test_next_event_cycle_respects_tdma_schedule(self):
        arbiter = TdmaArbiter(2, slot_cycles=4)
        bus = make_bus(num_ports=2, arbiter=arbiter)
        bus.post(make_request(1, ready=1))
        assert bus.next_event_cycle(1) == 4

    def test_fifo_bus_grants_by_readiness(self):
        bus = make_bus(num_ports=3, arbiter=FifoArbiter(3))
        bus.post(make_request(2, ready=0))
        bus.post(make_request(0, ready=3))
        granted = bus.arbitrate(3)
        assert granted.port == 2

    def test_reset_clears_queues_and_state(self):
        bus = make_bus()
        bus.post(make_request(0, ready=0))
        bus.arbitrate(0)
        bus.reset()
        assert not bus.has_pending()
        assert bus.current_request is None
        assert bus.granted_count == 0
