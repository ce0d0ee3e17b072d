"""The event-port surface: cached horizons, invalidation rules, wake targets.

The event engines drive every resource through the horizon cache and
``wake_targets`` that :class:`repro.sim.resource.SharedResource` declares,
so the cache discipline — every mutation invalidates, a clean cache answers
without recomputation, a valid cache can never change the reported horizon —
is itself load-bearing simulator semantics and is pinned here at the unit
level (the engine-equivalence property tests pin it end to end).
"""

from __future__ import annotations

import pytest

from repro.config import DramConfig
from repro.sim.arbiter import RoundRobinArbiter
from repro.sim.bus import Bus, BusRequest
from repro.sim.memctrl import BankQueuedMemoryController, MemoryController
from repro.sim.resource import NO_EVENT, SharedResource


def make_bus(num_ports=3, occupancy=5):
    return Bus(
        num_ports=num_ports,
        arbiter=RoundRobinArbiter(num_ports),
        service_callback=lambda request, cycle: occupancy,
    )


def post(bus, port=0, ready=0, addr=0x100):
    request = BusRequest(port=port, kind="load", addr=addr, ready_cycle=ready)
    bus.post(request)
    return request


class TestSharedResourceBase:
    def test_horizon_caches_until_invalidated(self):
        class Counting(SharedResource):
            resource_name = "counting"

            def __init__(self):
                super().__init__()
                self.computes = 0

            def next_event_cycle(self, cycle):
                self.computes += 1
                return 42

        port = Counting()
        assert port.horizon(0) == 42
        assert port.horizon(0) == 42
        assert port.horizon(7) == 42
        assert port.computes == 1  # clean cache answers without recomputing
        port.invalidate_horizon()
        assert port.horizon(7) == 42
        assert port.computes == 2

    def test_next_event_cycle_is_abstract(self):
        port = SharedResource()
        with pytest.raises(NotImplementedError):
            port.horizon(0)

    def test_base_initialises_every_field_the_engines_read(self):
        """The event/codegen/replay loops read ``_horizon_dirty``,
        ``_horizon_cache`` and ``wake_targets`` directly, so a subclass
        must get them from the base class alone."""
        port = SharedResource()
        assert port._horizon_dirty is True
        assert port._horizon_cache == 0
        assert port.wake_targets == []
        port.wake_targets.append(3)
        port._horizon_dirty = False
        port.reset()
        assert port.wake_targets == []
        assert port._horizon_dirty is True


class TestBusHorizonCache:
    def test_idle_bus_reports_no_event(self):
        bus = make_bus()
        assert bus.horizon(0) == NO_EVENT

    def test_post_on_free_bus_invalidates(self):
        bus = make_bus()
        assert bus.horizon(0) == NO_EVENT  # warm the cache
        post(bus, ready=3)
        assert bus.horizon(0) == 3

    def test_post_on_busy_bus_keeps_the_cache_valid(self):
        """While a transaction is in flight the horizon is its delivery at
        busy_until no matter what the queues hold, so a post must *not*
        dirty the cache — this is what keeps the event engine at one
        arbitrate call per grant."""
        bus = make_bus(occupancy=5)
        post(bus, port=0, ready=0)
        bus.arbitrate(0)
        assert bus.horizon(0) == 5
        post(bus, port=1, ready=1)
        assert not bus._horizon_dirty
        assert bus.horizon(1) == 5
        # The delivery re-invalidates; the recompute then sees the queue.
        bus.deliver(5)
        assert bus.horizon(5) == 5  # port 1's request is ready and grantable

    def test_grant_invalidates_and_horizon_becomes_delivery(self):
        bus = make_bus(occupancy=7)
        post(bus, ready=0)
        assert bus.horizon(0) == 0
        bus.arbitrate(0)
        assert bus.horizon(0) == 7

    def test_deliver_publishes_wake_target_and_resets_it(self):
        woken = []
        bus = make_bus()
        request = BusRequest(
            port=1,
            kind="load",
            addr=0x40,
            ready_cycle=0,
            origin_core=1,
            on_complete=lambda req, cycle: woken.append((req.origin_core, cycle)),
        )
        bus.post(request)
        bus.arbitrate(0)
        assert bus.wake_targets == []
        bus.deliver(5)
        assert bus.wake_targets == [1]
        assert woken == [(1, 5)]
        # The next deliver call resets the surface.
        bus.deliver(6)
        assert bus.wake_targets == []

    def test_reset_restores_the_initial_port_state(self):
        bus = make_bus()
        post(bus, ready=0)
        bus.arbitrate(0)
        bus.deliver(5)
        bus.reset()
        assert bus.wake_targets == []
        assert bus.horizon(0) == NO_EVENT


class TestMemoryControllerHorizonCache:
    def test_enqueue_and_deliver_invalidate(self):
        controller = MemoryController(DramConfig(), read_callback=lambda pending, cycle: None)
        assert controller.horizon(0) == NO_EVENT
        pending = controller.enqueue_read(0, 0x100, cycle=0)
        assert controller.horizon(0) == pending.complete_cycle
        controller.deliver(pending.complete_cycle)
        assert controller.horizon(pending.complete_cycle) == NO_EVENT
        assert controller.wake_targets == []  # responses wake via the bus

    def test_bank_queue_enqueue_and_grant_invalidate(self):
        controller = BankQueuedMemoryController(
            DramConfig(num_banks=2),
            read_callback=lambda pending, cycle: None,
            num_ports=2,
        )
        assert controller.horizon(0) == NO_EVENT
        pending = controller.enqueue_read(0, 0x100, cycle=0)
        assert controller.horizon(0) == 0  # a free bank can grant now
        controller.arbitrate(0)
        assert controller.horizon(0) == pending.complete_cycle
