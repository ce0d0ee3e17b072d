"""Unit tests for the memory controller."""

from __future__ import annotations

import pytest

from repro.config import DramConfig
from repro.errors import SimulationError
from repro.sim.memctrl import MemoryController, PendingRead
from repro.sim.resource import NO_EVENT


class TestReads:
    def test_read_completion_fires_callback(self):
        completions = []
        controller = MemoryController(
            DramConfig(),
            read_callback=lambda pending, cycle: completions.append((pending.addr, cycle)),
        )
        pending = controller.enqueue_read(core_id=0, addr=0x100, cycle=0)
        assert controller.outstanding_reads == 1
        controller.deliver(pending.complete_cycle)
        assert completions == [(0x100, pending.complete_cycle)]
        assert controller.outstanding_reads == 0

    def test_callback_not_fired_early(self):
        completions = []
        controller = MemoryController(
            DramConfig(), read_callback=lambda pending, cycle: completions.append(cycle)
        )
        pending = controller.enqueue_read(core_id=0, addr=0x100, cycle=0)
        controller.deliver(pending.complete_cycle - 1)
        assert completions == []

    def test_reads_complete_in_time_order(self):
        order = []
        controller = MemoryController(
            DramConfig(num_banks=1), read_callback=lambda pending, cycle: order.append(pending.addr)
        )
        first = controller.enqueue_read(0, 0x000, cycle=0)
        second = controller.enqueue_read(0, 0x040, cycle=0)
        controller.deliver(max(first.complete_cycle, second.complete_cycle))
        assert order == [0x000, 0x040]

    def test_missing_callback_raises_on_completion(self):
        controller = MemoryController(DramConfig())
        pending = controller.enqueue_read(0, 0x100, cycle=0)
        with pytest.raises(SimulationError):
            controller.deliver(pending.complete_cycle)

    def test_pending_read_kind_is_preserved(self):
        controller = MemoryController(DramConfig(), read_callback=lambda p, c: None)
        pending = controller.enqueue_read(1, 0x200, cycle=0, kind="ifetch")
        assert pending.kind == "ifetch"
        assert pending.core_id == 1


class TestWrites:
    def test_write_returns_completion_cycle(self):
        controller = MemoryController(DramConfig(), read_callback=lambda p, c: None)
        done = controller.enqueue_write(0x100, cycle=0)
        assert done > 0
        assert controller.stats.writes == 1

    def test_write_occupies_bank_and_delays_read(self):
        controller = MemoryController(DramConfig(num_banks=1), read_callback=lambda p, c: None)
        write_done = controller.enqueue_write(0x000, cycle=0)
        read = controller.enqueue_read(0, 0x040, cycle=0)
        assert read.complete_cycle > write_done - 1


class TestBookkeeping:
    def test_next_event_cycle_is_earliest_completion(self):
        controller = MemoryController(DramConfig(), read_callback=lambda p, c: None)
        assert controller.next_event_cycle(0) == NO_EVENT
        pending = controller.enqueue_read(0, 0x100, cycle=0)
        assert controller.next_event_cycle(0) == pending.complete_cycle

    def test_average_read_latency(self):
        controller = MemoryController(DramConfig(), read_callback=lambda p, c: None)
        pending = controller.enqueue_read(0, 0x100, cycle=0)
        expected = pending.complete_cycle - 0
        assert controller.stats.average_read_latency == pytest.approx(expected)

    def test_average_read_latency_no_reads(self):
        controller = MemoryController(DramConfig(), read_callback=lambda p, c: None)
        assert controller.stats.average_read_latency == 0.0

    def test_reset_clears_in_flight(self):
        controller = MemoryController(DramConfig(), read_callback=lambda p, c: None)
        controller.enqueue_read(0, 0x100, cycle=0)
        controller.reset()
        assert controller.outstanding_reads == 0
        assert controller.next_event_cycle(0) == NO_EVENT
