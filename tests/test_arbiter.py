"""Unit tests for the bus arbitration policies."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BusConfig
from repro.errors import ConfigurationError, SimulationError
from repro.sim.arbiter import (
    Arbiter,
    FifoArbiter,
    FixedPriorityArbiter,
    RoundRobinArbiter,
    TdmaArbiter,
    make_arbiter,
)
from repro.sim.resource import NO_EVENT

BUILT_IN_CLASSES = (RoundRobinArbiter, FifoArbiter, FixedPriorityArbiter, TdmaArbiter)


class TestRoundRobinArbiter:
    def test_initial_priority_order_starts_at_port_zero(self):
        arbiter = RoundRobinArbiter(4)
        assert arbiter.priority_order() == [0, 1, 2, 3]

    def test_priority_order_rotates_after_grant(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.notify_grant(0, 1)
        assert arbiter.priority_order() == [2, 3, 0, 1]

    def test_granted_port_becomes_lowest_priority(self):
        """Section 2: after c_i is granted, the order is c_{i+1}, ..., c_i."""
        arbiter = RoundRobinArbiter(4)
        arbiter.notify_grant(0, 2)
        assert arbiter.priority_order()[-1] == 2

    def test_select_picks_highest_priority_pending(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.notify_grant(0, 0)
        assert arbiter.select(1, [0, 2, 3]) == 2

    def test_select_skips_idle_ports(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.notify_grant(0, 0)
        assert arbiter.select(1, [0]) == 0

    def test_select_with_no_pending_raises(self):
        with pytest.raises(SimulationError):
            RoundRobinArbiter(2).select(0, [])

    def test_lowest_priority_waits_for_all_others(self):
        """A port that was just granted is served last among all-pending ports."""
        arbiter = RoundRobinArbiter(4)
        arbiter.notify_grant(0, 1)
        order = []
        pending = {0, 1, 2, 3}
        for _ in range(4):
            winner = arbiter.select(0, sorted(pending))
            order.append(winner)
            arbiter.notify_grant(0, winner)
            pending.discard(winner)
        assert order == [2, 3, 0, 1]

    def test_reset_restores_initial_owner(self):
        arbiter = RoundRobinArbiter(4, initial_owner=2)
        arbiter.notify_grant(0, 0)
        arbiter.reset()
        assert arbiter.last_granted == 2

    def test_invalid_initial_owner_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundRobinArbiter(2, initial_owner=5)

    def test_single_port(self):
        arbiter = RoundRobinArbiter(1)
        assert arbiter.select(0, [0]) == 0

    def test_zero_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundRobinArbiter(0)


class TestFifoArbiter:
    def test_select_with_ready_prefers_oldest(self):
        arbiter = FifoArbiter(3)
        winner = arbiter.select_with_ready(10, [0, 1, 2], [7, 3, 5])
        assert winner == 1

    def test_tie_broken_by_port_index(self):
        arbiter = FifoArbiter(3)
        winner = arbiter.select_with_ready(10, [2, 1], [4, 4])
        assert winner == 1

    def test_plain_select_falls_back_to_port_order(self):
        assert FifoArbiter(3).select(0, [2, 1]) == 1

    def test_empty_pending_raises(self):
        with pytest.raises(SimulationError):
            FifoArbiter(2).select_with_ready(0, [], [])


class TestFixedPriorityArbiter:
    def test_lower_port_wins_by_default(self):
        assert FixedPriorityArbiter(4).select(0, [3, 1, 2]) == 1

    def test_custom_priority_permutation(self):
        arbiter = FixedPriorityArbiter(3, priority=[2, 0, 1])
        assert arbiter.select(0, [0, 1, 2]) == 2

    def test_invalid_priority_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedPriorityArbiter(3, priority=[0, 0, 1])

    def test_empty_pending_raises(self):
        with pytest.raises(SimulationError):
            FixedPriorityArbiter(2).select(0, [])


class TestTdmaArbiter:
    def test_slot_owner_rotates(self):
        arbiter = TdmaArbiter(3, slot_cycles=5)
        assert arbiter.slot_owner(0) == 0
        assert arbiter.slot_owner(5) == 1
        assert arbiter.slot_owner(14) == 2
        assert arbiter.slot_owner(15) == 0

    def test_grant_only_at_slot_start(self):
        arbiter = TdmaArbiter(2, slot_cycles=4)
        assert arbiter.select(0, [0]) == 0
        assert arbiter.select(1, [0]) == -1

    def test_non_owner_never_granted_even_if_only_pending(self):
        """TDMA is not work conserving."""
        arbiter = TdmaArbiter(2, slot_cycles=4)
        assert arbiter.select(0, [1]) == -1

    def test_cycles_left_in_slot_counts_down_to_the_next_slot(self):
        arbiter = TdmaArbiter(2, slot_cycles=4)
        assert [arbiter.cycles_left_in_slot(c) for c in range(9)] == [4, 3, 2, 1, 4, 3, 2, 1, 4]

    def test_next_grant_opportunity(self):
        arbiter = TdmaArbiter(2, slot_cycles=4)
        assert arbiter.next_grant_opportunity(1, 0) == 8
        assert arbiter.next_grant_opportunity(0, 0) == 0
        assert arbiter.next_grant_opportunity(0, 1) == 4

    def test_zero_slot_rejected(self):
        with pytest.raises(ConfigurationError):
            TdmaArbiter(2, slot_cycles=0)


class TestMakeArbiter:
    @pytest.mark.parametrize(
        "policy, expected",
        [
            ("round_robin", RoundRobinArbiter),
            ("fifo", FifoArbiter),
            ("fixed_priority", FixedPriorityArbiter),
            ("tdma", TdmaArbiter),
        ],
    )
    def test_factory_builds_requested_policy(self, policy, expected):
        arbiter = make_arbiter(BusConfig(arbitration=policy), num_ports=4)
        assert isinstance(arbiter, expected)
        assert arbiter.num_ports == 4

    def test_tdma_slot_taken_from_config(self):
        arbiter = make_arbiter(BusConfig(arbitration="tdma", tdma_slot=12), num_ports=2)
        assert arbiter.slot_cycles == 12


# --------------------------------------------------------------------------- #
# The fused queue-head methods against the generic path.
# --------------------------------------------------------------------------- #


class _Head:
    """A queued request as the fused methods read it: its readiness cycle."""

    __slots__ = ("ready_cycle",)

    def __init__(self, ready_cycle: int) -> None:
        self.ready_cycle = ready_cycle


@st.composite
def _arbiter_queues_cycle(draw):
    """A built-in arbiter in a random state, per-port queues whose heads are
    ready before, at or after ``cycle`` (ties included), and ``cycle``;
    small slots and cycles put TDMA slot boundaries in most draws."""
    cls = draw(st.sampled_from(BUILT_IN_CLASSES))
    num_ports = draw(st.integers(1, 6))
    if cls is RoundRobinArbiter:
        arbiter = RoundRobinArbiter(num_ports, draw(st.integers(-1, num_ports - 1)))
    elif cls is FixedPriorityArbiter:
        arbiter = FixedPriorityArbiter(num_ports, draw(st.permutations(range(num_ports))))
    elif cls is TdmaArbiter:
        arbiter = TdmaArbiter(num_ports, draw(st.integers(1, 6)))
    else:
        arbiter = cls(num_ports)
    cycle = draw(st.integers(0, 60))
    queues = [
        deque(
            _Head(max(0, cycle + offset))
            for offset in draw(st.lists(st.integers(-6, 6), max_size=3))
        )
        for _ in range(num_ports)
    ]
    return arbiter, queues, cycle


class TestFusedQueueHeadMethods:
    """Each built-in's one-pass ``pick`` / ``earliest_grant`` answer what the
    base class builds from ``choose`` and ``next_event_cycle``."""

    @pytest.mark.parametrize("cls", BUILT_IN_CLASSES)
    def test_every_built_in_implements_both(self, cls):
        assert cls.pick is not Arbiter.pick
        assert cls.earliest_grant is not Arbiter.earliest_grant

    @settings(max_examples=400, deadline=None)
    @given(_arbiter_queues_cycle())
    def test_pick_equals_choose_over_the_pending_ports(self, drawn):
        arbiter, queues, cycle = drawn
        pending = [
            port for port, queue in enumerate(queues) if queue and queue[0].ready_cycle <= cycle
        ]
        expected = -1
        if pending:
            ready = None
            if arbiter.uses_ready_order:
                ready = [queues[port][0].ready_cycle for port in pending]
            expected = arbiter.choose(cycle, pending, ready)
        assert arbiter.pick(queues, cycle) == expected
        assert Arbiter.pick(arbiter, queues, cycle) == expected

    @settings(max_examples=400, deadline=None)
    @given(_arbiter_queues_cycle(), st.integers(0, 70))
    def test_earliest_grant_equals_the_per_port_fold(self, drawn, bank_free):
        arbiter, queues, cycle = drawn

        def fold(clamp: int) -> int:
            horizon = NO_EVENT
            for port, queue in enumerate(queues):
                if queue:
                    ready = max(queue[0].ready_cycle, cycle, clamp)
                    horizon = min(horizon, arbiter.next_event_cycle(ready, port))
            return horizon

        # A bus channel folds from the cycle, a bank queue from the later of
        # the cycle and the bank's release.
        assert arbiter.earliest_grant(queues, cycle) == fold(0)
        assert arbiter.earliest_grant(queues, max(cycle, bank_free)) == fold(bank_free)


class TestSubclassSelectionFallback:
    """A subclass that overrides selection, but not the fused method, gets
    the base fused method back, so its own code arbitrates."""

    def test_a_select_override_restores_the_base_pick(self):
        class LowestPortArbiter(RoundRobinArbiter):
            def select(self, cycle, pending_ports):
                return min(pending_ports)

        assert LowestPortArbiter.pick is Arbiter.pick
        assert LowestPortArbiter.earliest_grant is RoundRobinArbiter.earliest_grant
        arbiter = LowestPortArbiter(3)
        arbiter.notify_grant(0, 0)
        assert arbiter.pick([deque([_Head(0)]), deque(), deque([_Head(0)])], 0) == 0

    def test_a_ready_order_override_restores_the_base_pick(self):
        class PortOrderFifo(FifoArbiter):
            uses_ready_order = False

        assert PortOrderFifo.pick is Arbiter.pick
        queues = [deque([_Head(5)]), deque([_Head(2)])]
        assert PortOrderFifo(2).pick(queues, 5) == 0
        assert FifoArbiter(2).pick(queues, 5) == 1

    def test_a_horizon_override_restores_the_base_earliest_grant(self):
        class EagerTdma(TdmaArbiter):
            def next_event_cycle(self, cycle, port):
                return cycle

        assert EagerTdma.earliest_grant is Arbiter.earliest_grant
        assert EagerTdma.pick is TdmaArbiter.pick
        assert EagerTdma(2, 4).earliest_grant([deque(), deque([_Head(1)])], 0) == 1

    def test_a_subclass_that_overrides_nothing_keeps_the_fused_methods(self):
        class PoliteRoundRobin(RoundRobinArbiter):
            pass

        assert PoliteRoundRobin.pick is RoundRobinArbiter.pick
        assert PoliteRoundRobin.earliest_grant is RoundRobinArbiter.earliest_grant
