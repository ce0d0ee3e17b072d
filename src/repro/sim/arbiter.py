"""Arbitration policies and their registry.

The paper targets round-robin (RR) arbitration, whose worst-case single
request delay is ``ubd = (Nc - 1) * lbus``.  For the ablation studies we also
provide first-come-first-served (FIFO by readiness time), fixed priority and
TDMA arbiters, mirroring the policies discussed in the related work section
(Kelter's TDMA analysis, Paolieri's RR bus, Jalle's policy comparison).

An arbiter only decides *which* pending request is granted when a shared
resource is free; all timing (occupancy, completion delivery) is handled by
the resource it is attached to — the bus (:class:`repro.sim.bus.Bus`) or a
per-bank memory-controller queue
(:class:`repro.sim.memctrl.BankQueuedMemoryController`).

Selection contract.  A policy implements :meth:`Arbiter.select` (the winner
among the ports holding a ready request), or ``select_with_ready`` with
``uses_ready_order`` set when it needs each request's readiness cycle, and
:meth:`Arbiter.next_event_cycle` when it cannot grant a ready request at
once.  The resources ask two fused questions of their queues instead —
:meth:`Arbiter.pick` (the winning port) and :meth:`Arbiter.earliest_grant`
(the first cycle a queued head could win) — which the base class answers
from those methods.  The built-in policies also implement both directly,
in one pass over the queue heads, because the event loop asks them at every
grant; a subclass that overrides a selection method but not the matching
fused one gets the base implementation back, so it is arbitrated by its own
code.

Policies are *registered*, not hardwired: the :func:`register_arbiter`
decorator adds a factory to :data:`ARBITER_REGISTRY`, and every consumer —
:func:`make_arbiter`, the bank-queue controller, the CLI's ``list``
subcommand and the campaign ``--arbiter`` axis — reads the registry, so a
new policy plugs in without touching the simulator core::

    @register_arbiter("lottery", "deterministic weighted lottery")
    def _build_lottery(num_ports: int, tdma_slot: int) -> Arbiter:
        return LotteryArbiter(num_ports)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from ..config import BusConfig
from ..errors import ConfigurationError, SimulationError
from ..registry import Registry
from .resource import NO_EVENT
from .steady import Key, SteadyStateUnsupported

#: Per-port request queues as the resources hold them: each head exposes
#: ``ready_cycle`` (a bus request, a queued bank access).
Queues = Sequence[Deque[Any]]

#: What the fused methods stand in for: a subclass that overrides one of
#: the first group gets the base :meth:`Arbiter.pick` back, one of the
#: second the base :meth:`Arbiter.earliest_grant`.
_PICK_INPUTS = ("select", "select_with_ready", "choose", "uses_ready_order")
_GRANT_INPUTS = ("next_event_cycle",)


class Arbiter:
    """Base class for all arbitration policies.

    Args:
        num_ports: number of request ports attached to the bus (one per core
            plus, optionally, one response port for split transactions).
    """

    #: Short policy name used by factories, reports and configuration files.
    policy_name = "abstract"

    #: True when the attached resource should call :meth:`select_with_ready`
    #: (passing per-port readiness cycles) instead of :meth:`select`.  A
    #: capability flag rather than an ``isinstance`` check so registered
    #: third-party policies can opt in.
    uses_ready_order = False

    def __init__(self, num_ports: int) -> None:
        if num_ports < 1:
            raise ConfigurationError("an arbiter needs at least one port")
        self.num_ports = num_ports

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Give a subclass that overrides selection, but not the matching
        fused method, the base fused method (see the module docstring)."""
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "pick" not in own and any(name in own for name in _PICK_INPUTS):
            cls.pick = Arbiter.pick  # type: ignore[method-assign]
        if "earliest_grant" not in own and any(name in own for name in _GRANT_INPUTS):
            cls.earliest_grant = Arbiter.earliest_grant  # type: ignore[method-assign]

    def select(self, cycle: int, pending_ports: Sequence[int]) -> int:
        """Return the port that wins arbitration at ``cycle``.

        Args:
            cycle: current simulation cycle.
            pending_ports: ports that currently hold a ready request; never
                empty when this method is called.
        """
        raise NotImplementedError

    def choose(
        self,
        cycle: int,
        pending_ports: Sequence[int],
        ready_cycles: Optional[Sequence[int]] = None,
    ) -> int:
        """Dispatch to :meth:`select` or ``select_with_ready``.

        The single place that interprets :attr:`uses_ready_order`, shared by
        every resource that hosts an arbiter (the bus, the bank queues), so
        the capability contract cannot drift between them.  ``ready_cycles``
        must be supplied (parallel to ``pending_ports``) when the policy
        declares ``uses_ready_order``.
        """
        if self.uses_ready_order:
            if ready_cycles is None:
                raise SimulationError(
                    f"{self.policy_name} arbitration needs per-port readiness cycles"
                )
            return self.select_with_ready(cycle, pending_ports, ready_cycles)
        return self.select(cycle, pending_ports)

    def pick(self, queues: Queues, cycle: int) -> int:
        """The port that wins arbitration at ``cycle``, or -1 for none.

        ``queues`` holds one request queue per port; a port is pending when
        its head is ready by ``cycle``.  This base implementation collects
        the pending ports and asks :meth:`choose`.
        """
        pending_ports = [
            port for port, queue in enumerate(queues) if queue and queue[0].ready_cycle <= cycle
        ]
        if not pending_ports:
            return -1
        ready_cycles = None
        if self.uses_ready_order:
            ready_cycles = [queues[port][0].ready_cycle for port in pending_ports]
        return self.choose(cycle, pending_ports, ready_cycles)

    def earliest_grant(self, queues: Queues, earliest: int) -> int:
        """The first cycle, not before ``earliest``, at which a queued head
        of ``queues`` could win, or :data:`~repro.sim.resource.NO_EVENT`
        when every queue is empty.

        This base implementation folds :meth:`next_event_cycle` over the
        heads, each from its readiness cycle clamped to ``earliest``.
        """
        horizon = NO_EVENT
        for port, queue in enumerate(queues):
            if queue:
                ready = queue[0].ready_cycle
                grant = self.next_event_cycle(ready if ready > earliest else earliest, port)
                if grant < horizon:
                    horizon = grant
        return horizon

    def notify_grant(self, cycle: int, port: int) -> None:
        """Inform the arbiter that ``port`` was granted at ``cycle``."""

    def next_event_cycle(self, cycle: int, port: int) -> int:
        """Earliest cycle >= ``cycle`` at which ``port`` could win a free bus.

        This is the arbiter's contribution to the event-driven scheduler's
        horizon (see :mod:`repro.sim.scheduler`): work-conserving policies
        can grant a ready request immediately, so the base implementation
        returns ``cycle``; schedule-driven policies (TDMA) override it with
        the start of the port's next eligible slot.  The contract is that no
        grant may happen strictly before the returned cycle — returning a
        too-early cycle only costs speed, returning a too-late one would
        change timing.
        """
        del port
        return cycle

    def reset(self) -> None:
        """Restore the arbiter's initial state."""

    def steady_key(self, cycle: int) -> Key:
        """The arbiter's state normalised to ``cycle`` (see
        :mod:`repro.sim.steady`); a policy that does not declare one keeps
        its run from skipping.  Arbiters hold no absolute cycles and no
        counters, so a jump leaves them as they are."""
        raise SteadyStateUnsupported(
            f"arbitration policy {self.policy_name!r} declares no steady-state key"
        )


def _earliest_head(self: Arbiter, queues: Queues, earliest: int) -> int:
    """``earliest_grant`` of a work-conserving policy, which can grant a
    ready head at once: the earliest head's readiness, clamped to
    ``earliest``."""
    del self
    horizon = NO_EVENT
    for queue in queues:
        if queue and queue[0].ready_cycle < horizon:
            horizon = queue[0].ready_cycle
    return earliest if horizon < earliest else horizon


class RoundRobinArbiter(Arbiter):
    """Work-conserving round-robin arbitration (the paper's policy).

    After port ``i`` is granted, the next arbitration scans ports in the
    order ``i+1, i+2, ..., i`` (Section 2 of the paper), so the port granted
    most recently becomes the lowest-priority one.
    """

    policy_name = "round_robin"

    def __init__(self, num_ports: int, initial_owner: int = -1) -> None:
        super().__init__(num_ports)
        if not -1 <= initial_owner < num_ports:
            raise ConfigurationError(
                f"initial owner {initial_owner} out of range for {num_ports} ports"
            )
        self._initial_owner = initial_owner
        self._last_granted = initial_owner

    @property
    def last_granted(self) -> int:
        """Port granted most recently, or the initial owner if none yet."""
        return self._last_granted

    def priority_order(self) -> List[int]:
        """Return the current scan order from highest to lowest priority."""
        start = (self._last_granted + 1) % self.num_ports
        return [(start + offset) % self.num_ports for offset in range(self.num_ports)]

    def select(self, cycle: int, pending_ports: Sequence[int]) -> int:
        del cycle
        if len(pending_ports) == 1:
            return pending_ports[0]
        pending = set(pending_ports)
        # Scan i+1, i+2, ... without materialising priority_order(): this
        # runs once per grant and dominates saturated-bus arbitration.
        port = self._last_granted
        num_ports = self.num_ports
        for _ in range(num_ports):
            port += 1
            if port >= num_ports:
                port = 0
            if port in pending:
                return port
        raise SimulationError("round-robin arbiter called with no pending ports")

    def pick(self, queues: Queues, cycle: int) -> int:
        """The scan of :meth:`select`, fused with the pending check."""
        port = self._last_granted
        num_ports = self.num_ports
        for _ in range(num_ports):
            port += 1
            if port >= num_ports:
                port = 0
            queue = queues[port]
            if queue and queue[0].ready_cycle <= cycle:
                return port
        return -1

    earliest_grant = _earliest_head

    def notify_grant(self, cycle: int, port: int) -> None:
        del cycle
        self._last_granted = port

    def reset(self) -> None:
        self._last_granted = self._initial_owner

    def steady_key(self, cycle: int) -> Key:
        del cycle
        return self._last_granted, ()


class FifoArbiter(Arbiter):
    """First-come-first-served arbitration by request readiness time.

    Ties (identical readiness cycles) are broken by port index, which makes
    the policy deterministic.  The bus passes readiness times through
    :meth:`select_with_ready`; plain :meth:`select` falls back to port order.
    """

    policy_name = "fifo"
    uses_ready_order = True

    def select(self, cycle: int, pending_ports: Sequence[int]) -> int:
        del cycle
        if not pending_ports:
            raise SimulationError("FIFO arbiter called with no pending ports")
        return min(pending_ports)

    def select_with_ready(
        self, cycle: int, pending_ports: Sequence[int], ready_cycles: Sequence[int]
    ) -> int:
        """Select the pending port whose request became ready first."""
        del cycle
        if not pending_ports:
            raise SimulationError("FIFO arbiter called with no pending ports")
        pairs = sorted(zip(ready_cycles, pending_ports))
        return pairs[0][1]

    def pick(self, queues: Queues, cycle: int) -> int:
        """The earliest ready head; the strict ``<`` keeps the lower port
        on ties, as :meth:`select_with_ready`'s sort does."""
        winner = -1
        best = cycle + 1
        for port, queue in enumerate(queues):
            if queue and queue[0].ready_cycle < best:
                winner = port
                best = queue[0].ready_cycle
        return winner

    earliest_grant = _earliest_head

    def steady_key(self, cycle: int) -> Key:
        del cycle
        return None, ()


class FixedPriorityArbiter(Arbiter):
    """Static priority arbitration: lower port index always wins.

    This policy is *not* time composable — a high-priority requester can
    starve the others — and serves as a contrast case in the ablation
    benchmarks.
    """

    policy_name = "fixed_priority"

    def __init__(self, num_ports: int, priority: Optional[Sequence[int]] = None) -> None:
        super().__init__(num_ports)
        if priority is None:
            priority = list(range(num_ports))
        if sorted(priority) != list(range(num_ports)):
            raise ConfigurationError(
                "priority must be a permutation of port indices "
                f"0..{num_ports - 1}, got {list(priority)}"
            )
        #: _rank[port] gives the rank of ``port`` (0 = highest); _order
        #: lists the ports from the highest rank down.
        self._rank = {port: rank for rank, port in enumerate(priority)}
        self._order = tuple(priority)

    def select(self, cycle: int, pending_ports: Sequence[int]) -> int:
        del cycle
        if not pending_ports:
            raise SimulationError("fixed-priority arbiter called with no pending ports")
        return min(pending_ports, key=lambda port: self._rank[port])

    def pick(self, queues: Queues, cycle: int) -> int:
        """The highest-ranked port whose head is ready."""
        for port in self._order:
            queue = queues[port]
            if queue and queue[0].ready_cycle <= cycle:
                return port
        return -1

    earliest_grant = _earliest_head

    def steady_key(self, cycle: int) -> Key:
        del cycle
        return None, ()


class TdmaArbiter(Arbiter):
    """Time-division multiple access arbitration.

    Time is divided into fixed slots of ``slot_cycles``; slot ``s`` belongs to
    port ``s mod num_ports``.  A request is only granted during its owner's
    slot and only if the remaining slot time can hold a full transaction of
    ``slot_cycles`` (the bus enforces the occupancy; the arbiter enforces
    ownership).  TDMA is not work conserving, so it wastes bandwidth when the
    slot owner has nothing to send — the classic contrast with round robin.
    """

    policy_name = "tdma"

    def __init__(self, num_ports: int, slot_cycles: int) -> None:
        super().__init__(num_ports)
        if slot_cycles < 1:
            raise ConfigurationError("TDMA slot length must be >= 1 cycle")
        self.slot_cycles = slot_cycles

    def slot_owner(self, cycle: int) -> int:
        """Return the port owning the TDMA slot active at ``cycle``."""
        return (cycle // self.slot_cycles) % self.num_ports

    def cycles_left_in_slot(self, cycle: int) -> int:
        """Return how many cycles remain in the slot active at ``cycle``."""
        return self.slot_cycles - (cycle % self.slot_cycles)

    def select(self, cycle: int, pending_ports: Sequence[int]) -> int:
        owner = self.slot_owner(cycle)
        if owner in set(pending_ports) and self.cycles_left_in_slot(cycle) == self.slot_cycles:
            return owner
        return -1  # nobody may start a transaction this cycle

    def next_grant_opportunity(self, cycle: int, port: int) -> int:
        """First cycle at or after ``cycle`` where ``port`` may start a transaction."""
        slot_index = cycle // self.slot_cycles
        for offset in range(2 * self.num_ports + 1):
            candidate = slot_index + offset
            if candidate % self.num_ports == port % self.num_ports:
                start = candidate * self.slot_cycles
                if start >= cycle:
                    return start
        raise SimulationError("TDMA schedule search failed")  # pragma: no cover

    def next_event_cycle(self, cycle: int, port: int) -> int:
        """TDMA horizon: the start of ``port``'s next slot (see base class)."""
        return self.next_grant_opportunity(cycle, port)

    def pick(self, queues: Queues, cycle: int) -> int:
        """The slot owner, on a slot boundary, if its head is ready."""
        slot = self.slot_cycles
        if cycle % slot:
            return -1
        owner = (cycle // slot) % self.num_ports
        queue = queues[owner]
        if queue and queue[0].ready_cycle <= cycle:
            return owner
        return -1

    def earliest_grant(self, queues: Queues, earliest: int) -> int:
        """The earliest head's next slot start, in closed form: the first
        slot boundary at or after the head's readiness (clamped to
        ``earliest``) whose slot index is its port modulo the port count."""
        slot = self.slot_cycles
        ports = self.num_ports
        horizon = NO_EVENT
        for port, queue in enumerate(queues):
            if queue:
                ready = queue[0].ready_cycle
                if ready < earliest:
                    ready = earliest
                index = ready // slot
                grant = (index + (port - index) % ports) * slot
                if grant < ready:
                    grant += slot * ports
                if grant < horizon:
                    horizon = grant
        return horizon

    def steady_key(self, cycle: int) -> Key:
        """Where ``cycle`` falls in the slot frame: the schedule is the state."""
        return cycle % (self.slot_cycles * self.num_ports), ()


# --------------------------------------------------------------------------- #
# Registry-backed factory.
# --------------------------------------------------------------------------- #

#: Factory signature: ``factory(num_ports, tdma_slot) -> Arbiter``.  The slot
#: length is the only policy parameter any built-in needs; policies that do
#: not use it simply ignore it.
ArbiterFactory = Callable[[int, int], "Arbiter"]


@dataclass(frozen=True)
class ArbiterEntry:
    """One registered arbitration policy."""

    name: str
    factory: ArbiterFactory
    description: str = ""


#: Policy name -> registered entry, in registration order, on the shared
#: :class:`repro.registry.Registry` utility (duplicate rejection, listing
#: and lookup errors in one place).  The built-ins below register themselves
#: at import time; ``repro.config`` validates configuration fields against
#: these keys (lazily, so runtime registrations are honoured) and
#: ``repro-bounds list`` prints them.
ARBITER_REGISTRY: Registry[ArbiterEntry] = Registry("arbitration policy")


def register_arbiter(name: str, description: str = ""):
    """Class/function decorator registering an arbiter factory under ``name``.

    The decorated callable must accept ``(num_ports, tdma_slot)`` and return
    an :class:`Arbiter`.  Registering an already-taken name is a
    configuration error — silently replacing a policy would let two runs
    with identical configurations simulate different platforms.
    """

    def decorator(factory: ArbiterFactory) -> ArbiterFactory:
        ARBITER_REGISTRY.register(
            name, ArbiterEntry(name=name, factory=factory, description=description)
        )
        return factory

    return decorator


def registered_arbiters() -> Tuple[str, ...]:
    """Names of every registered arbitration policy, in registration order."""
    return ARBITER_REGISTRY.names()


def create_arbiter(policy: str, num_ports: int, *, tdma_slot: int = 9) -> Arbiter:
    """Instantiate the registered policy ``policy`` for ``num_ports`` ports."""
    return ARBITER_REGISTRY.require(policy).factory(num_ports, tdma_slot)


def make_arbiter(config: BusConfig, num_ports: int) -> Arbiter:
    """Create the arbiter selected by ``config.arbitration`` for ``num_ports`` ports."""
    return create_arbiter(config.arbitration, num_ports, tdma_slot=config.tdma_slot)


@register_arbiter("round_robin", "work-conserving round robin (the paper's policy)")
def _build_round_robin(num_ports: int, tdma_slot: int) -> Arbiter:
    del tdma_slot
    return RoundRobinArbiter(num_ports)


@register_arbiter("fifo", "first-come-first-served by request readiness time")
def _build_fifo(num_ports: int, tdma_slot: int) -> Arbiter:
    del tdma_slot
    return FifoArbiter(num_ports)


@register_arbiter("fixed_priority", "static priority: lower port index wins")
def _build_fixed_priority(num_ports: int, tdma_slot: int) -> Arbiter:
    del tdma_slot
    return FixedPriorityArbiter(num_ports)


@register_arbiter("tdma", "time-division slots, one per port (not work conserving)")
def _build_tdma(num_ports: int, tdma_slot: int) -> Arbiter:
    return TdmaArbiter(num_ports, tdma_slot)
