"""The ``SharedResource`` base class: what it means to be a contention point.

The paper models a single arbitrated resource — the processor-to-L2 bus.
Real platforms stack several: the bus feeds a memory controller whose
per-bank queues are themselves arbitrated, the DRAM banks serialise
accesses independently, and a split-transaction bus returns data on its own
response channel.  This module declares the one base class that lets such
contention points *compose* into a topology (see :mod:`repro.sim.topology`)
instead of being hardwired into :class:`repro.sim.system.System` — and,
crucially, into the *simulation engines*: every engine drives
``System.resources`` purely through this surface, so a new topology is a
registry addition, never an engine edit.

Phase surface (the Section 5 cycle structure):

* ``deliver(cycle)`` — phase 1: finish any work whose occupancy ends at
  ``cycle`` and hand the result downstream (wake a core, enqueue into the
  next resource, post a response).
* ``arbitrate(cycle)`` — the closing phase: if the resource is free, pick
  one pending request per internal channel (bus, DRAM bank, ...) through an
  :class:`repro.sim.arbiter.Arbiter` and start its occupancy.
* a PMC surface — counters describing the traffic the resource served
  (per-resource sections of :class:`repro.sim.pmc.PerformanceCounters` for
  the bus channels, :class:`repro.sim.memctrl.MemCtrlStats` for the memory
  queues).

Event-port surface (the base class implements all but
``next_event_cycle``):

* ``next_event_cycle(cycle)`` — the earliest future cycle at which the
  resource can change state on its own.  The contract is *conservative*:
  reporting too early only costs speed, reporting too late changes timing.
  Every horizon is an ``int``; :data:`NO_EVENT` means "inert until someone
  posts new work".
* ``horizon(cycle)`` — the same, cached in ``_horizon_cache`` and
  recomputed only while ``_horizon_dirty`` is set, so the per-cycle horizon
  scan costs one attribute check per quiescent resource instead of a queue
  walk.  The event, codegen and replay loops read and refresh these two
  fields directly, which is why the base class initialises them.
* ``invalidate_horizon()`` — mark the cache stale.  Every mutation of
  resource state (posting work, a delivery, a grant, a reset) must do so;
  the invalidation rules are spelled out in DESIGN.md Section 5.  The cache
  is sound because between events a resource's state is a pure function of
  the clock (engine invariant 1): only a mutation can create an earlier
  event.
* ``wake_targets`` — core ids that the most recent ``deliver`` call may have
  woken (data returned, store drained).  The engine ticks exactly these
  cores plus the self-driven ones, instead of interpreting resource-specific
  delivery payloads.
"""

from __future__ import annotations

from typing import List, Optional

#: Horizon sentinel: "this resource has no self-driven future event".
#: An ``int`` (not ``float('inf')``) so the horizon arithmetic of
#: :mod:`repro.sim.scheduler` stays in integers; far beyond any reachable
#: cycle (the default simulation bound is 2e8).
NO_EVENT: int = 1 << 62


class SharedResource:
    """Base class of every composable contention point.

    :class:`repro.sim.bus.Bus` and the memory controllers in
    :mod:`repro.sim.memctrl` subclass it.  A subclass implements
    ``deliver``, ``arbitrate``, ``next_event_cycle`` and ``reset``
    (extending the base ``reset``), calls ``super().__init__()`` and marks
    every state mutation with :meth:`invalidate_horizon` (or
    ``self._horizon_dirty = True`` on hot paths).
    """

    #: Short name used in reports, traces and per-resource decompositions.
    resource_name: str

    def __init__(self) -> None:
        #: Core ids the most recent ``deliver`` call may have woken.
        self.wake_targets: List[int] = []
        #: The cached horizon and whether it is stale (read by the engines).
        self._horizon_cache = 0
        self._horizon_dirty = True

    def deliver(self, cycle: int) -> Optional[object]:
        """Finish work whose occupancy ends at ``cycle``; return it, if any."""
        raise NotImplementedError

    def arbitrate(self, cycle: int) -> Optional[object]:
        """Grant pending work if the resource is free; return the grant."""
        raise NotImplementedError

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest future cycle this resource changes state on its own."""
        raise NotImplementedError

    def horizon(self, cycle: int) -> int:
        """Cached :meth:`next_event_cycle`, recomputed only when stale."""
        if self._horizon_dirty:
            self._horizon_cache = self.next_event_cycle(cycle)
            self._horizon_dirty = False
        return self._horizon_cache

    def invalidate_horizon(self) -> None:
        """Mark the cached horizon stale; the next read recomputes it."""
        self._horizon_dirty = True

    def reset(self) -> None:
        """Restore the initial (empty, idle) state of the event-port fields."""
        self.wake_targets.clear()
        self._horizon_cache = 0
        self._horizon_dirty = True
