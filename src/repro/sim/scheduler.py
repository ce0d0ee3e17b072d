"""Simulation engines: the registry, the stepped oracle and the event loop.

Four interchangeable, cycle-exact engines ship built in; ``ArchConfig.engine``
is the only thing that selects one:

* :class:`SteppedEngine` — the reference loop.  It advances the clock one
  cycle at a time and runs the full Section 5 cycle structure (deliver all
  resources, tick the cores, arbitrate all resources) on every cycle.  It is
  deliberately unoptimised: it is the oracle the fast paths are validated
  against.
* :class:`EventScheduler` — the generic fast path.  After processing a
  cycle it takes the *event horizon* — the minimum over every resource's
  and core's next self-driven event — and jumps the clock directly to it.
  Saturated-bus experiments (the paper's hot path) spend most of their
  cycles with every core stalled on a 9-cycle bus occupancy, so the fast
  path visits a small fraction of the cycles while producing bit-identical
  results.
* ``codegen`` (:class:`repro.sim.codegen.CodegenEngine`) — the same loop
  generated for the concrete topology chain and arbiter set, falling back
  to :class:`EventScheduler` for anything it cannot specialise.
* ``replay`` (:class:`repro.sim.trace.ReplayEngine`) — captures each core's
  demand-request trace once per kernel, streams it through the live
  interconnect on later runs, and binds its loop through ``codegen``.

Every engine class also declares ``fast_forward``: whether its cores run
straight-line ``nop``/``alu`` code, and the loads in it whose DL1 line is
resident, as one execute-stage occupancy per run, joined by the store or
missing load that ends the run (see :mod:`repro.sim.core`).  ``event``,
``codegen`` and ``replay`` do, which turns the hundreds of nops ``rsk-nop``
puts between two memory operations, or the compute and DL1 hits between
two stores of a synthetic workload, into a single core event.  The
``stepped`` oracle does not: it keeps retiring one instruction per
occupancy, the reference the batched engines are checked against.
:meth:`repro.sim.system.System.run` applies the flag and then finalizes
every core, so a run that stops inside a segment still counts exactly the
instructions retired by then.

Every engine class declares ``steady_state_decline`` too: ``None`` when
``System.run`` may skip a run's steady state on it (``event`` and
``codegen``: whole loop iterations are added once the normalised system
state repeats, see :mod:`repro.sim.steady`), otherwise the reason it does
not (the ``stepped`` oracle simulates every iteration; ``replay`` keeps its
own fast path).  Skipping needs no engine support beyond the ``max_cycles``
stop: the system runs the engine in chunks that end there and resumes it at
the next cycle, so no loop here knows about it.

Every engine drives ``System.resources`` **generically** through the
:class:`repro.sim.resource.SharedResource` surface — ``deliver`` /
``arbitrate`` / the cached horizon / ``wake_targets``.  No engine names a
concrete resource type, so a topology registered via
:func:`repro.sim.topology.register_topology` (one bus, a bank-queued
memory stage, a split request/response bus pair, ...) runs on every engine
without engine edits.

Engines are registered, not hardwired: :data:`ENGINE_REGISTRY` (a
:class:`repro.registry.Registry`) holds each engine's name, description and
class, and :func:`make_engine`, the CLI's ``list`` subcommand, ``ArchConfig``
validation and the audit all read it.  This module registers all four
built-ins, in the order the registry lists them.  ``stepped`` and ``event``
are defined here and register with the :func:`register_engine` decorator.
``codegen`` and ``replay`` register by import path
(:func:`register_engine_path`): their modules are imported when a run first
selects them, so a run on another engine never loads them.

Horizon contract
----------------

Each resource exposes ``horizon(cycle) -> int``, the *cached* event horizon
(the integer-only contract is documented in :mod:`repro.sim.resource`; "no
self-driven event" is the :data:`~repro.sim.resource.NO_EVENT` sentinel,
never ``float('inf')``).  The cache is recomputed from the resource's
``next_event_cycle`` only after a mutation (posting work, a delivery, a
grant, a reset) marked it stale — dirty-flag recomputation instead of a
per-cycle queue rescan, which is what keeps the generic loop as fast as the
former hand-inlined one.  Cores are not shared resources; the engine folds
their horizons directly from their execution state (an executing core wakes
at the end of its occupancy, a ready core on the next cycle, everyone else
on a delivery already present in some resource's horizon).

Invariants that make the jump cycle-exact:

1. *No spontaneous state changes*: between events, every component's state
   is a pure function of the clock, so skipping unvisited cycles cannot
   lose information.  (This is also what makes the horizon *cache* sound: a
   horizon computed from unmutated state stays the true horizon until a
   mutation invalidates it.)
2. *Conservative horizons*: a component may report an earlier cycle than
   its true next event (costing speed, not correctness) but never a later
   one.
3. *Wake-ups are events*: any cycle at which one component can change
   another's state (a delivery, a DRAM completion, a bank grant) appears in
   the horizon of the component that drives it, and deliveries publish the
   possibly-woken cores through ``wake_targets``.
4. *Phase order is preserved*: every visited cycle runs the exact Section 5
   phase sequence (deliver the resources front to back, tick the cores,
   arbitrate front to back), so intra-cycle orderings — which produce the
   paper's synchrony effect — are untouched.

Within a visited cycle the event engine additionally skips the tick of
cores that provably cannot act (``Core.needs_tick``) and the deliver /
arbitrate phases of resources whose horizon lies in the future, which is
what makes the visited cycles themselves cheaper than the oracle's.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import List, Tuple, Type, Union

from ..registry import Registry
from .core import CoreState
from .resource import NO_EVENT


# --------------------------------------------------------------------------- #
# The engine registry.
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class EngineEntry:
    """One registered simulation engine: its class, or the ``"module:Class"``
    path that imports the class on first use."""

    name: str
    target: Union[Type, str]
    description: str = ""

    @property
    def cls(self) -> Type:
        """The engine class, importing its module if it registered by path."""
        if isinstance(self.target, str):
            module, _, attribute = self.target.partition(":")
            return getattr(importlib.import_module(module), attribute)
        return self.target


#: Engine name -> registered entry, in registration order, on the shared
#: :class:`repro.registry.Registry` utility.  ``repro.config`` keeps the
#: built-in tuple :data:`repro.config.ENGINES` for documentation and CLI
#: choices; a tier-1 test pins the two in sync.
ENGINE_REGISTRY: Registry[EngineEntry] = Registry("simulation engine")


def register_engine(name: str, description: str = ""):
    """Class decorator registering a simulation engine under ``name``.

    The class must accept a :class:`repro.sim.system.System`, expose
    ``run(observed, max_cycles) -> (cycle, timed_out)`` (resumable: a run
    starts at ``system.current_cycle``) and declare the class attributes
    ``fast_forward`` (whether cores batch straight-line code under it) and
    ``steady_state_decline`` (``None`` if runs on it may skip their steady
    state, else why not); see the module docstring.  An engine without the
    latter never skips.
    """

    def decorator(cls: Type) -> Type:
        ENGINE_REGISTRY.register(name, EngineEntry(name, cls, description))
        return cls

    return decorator


def register_engine_path(name: str, path: str, description: str = "") -> None:
    """Register the engine class at ``path`` (``"module:Class"``) under
    ``name`` without importing it.

    :attr:`EngineEntry.cls` imports the module on first use, so listing the
    registry or validating a configuration never loads the engine; the
    class must satisfy the :func:`register_engine` contract.
    """
    ENGINE_REGISTRY.register(name, EngineEntry(name, path, description))


def registered_engines() -> Tuple[str, ...]:
    """Names of every registered engine, in registration order."""
    return ENGINE_REGISTRY.names()


def make_engine(name: str, system):
    """Instantiate the engine called ``name`` for ``system``.

    Accepts any registered engine name (the built-ins mirror
    :data:`repro.config.ENGINES`); anything else raises
    :class:`~repro.errors.ConfigurationError`.
    """
    return ENGINE_REGISTRY.require(name).cls(system)


# --------------------------------------------------------------------------- #
# The built-in generic engines.
# --------------------------------------------------------------------------- #


@register_engine("stepped", "cycle-by-cycle oracle loop (reference semantics)")
class SteppedEngine:
    """The cycle-by-cycle oracle loop (Section 5 cycle structure).

    Args:
        system: the :class:`repro.sim.system.System` to drive.
    """

    name = "stepped"
    #: The oracle retires one instruction per occupancy: it is what the
    #: batched segments of the other engines are validated against.
    fast_forward = False
    #: ... and simulates every iteration (see repro.sim.steady).
    steady_state_decline = "the stepped engine is the oracle"

    def __init__(self, system) -> None:
        self.system = system

    def run(self, observed: List[int], max_cycles: int) -> Tuple[int, bool]:
        """Advance the clock one cycle at a time until every observed core
        finished (or ``max_cycles`` is reached); returns the final cycle and
        whether the run timed out."""
        system = self.system
        resources = system.resources
        cores = system.cores
        pmc = system.pmc
        observed_cores = [cores[core_id] for core_id in observed]

        cycle = system.current_cycle
        timed_out = False
        while True:
            for resource in resources:
                resource.deliver(cycle)
            for core in cores:
                core.tick(cycle)
            for resource in resources:
                resource.arbitrate(cycle)
            pmc.cycles = cycle + 1

            if all(core.is_done for core in observed_cores):
                break
            if cycle >= max_cycles:
                timed_out = True
                break
            cycle += 1

        system.current_cycle = cycle
        return cycle, timed_out


@register_engine("event", "event-driven fast path: jump the clock to the min component horizon")
class EventScheduler:
    """The event-driven fast path: jump the clock to the earliest horizon.

    Args:
        system: the :class:`repro.sim.system.System` to drive.
    """

    name = "event"
    fast_forward = True
    steady_state_decline = None

    def __init__(self, system) -> None:
        self.system = system

    def run(self, observed: List[int], max_cycles: int) -> Tuple[int, bool]:
        """Process only cycles at which some component has an event; returns
        the final cycle and whether the run timed out.

        Cycle-exactness relies on the horizon contract in the module
        docstring: the next visited cycle is the minimum of every
        component's horizon, clamped to ``max_cycles`` so a timed-out run
        stops on exactly the same cycle as the oracle.  The loop drives
        ``system.resources`` purely through the event-port surface — it
        holds no knowledge of which resources the topology built.
        """
        system = self.system
        resources = system.resources
        cores = system.cores
        pmc = system.pmc
        observed_cores = [cores[core_id] for core_id in observed]
        # Dedicated fast path for the overwhelmingly common single-observed-
        # core case (every methodology and campaign run).
        only_observed = observed_cores[0] if len(observed_cores) == 1 else None

        executing = CoreState.EXECUTING
        ready = CoreState.READY
        stalled = CoreState.STALL_STORE_BUFFER
        done = CoreState.DONE

        cycle = system.current_cycle
        timed_out = False
        while True:
            # Phase 1 — deliveries.  Only resources whose horizon is due can
            # have work finishing now (a cached horizon in the future proves
            # the deliver would be a no-op); each delivering resource
            # publishes the cores it may have woken through wake_targets.
            # The cache is read through its dirty flag rather than the
            # horizon() accessor: this is the engine's innermost loop, and
            # the flag read costs an attribute access where the call costs a
            # frame (the accessor remains the public API).
            woken = None
            for resource in resources:
                if resource._horizon_dirty:
                    horizon = resource._horizon_cache = resource.next_event_cycle(cycle)
                    resource._horizon_dirty = False
                else:
                    horizon = resource._horizon_cache
                if horizon <= cycle:
                    resource.deliver(cycle)
                    for core_id in resource.wake_targets:
                        if woken is None:
                            woken = [cores[core_id]]
                        else:
                            woken.append(cores[core_id])
            # Phase 2 — tick the cores that can act: one finishing its
            # execute-stage occupancy, one ready to start an instruction,
            # one retrying a full store buffer (the retry is a no-op until a
            # delivery frees a slot, but the oracle performs it, so the
            # no-op cost is all we skip), or one a delivery may have woken
            # (which therefore gets the full activity check).  Each core's
            # horizon is folded right after: phase 3 changes no core (see
            # below).  The fold spares a method call per core per visited
            # cycle; its semantics are those of Core.next_event_cycle:
            # executing cores wake at the end of their occupancy, ready
            # cores on the next cycle, everyone else on a delivery already
            # in a resource horizon.
            horizon = NO_EVENT
            for core in cores:
                state = core.state
                if state is executing:
                    if cycle >= core._busy_until or (
                        woken is not None
                        and core in woken
                        and core.needs_tick(cycle)
                    ):
                        core.tick(cycle)
                        state = core.state
                elif state is ready or state is stalled:
                    core.tick(cycle)
                    state = core.state
                elif woken is not None and core in woken and core.needs_tick(cycle):
                    core.tick(cycle)
                    state = core.state
                if state is executing:
                    if core._busy_until < horizon:
                        horizon = core._busy_until
                elif state is ready and cycle + 1 < horizon:
                    horizon = cycle + 1
            # Phase 3 — arbitration, fused with the horizon fold.  A clean
            # cache with a future horizon proves no grant is possible now
            # (the horizon covers grant opportunities), so only mutated
            # resources — the ticks may just have posted requests — and
            # resources with a due horizon are asked; their own arbitrate()
            # early-outs handle the rest.  Grants mutate only the granting
            # resource (deliveries, which ran in phase 1, are what posts
            # work downstream), so each resource's horizon can be refreshed
            # immediately after its own arbitration.
            for resource in resources:
                if resource._horizon_dirty or resource._horizon_cache <= cycle:
                    resource.arbitrate(cycle)
                    candidate = resource._horizon_cache = resource.next_event_cycle(cycle)
                    resource._horizon_dirty = False
                else:
                    candidate = resource._horizon_cache
                if candidate < horizon:
                    horizon = candidate

            if only_observed is not None:
                if only_observed.state is done:
                    break
            elif all(core.state is done for core in observed_cores):
                break
            if cycle >= max_cycles:
                timed_out = True
                break

            if horizon <= cycle:
                cycle += 1
            else:
                # Never jump past the cycle budget: the oracle processes
                # max_cycles as its last cycle, and so must we.
                cycle = horizon if horizon <= max_cycles else max_cycles
        pmc.cycles = cycle + 1
        system.current_cycle = cycle
        return cycle, timed_out


register_engine_path(
    "codegen",
    "repro.sim.codegen:CodegenEngine",
    "generated loop specialised to the topology chain + arbiter set "
    "(falls back to 'event' on unknown registry entries)",
)
register_engine_path(
    "replay",
    "repro.sim.trace:ReplayEngine",
    "trace replay: capture the core side once per kernel, stream it through "
    "any interconnect (falls back per core on trace-unsafe programs)",
)
