"""Shared-resource topologies: composing contention points into a platform.

A *topology* decides which :class:`repro.sim.resource.SharedResource`
instances sit behind the cores and how they chain.  The paper's platform is
the single-stage ``bus_only`` topology — one arbitrated bus in front of a
memory controller that schedules DRAM accesses on arrival.  The
``bus_bank_queues`` topology chains a second arbitrated stage behind the
bus: per-DRAM-bank memory-controller queues, each with its own arbitration
policy (:class:`repro.sim.memctrl.BankQueuedMemoryController`), so an L2
miss contends twice — once for the bus, once for its bank.  The
``split_bus`` topology additionally splits the bus NGMP split-transaction
style into two composed channels: an arbitrated *request channel* feeding
the bank queues and a separate arbitrated *response channel* returning the
data, so an L2 miss contends three times.

A topology builder returns the whole platform-side picture as a
:class:`ResourceChain`: the resources in phase order (every engine delivers
them front to back, ticks the cores, arbitrates them front to back — see
:mod:`repro.sim.scheduler`) plus the wiring the system needs (where demand
requests are posted, where responses return, which controller owns the
DRAM).  :class:`repro.sim.system.System` supplies its callbacks through
:class:`TopologyHooks` and otherwise stays topology-agnostic, which is what
makes a new topology a pure registry addition::

    @register_topology("bus_crossbar", "per-core links into a crossbar")
    def _build_crossbar(config, hooks):
        ...
        return ResourceChain(...)

Like arbiters (:mod:`repro.sim.arbiter`) and engines
(:mod:`repro.sim.scheduler`), topologies are registered, not hardwired, on
the shared :class:`repro.registry.Registry` utility; the CLI's ``list``
subcommand and the campaign ``--topology`` axis read the same registry, so
a registered topology is immediately selectable everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..config import ArchConfig
from ..registry import Registry
from .arbiter import Arbiter, create_arbiter, make_arbiter
from .bus import Bus, ServiceCallback
from .memctrl import BankQueuedMemoryController, MemoryController, ReadCallback
from .pmc import PerformanceCounters
from .request_trace import TraceRecorder
from .resource import SharedResource


@dataclass(frozen=True)
class TopologyHooks:
    """What the system lends a topology builder.

    Attributes:
        service_callback: grant-time callback deciding a transaction's
            occupancy (the system's L2 lookup); shared by every bus channel.
        read_callback: fired when a DRAM read completes; the system uses it
            to post the response transfer on the chain's response channel.
        trace: the system's request trace recorder, if tracing is enabled.
        pmc: the system's performance counter block.
        arbiter: externally constructed arbiter overriding the policy named
            in ``config.bus`` for the *request* channel; must match that
            channel's port count.
    """

    service_callback: ServiceCallback
    read_callback: Optional[ReadCallback] = None
    trace: Optional[TraceRecorder] = None
    pmc: Optional[PerformanceCounters] = None
    arbiter: Optional[Arbiter] = None


@dataclass(frozen=True)
class ResourceChain:
    """A built topology: the resources plus the system-facing wiring.

    Attributes:
        resources: the shared-resource chain in phase order; every engine
            drives exactly this tuple through the event-port surface.
        request_bus: the channel cores post demand requests on.
        memctrl: the controller owning DRAM reads/writes and the
            :class:`~repro.sim.memctrl.MemCtrlStats` PMC surface.
        response_bus: the channel memory responses return on (the request
            bus itself on shared-bus topologies).
        response_port_of: maps a core id to its response port on
            ``response_bus`` (the shared extra port on single-bus
            topologies, the core's own port on ``split_bus``).
    """

    resources: Tuple[SharedResource, ...]
    request_bus: Bus
    memctrl: MemoryController
    response_bus: Bus
    response_port_of: Callable[[int], int]


#: Builder signature: given the platform configuration and the system's
#: hooks, return the full resource chain.
TopologyBuilder = Callable[[ArchConfig, TopologyHooks], ResourceChain]


@dataclass(frozen=True)
class TopologyEntry:
    """One registered topology."""

    name: str
    builder: TopologyBuilder
    description: str = ""


#: Topology name -> registered entry, in registration order.
TOPOLOGY_REGISTRY: Registry[TopologyEntry] = Registry("topology")


def register_topology(name: str, description: str = ""):
    """Decorator registering a topology builder under ``name``.

    Re-registering a name is a configuration error, for the same reason as
    with arbiters: two identical configurations must never build different
    platforms.
    """

    def decorator(builder: TopologyBuilder) -> TopologyBuilder:
        TOPOLOGY_REGISTRY.register(
            name, TopologyEntry(name=name, builder=builder, description=description)
        )
        return builder

    return decorator


def registered_topologies() -> Tuple[str, ...]:
    """Names of every registered topology, in registration order."""
    return TOPOLOGY_REGISTRY.names()


def build_topology(config: ArchConfig, hooks: TopologyHooks) -> ResourceChain:
    """Build the resource chain named by ``config.topology``."""
    return TOPOLOGY_REGISTRY.require(config.topology.name).builder(config, hooks)


def _request_bus(
    config: ArchConfig, hooks: TopologyHooks, num_ports: int
) -> Bus:
    """The demand-request channel shared by every built-in topology."""
    arbiter = hooks.arbiter
    if arbiter is None:
        arbiter = make_arbiter(config.bus, num_ports)
    return Bus(
        num_ports=num_ports,
        arbiter=arbiter,
        service_callback=hooks.service_callback,
        trace=hooks.trace,
        pmc=hooks.pmc,
    )


@register_topology(
    "bus_only",
    "single arbitrated bus; memory accesses schedule on arrival (the paper's platform)",
)
def _build_bus_only(config: ArchConfig, hooks: TopologyHooks) -> ResourceChain:
    # One demand port per core plus the shared split-transaction response port.
    bus = _request_bus(config, hooks, config.num_cores + 1)
    memctrl = MemoryController(config.dram, read_callback=hooks.read_callback)
    response_port = config.num_cores
    return ResourceChain(
        resources=(bus, memctrl),
        request_bus=bus,
        memctrl=memctrl,
        response_bus=bus,
        response_port_of=lambda core_id: response_port,
    )


@register_topology(
    "bus_bank_queues",
    "arbitrated bus feeding per-DRAM-bank arbitrated memory-controller queues",
)
def _build_bus_bank_queues(config: ArchConfig, hooks: TopologyHooks) -> ResourceChain:
    topology = config.topology
    bus = _request_bus(config, hooks, config.num_cores + 1)
    memctrl = BankQueuedMemoryController(
        config.dram,
        read_callback=hooks.read_callback,
        num_ports=config.num_cores,
        arbitration=topology.mem_arbitration,
        tdma_slot=topology.mem_tdma_slot,
    )
    response_port = config.num_cores
    return ResourceChain(
        resources=(bus, memctrl),
        request_bus=bus,
        memctrl=memctrl,
        response_bus=bus,
        response_port_of=lambda core_id: response_port,
    )


@register_topology(
    "split_bus",
    "split-transaction bus: arbitrated request channel into per-bank queues, "
    "arbitrated response channel returning the data",
)
def _build_split_bus(config: ArchConfig, hooks: TopologyHooks) -> ResourceChain:
    topology = config.topology
    num_cores = config.num_cores
    # The request channel carries demand traffic only (no response port).
    request = _request_bus(config, hooks, num_cores)
    memctrl = BankQueuedMemoryController(
        config.dram,
        read_callback=hooks.read_callback,
        num_ports=num_cores,
        arbitration=topology.mem_arbitration,
        tdma_slot=topology.mem_tdma_slot,
    )
    # The response channel has one port per core; with at most one
    # outstanding demand miss per core, each port holds at most one pending
    # response, which is what makes the (Nc - 1) * response-occupancy bound
    # of ArchConfig.ubd_terms exact for fair arbitration.
    response = Bus(
        num_ports=num_cores,
        arbiter=create_arbiter(
            topology.response_arbitration,
            num_cores,
            tdma_slot=topology.response_tdma_slot,
        ),
        service_callback=hooks.service_callback,
        trace=hooks.trace,
        pmc=hooks.pmc,
        resource_name="bus_response",
    )
    # Phase order is data-flow order: request deliveries may enqueue into
    # the bank queues, bank deliveries post responses, and a response posted
    # in this very cycle can still be granted in this cycle's arbitration
    # phase — exactly the single-bus timing of DESIGN.md Section 5.
    return ResourceChain(
        resources=(request, memctrl, response),
        request_bus=request,
        memctrl=memctrl,
        response_bus=response,
        response_port_of=lambda core_id: core_id,
    )
