"""Cycle-level multicore simulator substrate.

This subpackage implements the platform the paper experiments on: in-order
cores with private L1 caches, a shared arbitrated bus, a way-partitioned L2,
a memory controller with a banked DRAM model, per-core store buffers,
performance monitoring counters and a request-level trace
(:mod:`repro.sim.request_trace`).  Contention points subclass
:class:`repro.sim.resource.SharedResource` — which also carries the
event-port surface (cached ``horizon``, ``invalidate_horizon``,
``wake_targets``) — and compose into topologies (:mod:`repro.sim.topology`):
the paper's single bus, the bus chained into per-DRAM-bank arbitrated memory
queues, or the NGMP-style split request/response bus pair.

Arbitration policies, simulation engines and topologies are all
registry-backed (``register_arbiter`` / ``register_engine`` /
``register_topology``), so new ones plug in without editing the simulator
core; each built-in engine registers beside its own class, and
``ArchConfig.engine`` alone selects one.  Four engines ship built in: the
stepped cycle-by-cycle oracle, the generic event-driven fast path
(:mod:`repro.sim.scheduler`), the ``codegen`` engine
(:mod:`repro.sim.codegen`), which compiles a run loop specialised to the
configured topology chain and arbiter set and falls back to the event
engine for anything it cannot specialise, and the ``replay`` engine
(:mod:`repro.sim.trace`), which captures each core's demand-request trace
once per kernel and streams it through the live interconnect on every
later run (binding its loop through ``codegen``), falling back per core on
trace-unsafe programs.

The top-level entry point is :class:`repro.sim.system.System`.
"""

from .isa import Alu, Instruction, Load, Nop, Program, Store
from .arbiter import (
    ARBITER_REGISTRY,
    Arbiter,
    FifoArbiter,
    FixedPriorityArbiter,
    RoundRobinArbiter,
    TdmaArbiter,
    create_arbiter,
    make_arbiter,
    register_arbiter,
    registered_arbiters,
)
from .bus import Bus, BusRequest
from .cache import CacheStats, SetAssociativeCache
from .codegen import (
    CodegenEngine,
    CodegenMismatch,
    CompiledLoop,
    UnspecialisableError,
    compile_loop,
    generate_loop_source,
    loop_cache_key,
    specialisation_mismatch,
)
from .core import Core
from .dram import Dram
from .l2 import PartitionedL2
from .memctrl import BankQueuedMemoryController, MemoryController
from .pmc import PerformanceCounters
from .request_trace import RequestRecord, TraceRecorder, merge_traces
from .resource import NO_EVENT, SharedResource
from .scheduler import (
    ENGINE_REGISTRY,
    EventScheduler,
    SteppedEngine,
    make_engine,
    register_engine,
    registered_engines,
)
from .steady import SteadySkip
from .store_buffer import StoreBuffer
from .system import System, SystemResult
from .topology import (
    TOPOLOGY_REGISTRY,
    ResourceChain,
    TopologyHooks,
    build_topology,
    register_topology,
    registered_topologies,
)
from .trace import (
    CaptureProbe,
    CoreTrace,
    ReplayCore,
    ReplayEngine,
    TraceCache,
    TraceStep,
    TraceUnsafe,
    clear_trace_cache,
    core_side_key,
    global_trace_cache,
    replay_blocker,
    trace_key,
)

__all__ = [
    "ARBITER_REGISTRY",
    "Alu",
    "Arbiter",
    "BankQueuedMemoryController",
    "Bus",
    "BusRequest",
    "CacheStats",
    "CaptureProbe",
    "CodegenEngine",
    "CodegenMismatch",
    "CompiledLoop",
    "Core",
    "CoreTrace",
    "Dram",
    "ENGINE_REGISTRY",
    "EventScheduler",
    "FifoArbiter",
    "FixedPriorityArbiter",
    "Instruction",
    "Load",
    "MemoryController",
    "NO_EVENT",
    "Nop",
    "PartitionedL2",
    "PerformanceCounters",
    "Program",
    "ReplayCore",
    "ReplayEngine",
    "RequestRecord",
    "ResourceChain",
    "RoundRobinArbiter",
    "SetAssociativeCache",
    "SharedResource",
    "SteadySkip",
    "SteppedEngine",
    "Store",
    "StoreBuffer",
    "System",
    "SystemResult",
    "TOPOLOGY_REGISTRY",
    "TdmaArbiter",
    "TopologyHooks",
    "TraceCache",
    "TraceRecorder",
    "TraceStep",
    "TraceUnsafe",
    "UnspecialisableError",
    "build_topology",
    "clear_trace_cache",
    "compile_loop",
    "core_side_key",
    "create_arbiter",
    "generate_loop_source",
    "global_trace_cache",
    "loop_cache_key",
    "replay_blocker",
    "trace_key",
    "make_arbiter",
    "make_engine",
    "merge_traces",
    "register_arbiter",
    "register_engine",
    "register_topology",
    "registered_arbiters",
    "specialisation_mismatch",
    "registered_engines",
    "registered_topologies",
]
