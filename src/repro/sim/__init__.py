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
core, and ``ArchConfig.engine`` alone selects an engine.
:mod:`repro.sim.scheduler` registers the built-in engines: ``stepped`` and
``event`` beside their classes, ``codegen`` and ``replay`` by import path,
so their modules load only when a run selects them.  Four engines ship
built in: the
stepped cycle-by-cycle oracle, the generic event-driven fast path
(:mod:`repro.sim.scheduler`), the ``codegen`` engine
(:mod:`repro.sim.codegen`), which compiles a run loop specialised to the
configured topology chain and arbiter set and falls back to the event
engine for anything it cannot specialise, and the ``replay`` engine
(:mod:`repro.sim.trace`), which captures each core's demand-request trace
once per kernel and streams it through the live interconnect on every
later run (binding its loop through ``codegen``), falling back per core on
trace-unsafe programs.

The top-level entry point is :class:`repro.sim.system.System`.  Like every
``repro`` package, this one re-exports its public names lazily
(:mod:`repro.lazy`).
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "isa": ("Alu", "Instruction", "Load", "Nop", "Program", "Store"),
        "arbiter": (
            "ARBITER_REGISTRY",
            "Arbiter",
            "FifoArbiter",
            "FixedPriorityArbiter",
            "RoundRobinArbiter",
            "TdmaArbiter",
            "create_arbiter",
            "make_arbiter",
            "register_arbiter",
            "registered_arbiters",
        ),
        "bus": ("Bus", "BusRequest"),
        "cache": ("CacheStats", "SetAssociativeCache"),
        "codegen": (
            "CodegenEngine",
            "CodegenMismatch",
            "CompiledLoop",
            "UnspecialisableError",
            "compile_loop",
            "generate_loop_source",
            "loop_cache_key",
            "specialisation_mismatch",
        ),
        "core": ("Core",),
        "dram": ("Dram",),
        "l2": ("PartitionedL2",),
        "memctrl": ("BankQueuedMemoryController", "MemoryController"),
        "pmc": ("PerformanceCounters",),
        "request_trace": ("RequestRecord", "TraceRecorder", "merge_traces"),
        "resource": ("NO_EVENT", "SharedResource"),
        "scheduler": (
            "ENGINE_REGISTRY",
            "EventScheduler",
            "SteppedEngine",
            "make_engine",
            "register_engine",
            "registered_engines",
        ),
        "steady": ("SteadySkip",),
        "store_buffer": ("StoreBuffer",),
        "system": ("System", "SystemResult"),
        "topology": (
            "TOPOLOGY_REGISTRY",
            "ResourceChain",
            "TopologyHooks",
            "build_topology",
            "register_topology",
            "registered_topologies",
        ),
        "trace": (
            "CaptureProbe",
            "CoreTrace",
            "ReplayCore",
            "ReplayEngine",
            "TraceCache",
            "TraceStep",
            "TraceUnsafe",
            "clear_trace_cache",
            "core_side_key",
            "global_trace_cache",
            "replay_blocker",
            "trace_key",
        ),
    },
)
