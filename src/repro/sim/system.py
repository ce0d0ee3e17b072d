"""Multicore system assembly and simulation loop.

:class:`System` wires together the cores, the shared bus, the
way-partitioned L2, the memory subsystem selected by ``config.topology``
(:mod:`repro.sim.topology`) and the measurement infrastructure (PMCs and the
request trace), and exposes the platform's shared-resource chain
(``System.resources``) to the simulation engines.

Cycle structure (see DESIGN.md, Section 5) — deliver every resource front to
back, tick the cores, arbitrate every resource front to back:

1. the bus delivers a transaction whose occupancy ends in this cycle;
2. the memory controller delivers DRAM reads that completed, posting their
   split-transaction responses on the dedicated response port;
3. every core ticks: it may retire instructions (a whole straight-line
   segment of ``nop``/``alu`` instructions and DL1-resident loads at once,
   except under the ``stepped`` oracle), post demand requests that are
   ready in this very cycle, and drain its store buffer;
4. the bus arbitrates and, if free, grants one pending request;
5. on multi-resource topologies, each free DRAM bank's queue arbitrates and
   starts one pending access (a no-op on the paper's ``bus_only`` platform).

The loop is one of the four cycle-exact engines registered in
:mod:`repro.sim.scheduler`, and ``config.engine`` alone selects it: the
``stepped`` oracle that visits every cycle, the ``event`` fast path that
jumps the clock to the earliest component horizon (bus delivery, DRAM
completion, execute-stage end), the ``codegen`` loop generated for the
concrete chain, and ``replay``, which streams captured core-side traces.
The engines change speed, never observable timing; a property test
cross-checks all four against the oracle instruction for instruction.

Steady-state skipping (:mod:`repro.sim.steady`): on ``event`` and
``codegen``, an untraced run with one observed core is driven in chunks
through the engine's ``max_cycles`` stop.  At each loop-back of the
observed core the system takes a cycle-normalised key of every component
(:meth:`System.steady_key`); once a key repeats, the run ends at the first
loop-back with whole periods left, and :meth:`System.steady_advance` adds
them — shifted cycles and LRU stamps, counters raised by the period's
deltas.  Where a finite contender's end or ``max_cycles`` falls inside
that jump, fewer periods are added and the rest is simulated.
``SystemResult.skip`` records what was skipped, or why nothing was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..config import ArchConfig
from ..errors import ConfigurationError, SimulationError
from .arbiter import Arbiter
from .bus import BusRequest
from .core import Core
from .isa import Program
from .l2 import PartitionedL2
from .memctrl import MemCtrlStats, PendingRead
from .pmc import PerformanceCounters
from .request_trace import RequestRecord, TraceRecorder
from .scheduler import make_engine
from .steady import Counts, Key, SteadySkip, run_skipping, skip_record
from .topology import TopologyHooks, build_topology

#: Default safety bound on simulated cycles; long experiments may raise it.
DEFAULT_MAX_CYCLES = 200_000_000


@dataclass
class SystemResult:
    """Outcome of one simulation run.

    Attributes:
        cycles: total number of simulated cycles (last processed cycle + 1).
        done_cycles: per-core retirement cycle of the last instruction, for
            the cores that finished (``None`` for infinite/ idle cores).
        instructions: per-core retired instruction counts.
        pmc: the performance counter block (bus utilisation, request counts).
        memctrl_stats: the memory controller's counter surface (queue waits,
            read latencies) — the per-resource PMC section the measured-bound
            pipeline reads the ``memory`` stage's worst case from.
        trace: the request trace, if recording was enabled.
        timed_out: True when the run stopped at ``max_cycles`` instead of at
            program completion.
        skip: whether the run skipped its steady state, by how many
            iterations, or why not (see :mod:`repro.sim.steady`).
    """

    cycles: int
    done_cycles: List[Optional[int]]
    instructions: List[int]
    pmc: PerformanceCounters
    memctrl_stats: Optional[MemCtrlStats] = None
    trace: Optional[TraceRecorder] = None
    timed_out: bool = False
    skip: Optional[SteadySkip] = None

    def execution_time(self, core_id: int) -> int:
        """Execution time (cycles) of ``core_id``; raises if it never finished."""
        done = self.done_cycles[core_id]
        if done is None:
            raise SimulationError(f"core {core_id} did not finish; execution time undefined")
        return done


class System:
    """A simulated multicore platform running one program per core.

    Args:
        config: the architecture to model.
        programs: one entry per core; ``None`` leaves the core idle.
            Fewer entries than cores are padded with idle cores.
        trace: enable request-level tracing (needed for Figure 6 analyses).
        preload_l2: install every program's data lines in the owning core's
            L2 partition before starting, removing cold-miss noise (the paper
            measures warmed-up steady state).
        preload_il1: install every program's code lines in the owning core's
            IL1 before starting.
        preload_dl1: install data lines also in the DL1 (rarely wanted — the
            rsk kernels rely on DL1 misses — but useful for cache-resident
            synthetic workloads and tests).
        arbiter: optional externally constructed arbiter for the request
            channel (overrides the policy named in ``config.bus``); must
            match that channel's port count — ``num_cores + 1`` on
            shared-bus topologies (the extra port carries responses),
            ``num_cores`` on ``split_bus``.
    """

    def __init__(
        self,
        config: ArchConfig,
        programs: Sequence[Optional[Program]],
        trace: bool = False,
        preload_l2: bool = False,
        preload_il1: bool = False,
        preload_dl1: bool = False,
        arbiter: Optional[Arbiter] = None,
    ) -> None:
        if len(programs) > config.num_cores:
            raise ConfigurationError(
                f"{len(programs)} programs supplied for {config.num_cores} cores"
            )
        self.config = config
        padded: List[Optional[Program]] = list(programs) + [None] * (
            config.num_cores - len(programs)
        )
        self.programs = padded

        self.pmc = PerformanceCounters(num_cores=config.num_cores)
        self.trace = TraceRecorder(enabled=trace)
        # Grant-time service occupancies, resolved once: these are derived
        # config properties and _service_request runs once per transaction.
        self._svc_response = config.bus_service_response
        self._svc_store = config.bus_service_store
        self._svc_l2_hit = config.bus_service_l2_hit
        self._svc_miss = config.bus_service_miss_request
        #: Maps a response request (by identity) to the demand kind it
        #: resolves and the original request's trace record, if any.
        self._response_meta: Dict[int, Tuple[str, Optional[RequestRecord]]] = {}
        self.l2 = PartitionedL2(config)

        chain = build_topology(
            config,
            TopologyHooks(
                service_callback=self._service_request,
                read_callback=self._on_dram_read_done,
                trace=self.trace,
                pmc=self.pmc,
                arbiter=arbiter,
            ),
        )
        #: The channel cores post demand requests on (the single shared bus
        #: on the paper's platform, the request channel on ``split_bus``).
        self.bus = chain.request_bus
        #: The channel memory responses return on (``bus`` itself unless the
        #: topology splits the transaction phases).
        self.response_bus = chain.response_bus
        self.memctrl = chain.memctrl
        self._response_port_of = chain.response_port_of
        #: Port index carrying responses on shared-bus topologies (kept for
        #: introspection; ``split_bus`` returns data on the core's own
        #: response-channel port instead).
        self.response_port = config.num_cores
        #: The platform's shared-resource chain, in phase order (see
        #: :mod:`repro.sim.resource`): every engine delivers these front to
        #: back, tick the cores, then arbitrate front to back, and the event
        #: horizon is the minimum over the chain.  Which resources exist is
        #: decided by ``config.topology`` (:mod:`repro.sim.topology`).
        self.resources = chain.resources

        self.cores: List[Core] = [
            Core(
                core_id=index,
                config=config,
                program=padded[index],
                issue_request=self._issue_demand,
                pmc=self.pmc,
            )
            for index in range(config.num_cores)
        ]

        self._preload(preload_l2, preload_il1, preload_dl1)
        #: Preload flags, recorded for the replay engine: the IL1/DL1 flags
        #: are core-side (they change the captured miss sequence and join
        #: the trace key); the L2 flag is system-side (the L2 stays live
        #: during replay) and is kept for introspection only.
        self.preload_l2 = preload_l2
        self.preload_il1 = preload_il1
        self.preload_dl1 = preload_dl1
        self.current_cycle = 0
        #: The engine instance of the latest :meth:`run` (``None`` before
        #: the first): which engine ran, and its fallback/replay surface.
        self.engine: Any = None

    # ------------------------------------------------------------------ #
    # Cache preloading (warm-up substitute).
    # ------------------------------------------------------------------ #
    def _preload(self, preload_l2: bool, preload_il1: bool, preload_dl1: bool) -> None:
        line = self.config.line_size
        for core_id, program in enumerate(self.programs):
            if program is None:
                continue
            data_lines, code_lines = program.footprint(line)
            if preload_l2:
                self.l2.preload(core_id, data_lines)
            if preload_il1:
                for addr in code_lines:
                    self.cores[core_id].il1.fill(addr)
            if preload_dl1:
                for addr in data_lines:
                    self.cores[core_id].dl1.fill(addr)

    # ------------------------------------------------------------------ #
    # Bus-side callbacks.
    # ------------------------------------------------------------------ #
    def _issue_demand(self, core_id: int, kind: str, addr: int, ready_cycle: int) -> None:
        """Post a demand request (load / ifetch / store drain) for ``core_id``."""
        self.bus.post(
            BusRequest(core_id, kind, addr, ready_cycle, core_id, self._complete_demand)
        )

    def _service_request(self, request: BusRequest, cycle: int) -> int:
        """Grant-time callback: perform the L2 lookup and return the occupancy."""
        kind = request.kind
        if kind == "load" or kind == "ifetch":
            hit = self.l2.lookup(request.origin_core, request.addr, is_write=False)
            return self._svc_l2_hit if hit else self._svc_miss
        if kind == "response":
            return self._svc_response
        if kind == "store":
            self.l2.lookup(request.origin_core, request.addr, is_write=True)
            return self._svc_store
        raise SimulationError(f"unknown bus request kind {kind!r}")

    def _complete_demand(self, request: BusRequest, cycle: int) -> None:
        """Completion callback for demand requests posted by cores."""
        kind = request.kind
        core = self.cores[request.origin_core]
        if kind == "load" or kind == "ifetch":
            # _deliver_line inlined: this is the per-request hot path.
            if self.l2.contains(request.addr):
                if kind == "ifetch":
                    core.on_instruction_line(request.addr, cycle)
                else:
                    core.on_data_line(request.addr, cycle)
            else:
                self.pmc.dram_accesses += 1
                self.memctrl.enqueue_read(
                    request.origin_core,
                    request.addr,
                    cycle,
                    kind=kind,
                    record=request.record,
                )
            return
        if kind == "store":
            core.on_store_drained(cycle)
            if not self.l2.contains(request.addr):
                # Write-through, no-allocate: the write continues to memory.
                self.memctrl.enqueue_write(
                    request.addr,
                    cycle,
                    core_id=request.origin_core,
                    record=request.record,
                )
            return
        raise SimulationError(f"unexpected completion for kind {request.kind!r}")

    def _on_dram_read_done(self, pending: PendingRead, cycle: int) -> None:
        """A DRAM read finished: fill the L2 and post the response transfer."""
        self.l2.fill(pending.core_id, pending.addr)
        response = BusRequest(
            port=self._response_port_of(pending.core_id),
            kind="response",
            addr=pending.addr,
            ready_cycle=cycle,
            origin_core=pending.core_id,
            on_complete=self._complete_response,
        )
        # Remember what the response resolves (and the original request's
        # trace record) so completion can route it and stamp the
        # response-phase timing into the end-to-end record.
        self._response_meta[id(response)] = (pending.kind, pending.record)
        if pending.record is not None:
            pending.record.response_ready_cycle = cycle
        self.response_bus.post(response)

    def _complete_response(self, request: BusRequest, cycle: int) -> None:
        """The response transfer of an L2 miss reached the requesting core."""
        kind, origin_record = self._response_meta.pop(id(request), ("load", None))
        if origin_record is not None:
            origin_record.response_grant_cycle = request.grant_cycle
            origin_record.response_complete_cycle = cycle
        core = self.cores[request.origin_core]
        self._deliver_line(core, kind, request.addr, cycle)

    def _deliver_line(self, core: Core, kind: str, addr: int, cycle: int) -> None:
        if kind == "ifetch":
            core.on_instruction_line(addr, cycle)
        else:
            core.on_data_line(addr, cycle)

    # ------------------------------------------------------------------ #
    # Simulation loop.
    # ------------------------------------------------------------------ #
    def run(
        self,
        observed_cores: Optional[Sequence[int]] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ) -> SystemResult:
        """Simulate until every observed core finished its program.

        Args:
            observed_cores: cores whose completion terminates the run; by
                default, every core with a finite program.  Contender cores
                running infinite kernels keep executing until then.
            max_cycles: safety bound; the run stops (with ``timed_out=True``)
                if it is reached.

        The engine named by ``config.engine`` runs the loop and is kept as
        :attr:`engine`.  Its class decides whether the cores fast-forward
        straight-line code (every engine but the ``stepped`` oracle) and
        whether the run skips its steady state (``event`` and ``codegen``,
        untraced, one observed core; see :mod:`repro.sim.steady`); after
        it returns, every core is finalized at the last processed cycle, so
        a run that ends inside a segment counts exactly the instructions,
        and applies exactly the cache lookups, retired by then.
        """
        if observed_cores is None:
            observed_cores = [
                index
                for index, program in enumerate(self.programs)
                if program is not None and not program.is_infinite
            ]
        observed = list(observed_cores)
        for core_id in observed:
            if not 0 <= core_id < self.config.num_cores:
                raise ConfigurationError(f"observed core {core_id} does not exist")
            if self.programs[core_id] is None:
                raise ConfigurationError(f"observed core {core_id} has no program")
            if self.programs[core_id].is_infinite:
                raise ConfigurationError(
                    f"observed core {core_id} runs an infinite program and never finishes"
                )
        if not observed:
            raise ConfigurationError("no observed cores: the run would never terminate")

        self.engine = make_engine(self.config.engine, self)
        for core in self.cores:
            # (An earlier replay run may have left trace-streaming cores.)
            if isinstance(core, Core):
                core.fast_forward = self.engine.fast_forward
        cycle, timed_out, skipped = run_skipping(self, observed, max_cycles)
        for core in self.cores:
            core.finalize(cycle)
        return SystemResult(
            cycles=cycle + 1,
            done_cycles=[core.done_cycle for core in self.cores],
            instructions=[core.instructions_retired for core in self.cores],
            pmc=self.pmc,
            memctrl_stats=self.memctrl.stats,
            trace=self.trace if self.trace.enabled else None,
            timed_out=timed_out,
            skip=skip_record(self, observed, skipped),
        )

    # ------------------------------------------------------------------ #
    # Steady-state key/advance (see repro.sim.steady).
    # ------------------------------------------------------------------ #
    def steady_blocker(self) -> Optional[str]:
        """Why no key can be taken of this system, or ``None``."""
        for core in self.cores:
            if type(core) is not Core:
                return f"core {core.core_id} is a {type(core).__name__}, not the built-in Core"
        return None

    def _steady_parts(self) -> List[Any]:
        return [*self.cores, self.l2, *self.resources, self.pmc]

    def steady_key(self, cycle: int) -> Key:
        """The whole system's state normalised to ``cycle``, and its counts.

        Besides every component's own key, the state holds which demand
        kind each live response resolves (``_response_meta``, keyed by the
        response's identity, in the response channel's order).
        """
        parts = [part.steady_key(cycle) for part in self._steady_parts()]
        resolves = {key: kind for key, (kind, _) in self._response_meta.items()}
        responses = tuple(resolves.get(id(request)) for request in self.response_bus.requests())
        return (
            tuple(state for state, _ in parts) + (responses,),
            tuple(counts for _, counts in parts),
        )

    def steady_probe(self, cycle: int) -> Hashable:
        """The part of :meth:`steady_key` that walks no cache: each core's
        cheap state (:meth:`repro.sim.core.Core.steady_probe`) and the
        shared resources.  Two loop-backs whose keys are equal share it.

        Both halves earn their place: the cores' tell apart the loop-backs
        of a synthetic workload whose resources happen to be idle, the
        resources' those of a run that never repeats because a request
        waits ever longer (a fixed-priority bus starving a contender).
        """
        return (
            tuple(core.steady_probe(cycle) for core in self.cores),
            tuple(resource.steady_key(cycle)[0] for resource in self.resources),
        )

    def steady_advance(self, shift: int, periods: int, before: Counts, after: Counts) -> None:
        """Move every component ``periods`` periods (``shift`` cycles) on;
        ``before``/``after`` are the counts of two matching keys."""
        for part, old, new in zip(self._steady_parts(), before, after):
            part.steady_advance(shift, periods, old, new)

    def steady_cursors(self, before: Counts, after: Counts) -> List[Tuple[int, int]]:
        """Each core's program cursor in the counts ``before`` and ``after``."""
        return [(old[0], new[0]) for old, new in zip(before[: len(self.cores)], after)]

    # ------------------------------------------------------------------ #
    # Introspection helpers used by the methodology layer.
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Short description of the platform and the mapped programs."""
        return {
            "config": self.config.describe(),
            "programs": [
                program.summary() if program is not None else "idle"
                for program in self.programs
            ],
        }
