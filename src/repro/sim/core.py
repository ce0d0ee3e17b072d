"""In-order core model.

Each core executes one :class:`repro.sim.isa.Program`.  The pipeline is the
minimal model that captures the timing effects the paper relies on:

* instruction fetch is pipelined, so an IL1 hit adds no visible latency; an
  IL1 miss stalls the core and fetches the line over the shared bus;
* ``nop`` and ``alu`` instructions occupy the core for their latency;
* a load occupies the core for the DL1 hit latency, then either completes
  (DL1 hit or store-buffer forward) or posts a bus request and stalls until
  the data returns — consequently the *injection time* between two
  back-to-back loads that miss equals the DL1 latency (1 cycle on ``ref``,
  4 on ``var``), exactly as assumed in Sections 3 and 5 of the paper;
* a store occupies the core for the DL1 latency and then retires into the
  store buffer; the core only stalls when the buffer is full.  Buffered
  stores drain over the bus in the background.

The core never talks to the bus directly: it calls the ``issue_request``
callback installed by :class:`repro.sim.system.System`, which owns the L2 /
memory-controller side of every transaction.

Straight-line fast-forward: the paper's ``rsk-nop`` kernels are mostly
nops, and the synthetic EEMBC-like workloads mostly compute and hit the
DL1, so on every engine whose class sets ``fast_forward`` (all but the
``stepped`` oracle, which is the reference the others are checked against)
the core executes a run of body ``nop``/``alu``/``load`` instructions as
one execute-stage occupancy, a *segment*.  A segment starts at a body
``nop``/``alu``, or at a load whose DL1 line is resident, whose fetch hit
the IL1.  Its run ends at the next store, at the end of the body, at the
first load whose DL1 line is not resident, or before the first IL1 line
that is not resident.  The store or load that ends it joins the segment as
its *tail* when its fetch hits the IL1: the segment then also occupies the
tail's DL1 latency, and its closing tick does the tail's DL1 access and its
store-buffer push or miss post, at the cycle the one-by-one core does them.

Both L1s are private and fill only when this core's own ifetch or load
completes, which never happens inside a segment (stores are write-through
and no-allocate), so residency cannot change inside a segment and one
check of each at its start is exact.  The closing tick retires the run
with batched PMC counts and applies the IL1 and DL1 lookups it would have
made one by one (same hit counts, same LRU stamps).  Store-buffer drains
stay exact: one only becomes possible on a delivery, and deliveries wake
the core in that very cycle; the cycle a tail saves (the one-by-one core's
tick that starts the tail) drains nothing for the same reason.

Each segment is worked out once per residency state: every cache counts a
*generation* that changes with its resident set, and the second time a
body position opens a segment at the same (IL1, DL1) generations, the core
keeps a plan of it (its end and the stamps its lookups write), so later
opens read the plan instead of probing the caches.

A run that ends inside a segment is settled by :meth:`Core.finalize`,
which :meth:`repro.sim.system.System.run` calls on every core.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from itertools import accumulate, compress
from operator import attrgetter
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..config import ArchConfig
from ..errors import SimulationError
from .cache import LookupPlan, SetAssociativeCache
from .isa import INSTRUCTION_BYTES, Alu, Instruction, Load, Nop, Program, Store
from .pmc import PerformanceCounters
from .resource import NO_EVENT
from .steady import Counts, Key, until
from .store_buffer import StoreBuffer

#: Callback used by the core to start a bus transaction:
#: ``issue_request(core_id, kind, addr, ready_cycle)``.
IssueCallback = Callable[[int, str, int, int], None]

#: Callback fired when the core is about to start body position 0 of its
#: second or a later iteration, before the cursor moves: ``loop_back(cycle)``.
#: True ends the program there instead: the core goes ``DONE`` at ``cycle``
#: and the caller accounts for the iterations it did not run.
LoopBackCallback = Callable[[int], bool]


class CoreState(enum.Enum):
    """Execution state of a core."""

    READY = "ready"
    EXECUTING = "executing"
    WAIT_IFETCH = "wait_ifetch"
    WAIT_LOAD = "wait_load"
    STALL_STORE_BUFFER = "stall_store_buffer"
    DONE = "done"


class _Phase(enum.Enum):
    """What the current occupancy of the execute stage represents."""

    SIMPLE = "simple"
    DL1_LOAD = "dl1_load"
    DL1_STORE = "dl1_store"
    SEGMENT = "segment"


def _class_cost(cls: type, dl1_latency: int, nop_latency: int) -> Optional[int]:
    """Execute occupancy of each instruction of class ``cls``, or ``None``
    for an :class:`~repro.sim.isa.Alu` class, whose instructions carry
    their own."""
    if issubclass(cls, Alu):
        return None
    if issubclass(cls, (Load, Store)):
        return dl1_latency
    return nop_latency


class CompiledProgram:
    """A program as a core walks it: tables built once per program object.

    :meth:`of` builds them the first time a core runs the program on a given
    (DL1 hit latency, nop latency) pair and keeps them on the program
    (:meth:`repro.sim.isa.Program.derived`), so every core and every run of
    that program object reads the same tables.  Nothing here depends on a
    cache's contents: the segment plans, which hold one cache's own lines,
    live on the core instead (``Core._plans``).

    The core's cursor counts the instructions it started: the prologue,
    then the body ``iterations`` times, ``total`` in all (``None`` if the
    program is infinite, 0 for an idle core).  Body instruction ``i`` sits
    at ``body_pc + i * INSTRUCTION_BYTES``, and the prologue right before
    it, at negative ``i``.

    The straight-line segments are indexed by body position, so a segment
    may start anywhere inside a run (an IL1 or DL1 miss can split a run):

    * ``run_stop[i]`` — end (exclusive) of the maximal ``nop``/``alu``/
      ``load`` run holding body instruction ``i``; ``i`` itself for any
      other instruction, which never joins a segment;
    * ``latency[i]`` — summed execute occupancy of body instructions
      ``[0, i)`` (loads and stores occupy the DL1 hit latency), so the
      segment ``[j, e)`` occupies the core for ``latency[e] - latency[j]``
      cycles, instruction ``i`` retires ``latency[e] - latency[i + 1]``
      cycles before the segment ends, and ``latency[-1]`` is a lower bound
      on one iteration;
    * ``nops[i]`` and ``loads[i]`` — number of ``nop`` and of ``load``
      among body instructions ``[0, i)`` (the rest of a segment are
      ``alu``, which only count as instructions in the PMCs);
    * ``load_at`` and ``load_addr`` — body position and address of each
      body load, in order, so the loads of ``[j, e)`` are entries
      ``loads[j]`` to ``loads[e]`` of both.

    An instruction's cost, and whether it counts as a nop or a load, follow
    from its class alone (subclasses included; only an ``Alu`` brings its
    own latency), so each table is one pass over per-class values.  Only
    exact :class:`~repro.sim.isa.Nop`, :class:`~repro.sim.isa.Alu` and
    :class:`~repro.sim.isa.Load` instances form runs, and only an exact
    :class:`~repro.sim.isa.Store` or ``Load`` is a tail; subclasses execute
    one at a time.
    """

    __slots__ = (
        "prologue",
        "body",
        "body_pc",
        "total",
        "run_stop",
        "latency",
        "nops",
        "loads",
        "load_at",
        "load_addr",
    )

    def __init__(self, program: Optional[Program], dl1_latency: int, nop_latency: int) -> None:
        self.prologue: Tuple[Instruction, ...] = ()
        self.body: Tuple[Instruction, ...] = ()
        self.body_pc = 0
        self.total: Optional[int] = 0
        if program is not None:
            self.prologue = program.prologue
            self.body = program.body
            self.body_pc = program.base_pc + len(program.prologue) * INSTRUCTION_BYTES
            self.total = program.total_instructions
        body = self.body
        size = len(body)
        kinds = list(map(type, body))
        classes = set(kinds)
        # Per class: its cost, whether it counts as a nop or as a load, and
        # whether it ends a run.
        cost = {cls: _class_cost(cls, dl1_latency, nop_latency) for cls in classes}
        is_nop = {cls: int(issubclass(cls, Nop)) for cls in classes}
        is_load = {cls: int(issubclass(cls, Load)) for cls in classes}
        ends_run = {cls: cls not in (Nop, Alu, Load) for cls in classes}
        costs: List[Any] = list(map(cost.__getitem__, kinds))
        if None in cost.values():
            costs = [
                instr.latency if latency is None else latency for latency, instr in zip(costs, body)
            ]
        load_flags = list(map(is_load.__getitem__, kinds))
        self.latency: List[int] = [0, *accumulate(costs)]
        self.nops: List[int] = [0, *accumulate(map(is_nop.__getitem__, kinds))]
        self.loads: List[int] = [0, *accumulate(load_flags)]
        self.load_at: List[int] = list(compress(range(size), load_flags))
        self.load_addr: List[int] = list(map(attrgetter("addr"), compress(body, load_flags)))
        # A run's members stop at the instruction that ends it, which stops
        # at itself.
        self.run_stop: List[int] = []
        start = 0
        for stop in compress(range(size), map(ends_run.__getitem__, kinds)):
            self.run_stop += [stop] * (stop + 1 - start)
            start = stop + 1
        self.run_stop += [size] * (size - start)

    @classmethod
    def of(cls, program: Optional[Program], config: ArchConfig) -> "CompiledProgram":
        """The tables of ``program`` on ``config`` (an idle core's for ``None``)."""
        if program is None:
            return _IDLE
        dl1_latency = config.dl1.hit_latency
        nop_latency = config.nop_latency
        return program.derived(
            (cls, dl1_latency, nop_latency),
            lambda program: cls(program, dl1_latency, nop_latency),
        )


#: The tables of an idle core: an empty body that is done before it starts.
_IDLE = CompiledProgram(None, 0, 0)


class _SegmentPlan:
    """The segment that opens at one body position, worked out once for one
    (IL1 generation, DL1 generation) pair.

    While both generations hold, the segment's extent and the cache lookups
    it makes are the same at every open, so a plan holds them: ``stop`` and
    ``tail`` as :meth:`Core._segment_extent` returns them, and the
    :data:`~repro.sim.cache.LookupPlan` of the IL1 fetches and of the DL1
    reads that :meth:`Core._retire_segment` makes when the segment retires
    whole.  The first open at a generation pair only notes the pair
    (``stop`` is 0 until then); the second builds the plan, so segments
    whose residency keeps changing never pay for one.
    """

    __slots__ = ("il1_generation", "dl1_generation", "stop", "tail", "il1", "dl1")

    def __init__(self) -> None:
        self.il1_generation = -1
        self.dl1_generation = -1
        self.stop = 0
        self.tail = False
        self.il1: LookupPlan = (0, ())
        self.dl1: LookupPlan = (0, ())


class Core:
    """One in-order core with private IL1/DL1 caches and a store buffer.

    Args:
        core_id: index of the core (also its bus port).
        config: platform configuration.
        program: the program to execute, or ``None`` for an idle core.
        issue_request: callback installed by the system to start bus
            transactions on behalf of this core.
        pmc: shared performance counter block.

    ``fast_forward`` selects straight-line segments (see the module
    docstring).  It is off on a bare core; :meth:`repro.sim.system.System.run`
    sets it from the engine class, and a run with it on must end with
    :meth:`finalize`.

    ``loop_back`` is the steady-state hook (see :mod:`repro.sim.steady`):
    ``None`` on a bare core; the system installs it on the observed core of
    a run that may skip its steady state, the way it installs
    ``issue_request``.
    """

    def __init__(
        self,
        core_id: int,
        config: ArchConfig,
        program: Optional[Program],
        issue_request: IssueCallback,
        pmc: Optional[PerformanceCounters] = None,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.program = program
        self.issue_request = issue_request
        self.pmc = pmc
        self.il1 = SetAssociativeCache(config.il1, name=f"il1[{core_id}]")
        self.dl1 = SetAssociativeCache(config.dl1, name=f"dl1[{core_id}]")
        self.store_buffer = StoreBuffer(config.store_buffer, core_id=core_id)
        self.fast_forward = False
        self.loop_back: Optional[LoopBackCallback] = None
        # Few instance attributes on purpose (27 now; keep them under 30):
        # from 30 on, CPython stops sharing the instance dict's keys and
        # every attribute read in the engine loops gets slower.
        self._code = CompiledProgram.of(program, config)
        #: The segment plan opened at each body position (see _SegmentPlan).
        #: A plan holds this core's own cache lines, so unlike the program's
        #: tables it is never shared.
        self._plans: Dict[int, _SegmentPlan] = {}
        #: Program cursor: instructions started so far (see CompiledProgram).
        self._next = 0

        self.state = CoreState.DONE if program is None else CoreState.READY
        self._phase = _Phase.SIMPLE
        self._busy_until = 0
        self._current_instr: Optional[Instruction] = None
        #: set when an IL1 miss returns and the instruction must start executing
        self._fetched_pending = False
        self._stall_store_addr = 0
        self._stall_entry_cycle = 0
        # The open segment ends at body position _seg_stop (and at cycle
        # _busy_until); the positions before _seg_retired are retired.  With
        # _seg_tail, its last position is a store or a DL1-missing load that
        # the closing tick executes; _seg_plan is the plan it opened from.
        self._seg_stop = 0
        self._seg_retired = 0
        self._seg_tail = False
        self._seg_plan: Optional[_SegmentPlan] = None

        self.instructions_retired = 0
        self.done_cycle: Optional[int] = None
        self.stall_cycles = 0

    # ------------------------------------------------------------------ #
    # Public queries.
    # ------------------------------------------------------------------ #
    @property
    def is_done(self) -> bool:
        """True when the program has fully retired."""
        return self.state is CoreState.DONE

    @property
    def is_waiting_on_bus(self) -> bool:
        """True while the core is stalled waiting for a bus transaction."""
        return self.state in (CoreState.WAIT_IFETCH, CoreState.WAIT_LOAD)

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest future cycle at which this core will do work on its own.

        This is the core's horizon contribution to the event-driven scheduler
        (see :mod:`repro.sim.scheduler`): an executing core's next event is
        the end of its occupancy (a whole segment, when fast-forwarding); a
        ready core acts on the very next visited cycle.  Cores stalled on the
        bus or on the store buffer are woken by bus completions, which the
        scheduler already includes through the bus and memory-controller
        horizons, so they report "no self-driven activity"
        (:data:`~repro.sim.resource.NO_EVENT`).
        """
        if self.state is CoreState.EXECUTING:
            return max(self._busy_until, cycle + 1)
        if self.state is CoreState.READY:
            return cycle
        return NO_EVENT

    def needs_tick(self, cycle: int) -> bool:
        """True when :meth:`tick` would change state at ``cycle``.

        The event engine uses this to skip the per-cycle tick of cores that
        provably cannot act: a core waiting on the bus (or done) with no
        drainable store does nothing in :meth:`tick`, so skipping the call is
        observationally equivalent.  Must be evaluated *after* the cycle's
        delivery phases — a bus completion may have just made the core ready
        or exposed a new store-buffer head.
        """
        state = self.state
        if state is CoreState.READY or state is CoreState.STALL_STORE_BUFFER:
            return True
        if state is CoreState.EXECUTING and cycle >= self._busy_until:
            return True
        # Equivalent to store_buffer.head_ready_to_issue() is not None, open-
        # coded because this predicate runs for every core on every visited
        # cycle of the event engine.
        store_buffer = self.store_buffer
        return bool(store_buffer._entries) and not store_buffer._head_in_flight

    # ------------------------------------------------------------------ #
    # Per-cycle execution.
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        """Advance the core by one cycle (phase 2 of the system loop).

        Then post the store buffer's head on the bus if it is not out
        there already: buffered stores keep draining whatever the core
        does, waiting on the bus and done included.
        """
        state = self.state
        if state is CoreState.EXECUTING:
            if cycle >= self._busy_until:
                self._finish_execute_phase(cycle)
                if self.state is CoreState.READY:
                    self._start_next_instruction(cycle)
        elif state is CoreState.READY:
            self._start_next_instruction(cycle)
        elif state is CoreState.STALL_STORE_BUFFER:
            if self.store_buffer.try_push(self._stall_store_addr, cycle):
                self.stall_cycles += cycle - self._stall_entry_cycle
                if self.pmc is not None:
                    self.pmc.core[self.core_id].store_buffer_full_stalls += (
                        cycle - self._stall_entry_cycle
                    )
                self._retire(cycle)
                self._start_next_instruction(cycle)
        # StoreBuffer.head_ready_to_issue and mark_head_issued, open-coded:
        # every tick of every core ends here.
        store_buffer = self.store_buffer
        if store_buffer._entries and not store_buffer._head_in_flight:
            store_buffer._head_in_flight = True
            self.issue_request(self.core_id, "store", store_buffer._entries[0].addr, cycle)

    def finalize(self, end_cycle: int) -> None:
        """Settle the segment a run ended inside.

        A segment normally retires at its closing tick; when the run stops
        first (an observed core finished, or ``max_cycles``), this retires
        exactly the instructions whose offset is ``<= end_cycle -
        segment_start``, with their PMC counts and IL1/DL1 lookups, so the core
        reads as it would after a one-instruction-at-a-time run.  Idempotent,
        and a no-op outside a segment.
        """
        if self.state is not CoreState.EXECUTING or self._phase is not _Phase.SEGMENT:
            return
        latency = self._code.latency
        # Instruction i retired iff latency[i + 1] <= cutoff, so never the
        # last (a tail included): the closing tick retires it, and has not
        # run.  A tail's fetch counts once the run before it has retired.
        cutoff = latency[self._seg_stop] - (self._busy_until - end_cycle)
        stop = bisect_right(latency, cutoff, self._seg_retired + 1, self._seg_stop + 1) - 1
        self._seg_plan = None
        self._retire_segment(stop)

    # ------------------------------------------------------------------ #
    # Steady-state key/advance pair (see repro.sim.steady).
    # ------------------------------------------------------------------ #
    def _body_position(self) -> int:
        """The cursor as a body position (negative in the prologue)."""
        code = self._code
        position = self._next - len(code.prologue)
        if position > 0:
            position %= len(code.body)
        return position

    def steady_probe(self, cycle: int) -> Hashable:
        """The part of :meth:`steady_key` that walks no cache: the state,
        the body position, the busy offset and the store-buffer
        occupancy."""
        return (
            self.state,
            self._body_position(),
            until(self._busy_until, cycle),
            self.store_buffer.occupancy(),
        )

    def steady_key(self, cycle: int) -> Key:
        """The core's state normalised to ``cycle``: the body position
        instead of the cursor, offsets instead of absolute cycles."""
        position = self._body_position()
        state = self.state
        il1_state, il1_counts = self.il1.steady_key(cycle)
        dl1_state, dl1_counts = self.dl1.steady_key(cycle)
        buffer_state, buffer_counts = self.store_buffer.steady_key(cycle)
        return (
            (
                state,
                self._phase,
                position,
                self._current_instr,
                self._fetched_pending,
                (self._seg_retired, self._seg_stop, self._seg_tail)
                if self._phase is _Phase.SEGMENT
                else None,
                (self._stall_store_addr, self._stall_entry_cycle - cycle)
                if state is CoreState.STALL_STORE_BUFFER
                else None,
                until(self._busy_until, cycle),
                il1_state,
                dl1_state,
                buffer_state,
            ),
            (
                self._next,
                self.instructions_retired,
                self.stall_cycles,
                il1_counts,
                dl1_counts,
                buffer_counts,
            ),
        )

    def steady_advance(self, shift: int, periods: int, before: Counts, after: Counts) -> None:
        """Move the core ``periods`` periods (``shift`` cycles) forward."""
        self._next += periods * (after[0] - before[0])
        self.instructions_retired += periods * (after[1] - before[1])
        self.stall_cycles += periods * (after[2] - before[2])
        self._busy_until += shift
        self._stall_entry_cycle += shift
        self.il1.steady_advance(shift, periods, before[3], after[3])
        self.dl1.steady_advance(shift, periods, before[4], after[4])
        self.store_buffer.steady_advance(shift, periods, before[5], after[5])

    # ------------------------------------------------------------------ #
    # Bus-response entry points (phase 1 callbacks, via the system).
    # ------------------------------------------------------------------ #
    def on_instruction_line(self, addr: int, cycle: int) -> None:
        """An IL1 miss completed; the fetched instruction may now execute."""
        if self.state is not CoreState.WAIT_IFETCH:
            raise SimulationError(
                f"core {self.core_id}: unexpected instruction line at cycle {cycle}"
            )
        self.il1.fill(addr)
        instr = self._current_instr
        if instr is None:
            raise SimulationError(f"core {self.core_id}: ifetch completed with no instruction")
        self.state = CoreState.READY
        self._fetched_pending = True

    def on_data_line(self, addr: int, cycle: int) -> None:
        """A demand load completed; fill the DL1 and retire the load."""
        if self.state is not CoreState.WAIT_LOAD:
            raise SimulationError(f"core {self.core_id}: unexpected data line at cycle {cycle}")
        self.dl1.fill(addr)
        self._retire(cycle)

    def on_store_drained(self, cycle: int) -> None:
        """The store buffer's head finished its bus transaction."""
        self.store_buffer.complete_head(cycle)

    # ------------------------------------------------------------------ #
    # Internal pipeline steps.
    # ------------------------------------------------------------------ #
    def _start_next_instruction(self, cycle: int) -> None:
        if self._fetched_pending:
            # The instruction was already fetched (IL1 miss path); execute it.
            self._fetched_pending = False
            self._begin_execute(cycle, self._current_instr)
            return
        index = self._next
        code = self._code
        if index == code.total:
            self.state = CoreState.DONE
            self.done_cycle = cycle
            return
        position = index - len(code.prologue)
        if position < 0:
            instr = code.prologue[position]
        else:
            if position:
                position %= len(code.body)
                # Loop-back: the hook runs before the cursor moves, and may
                # end the program here (see repro.sim.steady).
                if not position and self.loop_back is not None and self.loop_back(cycle):
                    self.state = CoreState.DONE
                    self.done_cycle = cycle
                    return
            instr = code.body[position]
        self._next = index + 1
        pc = code.body_pc + position * INSTRUCTION_BYTES
        self._current_instr = instr
        if not self.il1.lookup(pc):
            line = self.il1.line_address(pc)
            self.state = CoreState.WAIT_IFETCH
            self.issue_request(self.core_id, "ifetch", line, cycle)
            return
        if self.fast_forward and position >= 0 and code.run_stop[position] != position:
            # A load whose DL1 line is not resident executes alone.
            if not isinstance(instr, Load) or self.dl1.contains(instr.addr):
                self._open_segment(cycle, position, pc)
                return
        self._begin_execute(cycle, instr)

    def _open_segment(self, cycle: int, position: int, pc: int) -> None:
        """Start the segment at body ``position``, a ``nop``/``alu``, or a
        load whose DL1 line is resident, whose fetch at ``pc`` just hit."""
        code = self._code
        il1 = self.il1
        dl1 = self.dl1
        plan = self._plans.get(position)
        if plan is None:
            plan = self._plans[position] = _SegmentPlan()
        if plan.il1_generation != il1.generation or plan.dl1_generation != dl1.generation:
            # First open at these generations: only note them.
            plan.il1_generation = il1.generation
            plan.dl1_generation = dl1.generation
            plan.stop = 0
            stop, tail = self._segment_extent(position, pc)
            plan = None
        elif plan.stop:
            stop, tail = plan.stop, plan.tail
        else:
            # Second open at the same generations: plan the segment.
            stop, tail = self._segment_extent(position, pc)
            plan.stop, plan.tail = stop, tail
            step = INSTRUCTION_BYTES
            plan.il1 = il1.plan_hits(pc + step, stop - position - 1, step)
            loads = code.loads
            plan.dl1 = dl1.plan_reads(code.load_addr[loads[position] : loads[stop - tail]])
        self._next += stop - position - 1
        self._seg_retired = position
        self._seg_stop = stop
        self._seg_tail = tail
        self._seg_plan = plan
        self._phase = _Phase.SEGMENT
        self._busy_until = cycle + code.latency[stop] - code.latency[position]
        self.state = CoreState.EXECUTING

    def _segment_extent(self, position: int, pc: int) -> Tuple[int, bool]:
        """End (exclusive) of the segment that starts at body ``position``,
        and whether its last instruction is a tail."""
        code = self._code
        stop = code.run_stop[position]
        # The segment covers the rest of the run up to the first load whose
        # DL1 line is not resident...
        load_addr = code.load_addr
        contains = self.dl1.contains
        for load in range(code.loads[position + 1], code.loads[stop]):
            if not contains(load_addr[load]):
                stop = code.load_at[load]
                break
        # ... and that load, or the store that ends the run, as its tail ...
        tail = stop < len(code.body) and type(code.body[stop]) in (Load, Store)
        # ... as far as its IL1 lines are resident.
        step = INSTRUCTION_BYTES
        fetches = stop - position - 1 + tail
        resident = self.il1.count_resident(pc + step, fetches, step)
        if resident < fetches:
            return position + 1 + resident, False
        return stop + tail, tail

    def _begin_execute(self, cycle: int, instr: Optional[Instruction]) -> None:
        if instr is None:
            raise SimulationError(f"core {self.core_id}: begin_execute without instruction")
        if isinstance(instr, Nop):
            self._phase = _Phase.SIMPLE
            self._busy_until = cycle + self.config.nop_latency
        elif isinstance(instr, Alu):
            self._phase = _Phase.SIMPLE
            self._busy_until = cycle + instr.latency
        elif isinstance(instr, Load):
            self._phase = _Phase.DL1_LOAD
            self._busy_until = cycle + self.config.dl1.hit_latency
        elif isinstance(instr, Store):
            self._phase = _Phase.DL1_STORE
            self._busy_until = cycle + self.config.dl1.hit_latency
        else:  # pragma: no cover - new instruction kinds must be added here
            raise SimulationError(f"core {self.core_id}: unknown instruction {instr!r}")
        self.state = CoreState.EXECUTING

    def _finish_execute_phase(self, cycle: int) -> None:
        instr = self._current_instr
        phase = self._phase
        if phase is _Phase.SIMPLE:
            self._retire(cycle)
            return
        if phase is _Phase.SEGMENT:
            if not self._seg_tail:
                self._retire_segment(self._seg_stop)
                self.state = CoreState.READY
                return
            # The tail's fetch hit when the run before it retired; its DL1
            # occupancy ends now, as the one-by-one core's would.
            tail = self._seg_stop - 1
            self._retire_segment(tail)
            instr = self._current_instr = self._code.body[tail]
            phase = self._phase = _Phase.DL1_LOAD if type(instr) is Load else _Phase.DL1_STORE
        if phase is _Phase.DL1_LOAD:
            assert isinstance(instr, Load)
            forwarded = self.store_buffer.forwards(instr.addr, self.config.line_size)
            hit = self.dl1.lookup(instr.addr)
            if hit or forwarded:
                self._retire(cycle)
                return
            line = self.dl1.line_address(instr.addr)
            self.state = CoreState.WAIT_LOAD
            self.issue_request(self.core_id, "load", line, cycle)
            return
        if phase is _Phase.DL1_STORE:
            assert isinstance(instr, Store)
            # Write-through, no write-allocate: update the line if present.
            self.dl1.lookup(instr.addr, is_write=True)
            line = self.dl1.line_address(instr.addr)
            if self.store_buffer.try_push(line, cycle):
                self._retire(cycle)
            else:
                self.state = CoreState.STALL_STORE_BUFFER
                self._stall_store_addr = line
                self._stall_entry_cycle = cycle
            return
        raise SimulationError(f"core {self.core_id}: unknown phase {phase}")

    def _retire(self, cycle: int) -> None:
        instr = self._current_instr
        if instr is None:
            raise SimulationError(f"core {self.core_id}: retire without instruction")
        self.instructions_retired += 1
        if self.pmc is not None:
            self.pmc.note_instruction(self.core_id, instr.mnemonic)
        self._current_instr = None
        self.state = CoreState.READY
        del cycle

    def _retire_segment(self, stop: int) -> None:
        """Retire the open segment's body positions up to ``stop``.

        Also applies the cache lookups made by then: the segment's first
        fetch ran when it opened, each retirement starts the next
        instruction of the segment, whose fetch is one more IL1 hit, and
        each load's DL1 lookup, one more hit, ran as it retired.  A segment
        opened from a plan and retired whole applies the plan instead.
        """
        first = self._seg_retired
        count = stop - first
        if count <= 0:
            return
        self._seg_retired = stop
        self.instructions_retired += count
        code = self._code
        loads = code.loads
        if self.pmc is not None:
            counters = self.pmc.core[self.core_id]
            counters.instructions += count
            nops = code.nops
            counters.nops += nops[stop] - nops[first]
            counters.loads += loads[stop] - loads[first]
        plan = self._seg_plan
        if plan is not None:
            self.il1.apply_plan(plan.il1)
            self.dl1.apply_plan(plan.dl1)
            return
        fetched = min(stop + 1, self._seg_stop) - (first + 1)
        if fetched:
            start = code.body_pc + (first + 1) * INSTRUCTION_BYTES
            self.il1.record_hits(start, fetched, INSTRUCTION_BYTES)
        if loads[stop] != loads[first]:
            self.dl1.record_reads(code.load_addr[loads[first] : loads[stop]])

    def _segment_retirements(self, stop: int) -> List[Tuple[int, str]]:
        """``(cycle, mnemonic)`` of each instruction :meth:`_retire_segment`
        would retire for ``stop``, in program order."""
        code = self._code
        origin = self._busy_until - code.latency[self._seg_stop]
        return [
            (origin + code.latency[position + 1], code.body[position].mnemonic)
            for position in range(self._seg_retired, stop)
        ]
