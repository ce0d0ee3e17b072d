"""The trace-capture/replay engine (``replay``).

For an in-order blocking core the compute gap between receiving a bus
response and issuing the next demand request is fixed by the kernel and the
private-cache configuration alone — it is independent of interconnect
contention, because each demand chains off the completion of the previous
one.  The core side can therefore be captured *once* as a
dependency-preserving :class:`CoreTrace` (a sequence of
``(compute_gap, request_kind, address)`` steps) and replayed by a
:class:`ReplayCore` through any arbiter, topology or memory configuration
without re-simulating the instruction stream, the IL1/DL1 or the store
buffer.  Traces are content-addressed by :func:`trace_key` (the *core-side
digest*: kernel + cache + core parameters, with every
interconnect/arbiter/engine field stripped — the core-side analogue of
:func:`repro.sim.codegen.loop_cache_key`) and memoised in a
:class:`TraceCache` (in-process LRU, optionally backed by the on-disk
``traces/`` section of :class:`repro.campaign.store.ResultStore`).

:class:`ReplayEngine` registers as the fourth simulation engine
(``"replay"``).  Any core whose program is not trace-safe — it contains
stores (store-buffer drains create contention-coupled background requests),
its capture timed out, or an infinite kernel exposed no periodic request
suffix — transparently falls back to the real execution-driven
:class:`~repro.sim.core.Core`; safety is per core, so a replayed observed
core can share a platform with execution-driven contenders and vice versa.
The DESIGN document's "Trace capture/replay contract" section states the
full safety conditions.  The request-level bus trace the system side keeps
recording during replay lives in :mod:`repro.sim.request_trace`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from ..config import ArchConfig, canonical_digest
from ..errors import SimulationError
from .codegen import CodegenEngine
from .core import Core, CoreState, IssueCallback
from .isa import Alu, Instruction, Load, Nop, Program, Store
from .pmc import PerformanceCounters
from .resource import NO_EVENT
from .scheduler import register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import System


# --------------------------------------------------------------------------- #
# Core-side digests: what a captured trace is content-addressed by.
# --------------------------------------------------------------------------- #

#: ``ArchConfig`` fields that shape the *system* side only (interconnect,
#: arbiters, memory, engine selection, cosmetics).  Everything else — the
#: private caches, the store buffer, the execute-stage latencies, the core
#: count — determines the core-side request sequence and stays in the key.
SYSTEM_SIDE_FIELDS: Tuple[str, ...] = ("name", "freq_mhz", "bus", "dram", "topology", "engine")

#: Schema version of the serialised :class:`CoreTrace` payload; bump on any
#: incompatible change so stale on-disk traces are ignored, not misread.
TRACE_SCHEMA_VERSION = 1


def core_side_payload(config: ArchConfig) -> Dict[str, object]:
    """``config.to_dict()`` with every system-side field stripped."""
    payload = config.to_dict()
    for fieldname in SYSTEM_SIDE_FIELDS:
        payload.pop(fieldname, None)
    return payload


def core_side_key(config: ArchConfig) -> str:
    """Content digest of the core side of ``config``.

    The core-side analogue of :func:`repro.sim.codegen.loop_cache_key`:
    two configurations share a key exactly when they agree on every
    parameter that can influence a core's demand-request sequence (caches,
    store buffer, execute latencies, core count).  Interconnect, arbiter,
    memory and engine fields are stripped, so an arbiter or topology sweep
    maps onto a single key per kernel.
    """
    return canonical_digest(core_side_payload(config))


def _instruction_payload(instr: Instruction) -> List[object]:
    if isinstance(instr, Nop):
        return ["nop"]
    if isinstance(instr, Alu):
        return ["alu", instr.latency]
    if isinstance(instr, Load):
        return ["load", instr.addr]
    if isinstance(instr, Store):
        return ["store", instr.addr]
    raise SimulationError(f"unknown instruction kind {instr!r}")


def program_payload(program: Program) -> Dict[str, object]:
    """JSON-serialisable description of everything timing-relevant in
    ``program`` (the cosmetic ``name`` is excluded)."""
    return {
        "body": [_instruction_payload(i) for i in program.body],
        "prologue": [_instruction_payload(i) for i in program.prologue],
        "iterations": program.iterations,
        "base_pc": program.base_pc,
    }


def trace_key(
    config: ArchConfig, program: Program, preload_il1: bool, preload_dl1: bool
) -> str:
    """Content digest addressing one captured :class:`CoreTrace`.

    Combines :func:`core_side_key`'s payload with the program and the
    core-side preload flags (a preloaded IL1/DL1 changes the miss sequence;
    the L2 preload is system-side — the L2 stays live during replay — and is
    deliberately excluded).
    """
    return canonical_digest(
        {
            "schema": TRACE_SCHEMA_VERSION,
            "core_side": core_side_payload(config),
            "program": program_payload(program),
            "preload_il1": bool(preload_il1),
            "preload_dl1": bool(preload_dl1),
        }
    )


def replay_blocker(program: Program) -> Optional[str]:
    """Why ``program`` can never be trace-replayed, or ``None`` if it may be.

    The static half of the trace-safety contract: stores drain from the
    store buffer in the background, so their bus requests are coupled to
    interconnect contention and the request sequence is *not* a pure
    function of the core side.  Unknown instruction kinds are rejected for
    the same reason the codegen engine rejects unknown registry entries —
    fall back rather than guess.
    """
    for instr in program.prologue + program.body:
        if isinstance(instr, Store):
            return "program contains stores (store-buffer drains are contention-coupled)"
        if not isinstance(instr, (Nop, Alu, Load)):
            return f"unknown instruction kind {type(instr).__name__!r}"
    return None


# --------------------------------------------------------------------------- #
# The captured core-side trace.
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TraceStep:
    """One demand request plus the compute segment that precedes it.

    Attributes:
        gap: compute gap in cycles between the previous response delivery
            (or cycle 0 for the first step) and this request becoming ready.
            May be 0 — an IL1 miss can issue in the delivery cycle itself.
        kind: ``"load"`` or ``"ifetch"`` (stores are never trace-safe).
        addr: line address posted on the bus.
        retirements: ``(offset, mnemonic)`` per instruction retired during
            the segment, with ``offset`` in ``[0, gap]`` measured from the
            segment start (offset 0 is the load retired by the delivery
            that opened the segment).
    """

    gap: int
    kind: str
    addr: int
    retirements: Tuple[Tuple[int, str], ...] = ()

    @cached_property
    def retire_counts(self) -> Tuple[int, int, int, int]:
        """``(instructions, loads, stores, nops)`` retired by this segment.

        Cached because replay applies a whole segment's retirements in one
        batch on every pass over the step — and the periodic suffix of an
        infinite contender revisits the *same* step objects indefinitely.
        """
        loads = stores = nops = 0
        for _offset, mnemonic in self.retirements:
            if mnemonic == "load":
                loads += 1
            elif mnemonic == "store":
                stores += 1
            elif mnemonic == "nop":
                nops += 1
        return (len(self.retirements), loads, stores, nops)


@dataclass(frozen=True)
class CoreTrace:
    """The captured core side of one (configuration, program) pair.

    A finite program carries a *tail*: the retirements after the last
    response delivery and the offset at which the core reached ``DONE``.
    An infinite contender instead carries ``period``: the trailing
    ``period`` steps repeat forever, so replay streams the literal steps
    and then cycles the periodic suffix indefinitely.

    Attributes:
        key: the :func:`trace_key` digest this trace was captured for.
        steps: the captured (and, for infinite programs, warmup-trimmed)
            request steps.
        tail_retirements: finite programs only — retirements after the last
            delivery, as ``(offset, mnemonic)`` from that delivery.
        done_offset: finite programs only — cycles from the last delivery
            to the ``DONE`` transition.
        period: infinite programs only — length of the repeating suffix of
            ``steps``.
    """

    key: str
    steps: Tuple[TraceStep, ...]
    tail_retirements: Tuple[Tuple[int, str], ...] = ()
    done_offset: Optional[int] = None
    period: Optional[int] = None

    @property
    def is_infinite(self) -> bool:
        """True when the trace extrapolates a periodic contender forever."""
        return self.period is not None

    def step(self, index: int) -> Optional[TraceStep]:
        """The ``index``-th request step, cycling the periodic suffix for
        infinite traces; ``None`` past the end of a finite trace."""
        steps = self.steps
        count = len(steps)
        if index < count:
            return steps[index]
        if self.period is None:
            return None
        base = count - self.period
        return steps[base + (index - base) % self.period]

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable form (inverse of :meth:`from_payload`)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "key": self.key,
            "steps": [
                [s.gap, s.kind, s.addr, [[off, mn] for off, mn in s.retirements]]
                for s in self.steps
            ],
            "tail_retirements": [[off, mn] for off, mn in self.tail_retirements],
            "done_offset": self.done_offset,
            "period": self.period,
        }

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "CoreTrace":
        """Rebuild a trace from :meth:`to_payload` output.

        Raises :class:`~repro.errors.SimulationError` on a schema mismatch
        (stale on-disk traces must be ignored, never misread).
        """
        if payload.get("schema") != TRACE_SCHEMA_VERSION:
            raise SimulationError(
                f"trace payload schema {payload.get('schema')!r} != {TRACE_SCHEMA_VERSION}"
            )
        raw_steps = cast(List[List[object]], payload["steps"])
        steps = tuple(
            TraceStep(
                gap=cast(int, gap),
                kind=cast(str, kind),
                addr=cast(int, addr),
                retirements=tuple(
                    (cast(int, off), cast(str, mn))
                    for off, mn in cast(List[List[object]], retirements)
                ),
            )
            for gap, kind, addr, retirements in raw_steps
        )
        done_offset = cast(Optional[int], payload.get("done_offset"))
        period = cast(Optional[int], payload.get("period"))
        tail = tuple(
            (cast(int, off), cast(str, mn))
            for off, mn in cast(List[List[object]], payload.get("tail_retirements", []))
        )
        return CoreTrace(
            key=cast(str, payload["key"]),
            steps=steps,
            tail_retirements=tail,
            done_offset=done_offset,
            period=period,
        )


@dataclass(frozen=True)
class TraceUnsafe:
    """Negative cache entry: this key's capture proved not trace-safe."""

    reason: str


# --------------------------------------------------------------------------- #
# Capture: instrument a real Core in place and rebuild the trace afterwards.
# --------------------------------------------------------------------------- #

#: Event tags of the per-core capture log.
_EV_REQUEST = 0
_EV_DELIVER = 1
_EV_RETIRE = 2

#: Largest periodic suffix the capture pass searches for; real kernels have
#: periods of at most a few body lengths, and an O(n * max_period) scan must
#: stay cheap on multi-thousand-request captures.
MAX_TRACE_PERIOD = 1024

#: Trailing repetitions required before a periodic suffix is trusted.
MIN_PERIOD_REPEATS = 3


class CaptureProbe:
    """Instance-attribute instrumentation of one execution-driven core.

    The probe shadows ``issue_request``, ``on_data_line``,
    ``on_instruction_line`` and ``_retire`` with recording wrappers on the
    *instance* (Python's attribute lookup prefers the instance dict, so
    internal ``self._retire(...)`` calls hit the wrapper too).  The core
    keeps simulating with full fidelity — the capture run doubles as the
    result run — and :meth:`harvest` rebuilds the :class:`CoreTrace` from
    the recorded event log.
    """

    def __init__(self, core: Core, key: str, program: Program) -> None:
        self.core = core
        self.key = key
        self.program = program
        #: (tag, cycle, kind-or-mnemonic, addr) in simulation order.
        self.events: List[Tuple[int, int, str, int]] = []
        events = self.events
        original_issue = core.issue_request

        def issue(core_id: int, kind: str, addr: int, ready_cycle: int) -> None:
            events.append((_EV_REQUEST, ready_cycle, kind, addr))
            original_issue(core_id, kind, addr, ready_cycle)

        def on_data(addr: int, cycle: int) -> None:
            events.append((_EV_DELIVER, cycle, "", 0))
            Core.on_data_line(core, addr, cycle)

        def on_instr(addr: int, cycle: int) -> None:
            events.append((_EV_DELIVER, cycle, "", 0))
            Core.on_instruction_line(core, addr, cycle)

        def retire(cycle: int) -> None:
            instr = core._current_instr
            mnemonic = instr.mnemonic if instr is not None else "?"
            events.append((_EV_RETIRE, cycle, mnemonic, 0))
            Core._retire(core, cycle)

        self._original_issue = original_issue
        core.issue_request = issue
        core.on_data_line = on_data  # type: ignore[method-assign]
        core.on_instruction_line = on_instr  # type: ignore[method-assign]
        core._retire = retire  # type: ignore[method-assign]

    def uninstall(self) -> None:
        """Remove the wrappers, restoring the core's original behaviour."""
        core = self.core
        core.issue_request = self._original_issue
        for name in ("on_data_line", "on_instruction_line", "_retire"):
            core.__dict__.pop(name, None)

    def harvest(
        self, end_cycle: int, timed_out: bool
    ) -> Tuple[Optional[CoreTrace], Optional[str], bool]:
        """Build the trace from the recorded events.

        Returns ``(trace, None, False)`` on success or ``(None, reason,
        negative_cacheable)`` when the capture is not trace-safe.  Reasons
        that depend only on the kernel/configuration (aperiodic suffix, no
        requests) are negative-cacheable; a timeout is not, because a larger
        cycle budget may succeed later.
        """
        return build_core_trace(
            self.key,
            self.events,
            done_cycle=self.core.done_cycle,
            is_infinite=self.program.is_infinite,
            timed_out=timed_out,
            end_cycle=end_cycle,
        )


def _find_period(steps: Sequence[TraceStep]) -> Optional[int]:
    """Smallest ``p`` such that the trailing ``MIN_PERIOD_REPEATS * p``
    steps are exactly ``p``-periodic, or ``None``."""
    count = len(steps)
    limit = min(count // MIN_PERIOD_REPEATS, MAX_TRACE_PERIOD)
    for period in range(1, limit + 1):
        start = count - MIN_PERIOD_REPEATS * period
        if all(steps[i] == steps[i + period] for i in range(start, count - period)):
            return period
    return None


def build_core_trace(
    key: str,
    events: Sequence[Tuple[int, int, str, int]],
    done_cycle: Optional[int],
    is_infinite: bool,
    timed_out: bool,
    end_cycle: int,
) -> Tuple[Optional[CoreTrace], Optional[str], bool]:
    """Turn one core's capture log into a :class:`CoreTrace`.

    See :meth:`CaptureProbe.harvest` for the return convention.
    """
    seg_start = 0
    awaiting = False
    retires: List[Tuple[int, str]] = []
    steps: List[TraceStep] = []
    for tag, cycle, text, addr in events:
        if tag == _EV_RETIRE:
            retires.append((cycle - seg_start, text))
        elif tag == _EV_REQUEST:
            if awaiting or text not in ("load", "ifetch"):
                return None, f"untraceable request pattern (kind {text!r})", True
            steps.append(TraceStep(cycle - seg_start, text, addr, tuple(retires)))
            retires = []
            awaiting = True
        else:  # _EV_DELIVER
            if not awaiting:
                return None, "delivery without a pending request", True
            awaiting = False
            seg_start = cycle

    if not is_infinite:
        if timed_out or done_cycle is None:
            return None, "capture run timed out before the program finished", False
        if awaiting:
            return None, "request still in flight at program completion", False
        return (
            CoreTrace(
                key=key,
                steps=tuple(steps),
                tail_retirements=tuple(retires),
                done_offset=done_cycle - seg_start,
                period=None,
            ),
            None,
            False,
        )

    # Infinite contender: the trace must end in a provably periodic suffix.
    if not steps:
        return None, "infinite program issued no bus requests", True
    period = _find_period(steps)
    if period is None:
        return None, "no periodic request suffix detected", True
    if not awaiting:
        # The core was computing at the end of the run.  If the pattern had
        # truly continued, the next request would have been issued no later
        # than seg_start + next_gap; a silent core past that point means the
        # request stream died out (e.g. the working set became DL1-resident)
        # and periodic extrapolation would invent requests.
        next_gap = steps[len(steps) - period].gap
        if seg_start + next_gap <= end_cycle:
            return None, "request stream went silent (not periodic)", True
    # Trim the warmup: extend the periodic suffix as far back as it holds
    # and keep only the aperiodic prefix plus one full period.
    index = len(steps) - period - 1
    while index >= 0 and steps[index] == steps[index + period]:
        index -= 1
    kept = steps[: index + 1 + period]
    return (
        CoreTrace(key=key, steps=tuple(kept), period=period),
        None,
        False,
    )


# --------------------------------------------------------------------------- #
# The replay core: stream a CoreTrace through the live interconnect.
# --------------------------------------------------------------------------- #


class ReplayCore:
    """A drop-in core that streams a :class:`CoreTrace`.

    Satisfies the engine-facing surface of :class:`repro.sim.core.Core`
    (``state`` / ``_busy_until`` / ``needs_tick`` / ``next_event_cycle`` /
    ``tick`` / the delivery callbacks) while never touching an instruction
    stream or a cache: a *segment* is entered at each response delivery
    (``_busy_until = delivery + gap``), and the tick at the end of the
    segment applies the recorded retirements and posts the next request.
    The system side — L2 lookups at grant time, the memory controller, the
    buses, the arbiters, PMC bus counters and the request-level trace —
    stays fully live, which is what makes replay bit-identical under *any*
    contention.

    Retirements are applied in batches (at segment end, or by
    :meth:`finalize` for the partial segment a run ends inside), so a
    replayed core wakes the engine once per request instead of once per
    instruction — the second speedup on top of skipping the cache model.
    """

    __slots__ = (
        "core_id",
        "trace",
        "issue_request",
        "pmc",
        "program",
        "instructions_retired",
        "done_cycle",
        "stall_cycles",
        "_index",
        "_segment_start",
        "_busy_until",
        "_applied",
        "_steps",
        "_count",
        "_wrap",
        "_pos",
        "state",
    )

    is_replay = True

    def __init__(
        self,
        core_id: int,
        trace: CoreTrace,
        issue_request: IssueCallback,
        pmc: Optional[PerformanceCounters] = None,
        program: Optional[Program] = None,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.issue_request = issue_request
        self.pmc = pmc
        self.program = program
        self.instructions_retired = 0
        self.done_cycle: Optional[int] = None
        self.stall_cycles = 0
        self._index = 0
        self._segment_start = 0
        self._busy_until = 0
        #: retirements of the current segment already counted by finalize()
        self._applied = 0
        # Streaming state: ``_pos`` is the position of the next step inside
        # ``trace.steps``.  :meth:`tick` wraps it back to the start of the
        # periodic suffix itself, so the per-request fast path needs neither
        # a method call nor a modulo — this is the hottest replay code.
        self._steps = trace.steps
        self._count = len(trace.steps)
        self._wrap = -1 if trace.period is None else self._count - trace.period
        self._pos = 0
        self.state = CoreState.EXECUTING
        self._enter_segment(0)

    # -- engine-facing surface ----------------------------------------- #
    @property
    def is_done(self) -> bool:
        """True once the (finite) trace has fully retired."""
        return self.state is CoreState.DONE

    @property
    def is_waiting_on_bus(self) -> bool:
        """True while the replayed core awaits a response delivery."""
        return self.state in (CoreState.WAIT_IFETCH, CoreState.WAIT_LOAD)

    def next_event_cycle(self, cycle: int) -> int:
        """Same contract as :meth:`repro.sim.core.Core.next_event_cycle`."""
        if self.state is CoreState.EXECUTING:
            return max(self._busy_until, cycle + 1)
        return NO_EVENT

    def needs_tick(self, cycle: int) -> bool:
        """True only at the end of a compute segment (no store buffer, no
        READY state: a replayed core acts exactly once per request)."""
        return self.state is CoreState.EXECUTING and cycle >= self._busy_until

    def tick(self, cycle: int) -> None:
        """Close the current segment if its compute gap has elapsed."""
        if self.state is not CoreState.EXECUTING or cycle < self._busy_until:
            return
        pos = self._pos
        if pos >= self._count:
            # Finite trace exhausted (an infinite one wraps and never gets
            # here): apply the tail and retire the core.
            self._apply_retirements(self.trace.tail_retirements)
            self.state = CoreState.DONE
            self.done_cycle = self._busy_until
            return
        step = self._steps[pos]
        pos += 1
        if pos >= self._count and self._wrap >= 0:
            pos = self._wrap
        self._pos = pos
        self._index += 1
        # Whole-segment retirement batch via the step's cached counts —
        # finalize() only ever runs after the engine loop, so ``_applied``
        # is always 0 on this path.
        count, loads, stores, nops = step.retire_counts
        if count:
            self.instructions_retired += count
            pmc = self.pmc
            if pmc is not None:
                counters = pmc.core[self.core_id]
                counters.instructions += count
                counters.loads += loads
                counters.stores += stores
                counters.nops += nops
        self.state = CoreState.WAIT_LOAD if step.kind == "load" else CoreState.WAIT_IFETCH
        self.issue_request(self.core_id, step.kind, step.addr, self._busy_until)

    def on_data_line(self, addr: int, cycle: int) -> None:
        """A demand load completed; start the next compute segment."""
        if self.state is not CoreState.WAIT_LOAD:
            raise SimulationError(
                f"replay core {self.core_id}: unexpected data line at cycle {cycle}"
            )
        # _enter_segment's common case inlined — one call per request here
        # is measurable; the finite-tail case stays in the slow path.
        pos = self._pos
        if pos < self._count:
            self._segment_start = cycle
            self._busy_until = cycle + self._steps[pos].gap
            self.state = CoreState.EXECUTING
        else:
            self._enter_segment(cycle)

    def on_instruction_line(self, addr: int, cycle: int) -> None:
        """An instruction fetch completed; start the next compute segment."""
        if self.state is not CoreState.WAIT_IFETCH:
            raise SimulationError(
                f"replay core {self.core_id}: unexpected instruction line at cycle {cycle}"
            )
        pos = self._pos
        if pos < self._count:
            self._segment_start = cycle
            self._busy_until = cycle + self._steps[pos].gap
            self.state = CoreState.EXECUTING
        else:
            self._enter_segment(cycle)

    def on_store_drained(self, cycle: int) -> None:  # pragma: no cover - guard
        raise SimulationError(f"replay core {self.core_id} cannot own store traffic")

    def finalize(self, end_cycle: int) -> None:
        """Account the partial segment a run ended inside.

        Retirements are normally applied when the segment's closing tick
        runs; a run that ends mid-segment (an observed core finishing, or a
        timeout) would miss the retirements already past.  Applying every
        ``(offset, mnemonic)`` with ``segment_start + offset <= end_cycle``
        makes ``instructions_retired`` and the PMC instruction counters
        exact at any end cycle — the replay engine calls this once after
        the inner loop returns.
        """
        if self.state is not CoreState.EXECUTING:
            return
        step = self.trace.step(self._index)
        pending = self.trace.tail_retirements if step is None else step.retirements
        cutoff = end_cycle - self._segment_start
        for offset, mnemonic in pending[self._applied :]:
            if offset > cutoff:
                break
            self.instructions_retired += 1
            if self.pmc is not None:
                self.pmc.note_instruction(self.core_id, mnemonic)
            self._applied += 1

    # -- internals ------------------------------------------------------ #
    def _enter_segment(self, cycle: int) -> None:
        self._segment_start = cycle
        pos = self._pos
        if pos >= self._count:
            done_offset = self.trace.done_offset
            if done_offset is None:  # pragma: no cover - build invariant
                raise SimulationError(
                    f"replay core {self.core_id}: trace ended without a tail"
                )
            self._busy_until = cycle + done_offset
        else:
            self._busy_until = cycle + self._steps[pos].gap
        self.state = CoreState.EXECUTING

    def _apply_retirements(self, retirements: Tuple[Tuple[int, str], ...]) -> None:
        pending = retirements[self._applied :]
        self._applied = 0
        count = len(pending)
        if not count:
            return
        self.instructions_retired += count
        pmc = self.pmc
        if pmc is not None:
            core_id = self.core_id
            for _offset, mnemonic in pending:
                pmc.note_instruction(core_id, mnemonic)


# --------------------------------------------------------------------------- #
# The trace cache: in-process LRU, optionally backed by a ResultStore.
# --------------------------------------------------------------------------- #

#: Either a captured trace or the negative record of a failed capture.
TraceEntry = Union[CoreTrace, TraceUnsafe]


class TraceCache:
    """Content-addressed memo of captured core traces.

    An :class:`collections.OrderedDict` LRU keyed by :func:`trace_key`
    digests.  Positive entries (:class:`CoreTrace`) may additionally be
    persisted through an attached :class:`repro.campaign.store.ResultStore`
    (its ``traces/`` section), which extends cross-campaign dedup and the
    ``cache stats|gc`` maintenance surface to traces; negative entries
    (:class:`TraceUnsafe`) stay in-process only — a failed capture is cheap
    to re-prove and its reasons can be run-specific.

    Counters (``stats()``):

    * ``hits`` / ``misses`` — lookup outcomes, in-process LRU first;
    * ``store_hits`` — subset of hits answered by the attached store;
    * ``captures`` — positive traces inserted (one full execution-driven
      run each: the bench harness asserts this stays at one per kernel
      across a sweep);
    * ``unsafe`` — negative entries inserted.
    """

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, TraceEntry]" = OrderedDict()
        self._store: Optional[object] = None
        self.counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "store_hits": 0,
            "captures": 0,
            "unsafe": 0,
        }

    # -- store backing --------------------------------------------------- #
    def attach_store(self, store: Optional[object]) -> None:
        """Back this cache with ``store`` (a ``ResultStore`` or ``None``)."""
        self._store = store

    @property
    def store(self) -> Optional[object]:
        """The attached backing store, if any."""
        return self._store

    # -- lookups --------------------------------------------------------- #
    def get(self, key: str) -> Optional[TraceEntry]:
        """The entry for ``key`` (positive or negative), or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.counters["hits"] += 1
            return entry
        store = self._store
        if store is not None:
            payload = store.get_trace(key)  # type: ignore[attr-defined]
            if payload is not None:
                try:
                    trace = CoreTrace.from_payload(payload)
                except SimulationError:
                    trace = None  # stale schema: treat as a miss
                if trace is not None:
                    self._insert(key, trace)
                    self.counters["hits"] += 1
                    self.counters["store_hits"] += 1
                    return trace
        self.counters["misses"] += 1
        return None

    def put(self, trace: CoreTrace) -> None:
        """Insert a captured trace (and persist it if a store is attached)."""
        self._insert(trace.key, trace)
        self.counters["captures"] += 1
        store = self._store
        if store is not None:
            store.put_trace(trace.key, trace.to_payload())  # type: ignore[attr-defined]

    def put_unsafe(self, key: str, reason: str) -> None:
        """Insert a negative entry (in-process only)."""
        self._insert(key, TraceUnsafe(reason))
        self.counters["unsafe"] += 1

    def _insert(self, key: str, entry: TraceEntry) -> None:
        entries = self._entries
        entries[key] = entry
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)

    # -- maintenance ----------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot plus the current entry count."""
        snapshot = dict(self.counters)
        snapshot["entries"] = len(self._entries)
        return snapshot

    def reset_counters(self) -> None:
        """Zero every counter (the bench harness isolates phases with this)."""
        for name in self.counters:
            self.counters[name] = 0

    def clear(self) -> None:
        """Drop all entries and counters (test isolation hook)."""
        self._entries.clear()
        self.reset_counters()


#: Process-wide cache shared by every ReplayEngine instance: one capture per
#: kernel serves every later run in the process (each campaign worker
#: process therefore captures each kernel at most once per sweep).
_GLOBAL_TRACE_CACHE = TraceCache()


def global_trace_cache() -> TraceCache:
    """The process-wide :class:`TraceCache` the replay engine uses."""
    return _GLOBAL_TRACE_CACHE


def clear_trace_cache() -> None:
    """Empty the process-wide trace cache (test isolation hook)."""
    _GLOBAL_TRACE_CACHE.attach_store(None)
    _GLOBAL_TRACE_CACHE.clear()


# --------------------------------------------------------------------------- #
# The replay engine.
# --------------------------------------------------------------------------- #


@register_engine(
    "replay",
    "trace replay: capture the core side once per kernel, stream it through "
    "any interconnect (falls back per core on trace-unsafe programs)",
)
class ReplayEngine:
    """The ``replay`` engine: capture the core side once, then stream it.

    Per core with a program: a cached :class:`CoreTrace` (in-process LRU or
    attached store) swaps the execution-driven core for a
    :class:`ReplayCore`; a cached :class:`TraceUnsafe` keeps the real core;
    anything else instruments the real core with a :class:`CaptureProbe`,
    so the first run both produces the full-fidelity result *and* the trace
    every later run replays.  The loop is bound through
    :class:`~repro.sim.codegen.CodegenEngine` with the replay cores'
    ``replay_mask`` (their phase-2 blocks reduce to a single busy-until
    check), so it specialises — or falls back to the generic event loop,
    with ``fallback_reason`` saying why — exactly where ``codegen`` does;
    either way the full observable state is preserved bit for bit.

    ``fallback_reasons`` maps core ids that could not be replayed *or*
    captured this run to the reason (static trace-unsafety or a cached
    negative entry).
    """

    name = "replay"

    def __init__(self, system: "System") -> None:
        self.system = system
        self.fallback_reason: Optional[str] = None
        self.fallback_reasons: Dict[int, str] = {}
        self.replayed_cores: List[int] = []
        self.captured_cores: List[int] = []

    def run(self, observed: List[int], max_cycles: int) -> Tuple[int, bool]:
        """Run with per-core capture/replay; returns the final cycle and
        whether the run timed out."""
        system = self.system
        config = system.config
        cache = global_trace_cache()
        probes: List[CaptureProbe] = []
        replay_cores: List[ReplayCore] = []
        replay_mask = 0
        for core_id, program in enumerate(system.programs):
            if program is None:
                continue
            core = system.cores[core_id]
            if isinstance(core, ReplayCore):
                replay_cores.append(core)
                replay_mask |= 1 << core_id
                continue
            if type(core) is not Core:
                self.fallback_reasons[core_id] = (
                    f"core is a {type(core).__name__}, not the built-in Core"
                )
                continue
            blocker = replay_blocker(program)
            if blocker is not None:
                self.fallback_reasons[core_id] = blocker
                continue
            key = trace_key(config, program, system.preload_il1, system.preload_dl1)
            entry = cache.get(key)
            if isinstance(entry, CoreTrace):
                replay = ReplayCore(
                    core_id,
                    entry,
                    issue_request=system._issue_demand,
                    pmc=system.pmc,
                    program=program,
                )
                system.cores[core_id] = cast(Core, replay)
                replay_cores.append(replay)
                replay_mask |= 1 << core_id
                self.replayed_cores.append(core_id)
            elif isinstance(entry, TraceUnsafe):
                self.fallback_reasons[core_id] = entry.reason
            else:
                probes.append(CaptureProbe(core, key, program))
                self.captured_cores.append(core_id)

        loop = CodegenEngine(system, replay_mask=replay_mask)
        self.fallback_reason = loop.fallback_reason
        cycle, timed_out = loop.run(observed, max_cycles)

        for replay in replay_cores:
            replay.finalize(cycle)
        for probe in probes:
            trace, reason, negative_cacheable = probe.harvest(cycle, timed_out)
            probe.uninstall()
            if trace is not None:
                cache.put(trace)
            elif reason is not None:
                self.fallback_reasons[probe.core.core_id] = reason
                if negative_cacheable:
                    cache.put_unsafe(probe.key, reason)
        return cycle, timed_out
