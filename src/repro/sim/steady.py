"""Steady-state skipping: add whole loop iterations once the state repeats.

Every methodology run is a loop: the observed core runs ``rsk-nop(t, k)``
for a fixed number of iterations against infinite contenders, and the
paper's synchrony effect locks such a system into one arbitration phase
after a short warm-up.  Once the *whole* system state repeats, every later
period is a cycle-shifted copy of the last one, so it need not be simulated.

At each loop-back of the observed core (the start of body position 0 for
iteration 2 and later, reported through the core's ``loop_back`` hook) the
:class:`LoopDetector` takes a cycle-normalised key of the whole system.
When the key equals an earlier loop-back's key — a period of ``p``
iterations and ``D`` cycles — the state at loop-back ``j`` is the state at
loop-back ``i`` shifted by ``D`` cycles, so from then on the run is
periodic.  A jump advances every component by ``m`` whole periods
(shifting absolute cycles and LRU stamps, and raising every additive
counter by ``m`` times its per-period delta).  It has two exits:

* *end at the repeat*: when the observed core has a whole number ``m``
  of periods left at loop-back ``j``, the hook ends its program there
  instead of starting the next iteration.  The engine finishes that cycle
  and stops on its own observed-done check, and :func:`run_skipping`
  jumps ``m`` periods and moves the observed core's done cycle,
  ``pmc.cycles`` and the final cycle by ``m·D``.  The state at that
  loop-back is the state the full run reaches ``m·D`` cycles later,
  where its program ends, so the rest of the cycle is the rest of the
  full run's last cycle, shifted;
* *jump and simulate the tail*: where the iterations left are not whole
  periods, or a finite non-observed program would reach its end inside
  that jump, or ``max_cycles`` would fall inside it (:func:`periods_allowed`
  decides the last two), the jump stops short at a chunk's end and the
  rest of the run is simulated.

The key/advance protocol: every stateful sim class declares, next to its
state,

* ``steady_key(cycle) -> (state, counts)`` — ``state`` is a hashable,
  cycle-normalised view that two loop-backs must share exactly; ``counts``
  is a (nested) tuple of the monotone quantities that grow each period
  (counters, the cache stamp, the program cursor);
* ``steady_advance(shift, periods, before, after)`` — move the component
  ``periods`` periods forward: absolute cycles gain ``shift``, and each
  count gains ``periods * (after - before)``, ``before``/``after`` being
  its counts at the two matching loop-backs.

Normalisation rules, shared by the classes through the helpers below:
start times (a request's readiness, a stall's entry) compare relative to
the current cycle; a deadline already in the past compares as
:data:`PAST`, because every reader treats all past deadlines alike; the
``-1`` "not yet" sentinels stay sentinels.  Max-type counters
(``max_wait``, ``max_queue_wait``) stay as they are: a periodic run's worst
case over one period is already recorded.

The engines are driven in chunks through their existing ``max_cycles``
stop, each chunk ending at the observed core's predicted next loop-back,
and resumed at ``cycle + 1``; a run that ends at the repeat stops through
the observed core's ``DONE`` state, so no engine loop (and no generated
loop) knows about skipping.  Which engine classes skip is declared on the class
(``steady_state_decline``: ``None`` to skip, else the reason not to).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Core
    from .system import System

#: A component's counts: a (nested) tuple of the quantities that grow
#: every period.
Counts = Tuple[Any, ...]
#: What ``steady_key`` returns: the normalised state and the counts.
Key = Tuple[Hashable, Counts]
#: A jump: iterations added, iterations per period, cycles per period.
Jump = Tuple[int, int, int]
#: How a run ended up: why it did not skip, or the jump it made.
Verdict = Tuple[Optional[str], Optional[Jump]]

#: Loop-backs examined before the detector gives up on finding a repeat.
MAX_LOOP_BACKS = 64
#: Loop-backs keyed in full whatever their probe (see :class:`LoopDetector`).
EAGER_LOOP_BACKS = 2

#: Normalised value of a deadline that already passed.
PAST = -1

#: Decline reasons that do not depend on the engine.
TRACED = "the run is traced"
SEVERAL_OBSERVED = "several observed cores"
TOO_FEW_ITERATIONS = "too few iterations left"
NO_REPEAT = f"no repeat within {MAX_LOOP_BACKS} loop-backs"


class SteadyStateUnsupported(SimulationError):
    """A component declares no steady-state key, so the run cannot skip."""


def until(deadline: int, cycle: int) -> int:
    """A deadline as cycles left from ``cycle``; :data:`PAST` once passed."""
    return deadline - cycle if deadline >= cycle else PAST


def pending(stamp: int, cycle: int) -> Optional[int]:
    """A cycle field that may hold the ``-1`` sentinel ("not yet")."""
    return None if stamp < 0 else stamp - cycle


def shifted(stamp: int, shift: int) -> int:
    """``stamp`` moved ``shift`` cycles on, leaving the ``-1`` sentinel."""
    return stamp + shift if stamp >= 0 else stamp


#: Counter-block class -> getter of all its fields at once (keys run often).
_COUNTER_GETTERS: Dict[type, Callable[[object], Tuple[int, ...]]] = {}
#: Counter-block class -> (position, name) of each additive field (jumps).
_ADDITIVE_FIELDS: Dict[type, Tuple[Tuple[int, str], ...]] = {}


class AdditiveCounters:
    """Key/advance pair of a dataclass counter block.

    Every field is an additive counter that gains ``periods`` times its
    per-period delta, except the ``max_*`` fields, which keep their value.
    A counter block has no state to compare, only counts.
    """

    __slots__ = ()

    def steady_key(self, cycle: int = 0) -> Key:
        getter = _COUNTER_GETTERS.get(type(self))
        if getter is None:
            names = [field.name for field in fields(self)]  # type: ignore[arg-type]
            getter = _COUNTER_GETTERS[type(self)] = attrgetter(*names)
        return (), getter(self)

    def steady_advance(self, shift: int, periods: int, before: Counts, after: Counts) -> None:
        del shift
        additive = _ADDITIVE_FIELDS.get(type(self))
        if additive is None:
            additive = _ADDITIVE_FIELDS[type(self)] = tuple(
                (index, field.name)
                for index, field in enumerate(fields(self))  # type: ignore[arg-type]
                if not field.name.startswith("max_")
            )
        for index, name in additive:
            delta = after[index] - before[index]
            if delta:
                setattr(self, name, getattr(self, name) + periods * delta)


@dataclass(frozen=True)
class SteadySkip:
    """Whether (and how far) one run skipped its steady state.

    Attributes:
        simulated_iterations: observed-core iterations actually simulated.
        extrapolated_iterations: iterations added by whole-period jumps.
        period_iterations: iterations in one period (0 when nothing repeated).
        period_cycles: cycles in one period (0 when nothing repeated).
        reason: why nothing was skipped, when ``extrapolated_iterations``
            is 0; ``None`` otherwise.
    """

    simulated_iterations: int = 0
    extrapolated_iterations: int = 0
    period_iterations: int = 0
    period_cycles: int = 0
    reason: Optional[str] = None


class LoopDetector:
    """The key -> loop-back map of one run, and the end-at-repeat exit.

    Installed as the observed core's ``loop_back`` hook: each call keys
    the whole system and looks the key up among the earlier loop-backs'.
    The first repeat fixes :attr:`match`; after :data:`MAX_LOOP_BACKS`
    loop-backs without one, or at a component that declares no key, the
    detector gives up and names the reason.

    Once loop-back ``j`` repeats loop-back ``i``, the detector uninstalls
    itself, and the hook takes the end-at-repeat exit (see the module
    docstring) when the observed core has a whole number :attr:`periods`
    of periods left there: it returns True and sets :attr:`ended`.  Where
    the iterations left are not whole periods, or :func:`periods_allowed`
    refuses that jump, it returns False and the jump waits for the chunk's
    end.

    A full key walks every cache, so after the first
    :data:`EAGER_LOOP_BACKS` loop-backs it is taken only when the cheap
    :meth:`~repro.sim.system.System.steady_probe` (part of the full key)
    equals an earlier loop-back's: a run that never repeats, such as a
    fixed-priority bus starving a contender, pays for probes only, and a
    repeat is found at most one period late.
    """

    def __init__(self, system: "System", core_id: int, max_cycles: int) -> None:
        self.system = system
        self.core = system.cores[core_id]
        self.max_cycles = max_cycles
        #: Per loop-back: its cycle and, if it was keyed in full, the
        #: system's counts there.
        self.history: List[Tuple[int, Optional[Counts]]] = []
        self._probes: Set[Hashable] = set()
        #: The run's first cycle, a stand-in for loop-back -1 when predicting.
        self.start = system.current_cycle
        self._seen: Dict[Hashable, int] = {}
        #: ``(i, j)``: loop-back ``j`` repeats loop-back ``i``.
        self.match: Optional[Tuple[int, int]] = None
        #: Whole periods the observed core has left at the repeat.
        self.periods = 0
        #: Whether the hook ended the run, :attr:`periods` short of its end.
        self.ended = False
        #: Why the detector gave up, if it did.
        self.reason: Optional[str] = None
        self.core.loop_back = self.on_loop_back

    def on_loop_back(self, cycle: int) -> bool:
        index = len(self.history)
        try:
            probe = self.system.steady_probe(cycle)
            keyed = index < EAGER_LOOP_BACKS or probe in self._probes
            state, counts = self.system.steady_key(cycle) if keyed else (None, None)
        except SteadyStateUnsupported as exc:
            self.reason = str(exc)
            self.uninstall()
            return False
        self._probes.add(probe)
        self.history.append((cycle, counts))
        earlier = self._seen.get(state) if keyed else None
        if earlier is None and index + 1 < MAX_LOOP_BACKS:
            if keyed:
                self._seen[state] = index
            return False
        self._seen.clear()
        self.uninstall()
        if earlier is None:
            self.reason = NO_REPEAT
            return False
        self.match = (earlier, index)
        # A loop-back's cursor sits at the start of an iteration, so at
        # least one iteration is left.
        code = self.core._code
        assert code.total is not None  # the observed program is finite
        left = (code.total - self.core._next) // len(code.body)
        self.periods, rest = divmod(left, index - earlier)
        if rest:
            return False
        before, after, period_cycles = self.period()
        allowed = periods_allowed(
            self.system, before, after, self.max_cycles - cycle, period_cycles, self.core
        )
        self.ended = allowed >= self.periods
        return self.ended

    def period(self) -> Tuple[Counts, Counts, int]:
        """The matching loop-backs' counts, and the cycles between them."""
        assert self.match is not None
        (start, before), (end, after) = (self.history[index] for index in self.match)
        assert before is not None and after is not None  # matches are keyed in full
        return before, after, end - start

    def jump(self, periods: int) -> Jump:
        """Advance the system ``periods`` periods from the matching
        loop-backs' counts."""
        before, after, period_cycles = self.period()
        self.system.steady_advance(periods * period_cycles, periods, before, after)
        self.system.current_cycle += periods * period_cycles
        assert self.match is not None
        first, last = self.match
        return periods * (last - first), last - first, period_cycles

    def uninstall(self) -> None:
        self.core.loop_back = None

    def next_stop(self, cycle: int, step: int) -> int:
        """Where the next chunk should end: the predicted next loop-back
        (the last one plus the distance from the one before, or from the
        run's start), else ``step`` cycles on."""
        if self.history:
            last = self.history[-1][0]
            before = self.history[-2][0] if len(self.history) >= 2 else self.start
            if 2 * last - before > cycle:
                return 2 * last - before
            # The prediction passed: creep up on the loop-back in small steps.
            step = max(1, (last - before) // 16)
        return cycle + step


def periods_allowed(
    system: "System",
    before: Counts,
    after: Counts,
    cycles_left: int,
    period_cycles: int,
    ending: Optional["Core"] = None,
) -> int:
    """The most whole periods a jump may add from here: as many as fit in
    ``cycles_left`` cycles, and no more than keep every finite program's
    cursor within its end.

    Until its cursor reaches its end, a finite program runs exactly like
    the same loop run forever, whose state repeats every period.  The
    chunk's-end jump lands at the end of a cycle, and the programs' ends
    are reached by simulation after it, so a cursor may land on its end.
    The end-at-repeat exit lands inside a cycle, at the loop-back where
    core ``ending`` stops: a program that reached its end there could
    still stop in the rest of that cycle, so every other program must
    stay strictly short of it, and ``ending``'s own end is the target.
    """
    periods = cycles_left // period_cycles
    strict = ending is not None
    for core, (cursor_before, cursor_after) in zip(
        system.cores, system.steady_cursors(before, after)
    ):
        advance = cursor_after - cursor_before
        total = core._code.total
        if advance and total is not None and core is not ending:
            periods = min(periods, (total - core._next - strict) // advance)
    return periods


def skip_record(system: "System", observed: Sequence[int], skipped: Verdict) -> SteadySkip:
    """The run's :class:`SteadySkip`, from :func:`run_skipping`'s verdict;
    call it once the cores are finalized (iterations are counted from the
    observed core's retired instructions)."""
    reason, jump = skipped
    completed = 0
    if len(observed) == 1:
        program = system.programs[observed[0]]
        assert program is not None
        retired = system.cores[observed[0]].instructions_retired - len(program.prologue)
        completed = max(0, retired) // len(program.body)
    if jump is None:
        return SteadySkip(completed, reason=reason)
    extrapolated, period_iterations, period_cycles = jump
    return SteadySkip(completed - extrapolated, extrapolated, period_iterations, period_cycles)


def decline_reason(system: "System", observed: Sequence[int]) -> Optional[str]:
    """Why this run cannot skip, or ``None`` when it may try."""
    engine = system.engine
    reason = getattr(
        type(engine),
        "steady_state_decline",
        f"engine {getattr(engine, 'name', type(engine).__name__)!r} declares no "
        "steady-state skipping",
    )
    if reason is not None:
        return reason
    if system.trace.enabled:
        return TRACED
    if len(observed) != 1:
        return SEVERAL_OBSERVED
    program = system.programs[observed[0]]
    assert program is not None and program.iterations is not None
    if program.iterations < 3:
        return TOO_FEW_ITERATIONS
    return system.steady_blocker()


def run_skipping(
    system: "System", observed: Sequence[int], max_cycles: int
) -> Tuple[int, bool, Verdict]:
    """Run ``system.engine`` to the end, skipping the steady state when it
    repeats.

    Returns the final cycle, whether the run timed out, and the verdict
    :func:`skip_record` turns into the run's record.
    """
    reason = decline_reason(system, observed)
    jump: Optional[Jump] = None
    if reason is None:
        finished, reason, jump = _approach(system, observed[0], max_cycles)
        if finished is not None:
            return finished[0], finished[1], (reason, jump)
    cycle, timed_out = system.engine.run(list(observed), max_cycles)
    return cycle, timed_out, (reason, jump)


def _approach(
    system: "System", core_id: int, max_cycles: int
) -> Tuple[Optional[Tuple[int, bool]], Optional[str], Optional[Jump]]:
    """Simulate in chunks until the state repeats, then jump.

    Returns ``(finished, reason, jump)``: ``finished`` is the run's final
    ``(cycle, timed_out)`` when it ended here, at the end-at-repeat exit or
    before any jump; ``reason`` says why nothing was skipped; ``jump``
    describes the jump made.  After the chunk's-end jump the rest of the
    run is left to the caller.
    """
    engine = system.engine
    observed = [core_id]
    detector = LoopDetector(system, core_id, max_cycles)
    # Until the first loop-back gives a distance, chunks double from the
    # body's summed execute latency (a lower bound on one iteration).
    step = max(1, system.cores[core_id]._code.latency[-1])
    stop = system.current_cycle + step
    try:
        while True:
            cycle, timed_out = engine.run(observed, min(stop, max_cycles))
            if not timed_out or cycle >= max_cycles:
                break
            system.current_cycle = cycle + 1
            if detector.core.loop_back is None:  # the detector is done
                break
            if not detector.history:
                step *= 2
            stop = detector.next_stop(cycle, step)
    finally:
        detector.uninstall()
    if detector.ended:
        # The observed core stopped at the repeat with whole periods left:
        # the rest of that cycle is the rest of the full run's last cycle,
        # shifted back by the periods.
        jump = detector.jump(detector.periods)
        _, _, period_cycles = jump
        shift = detector.periods * period_cycles
        detector.core.done_cycle = cycle + shift
        system.pmc.cycles += shift
        return (cycle + shift, False), None, jump
    if not timed_out or cycle >= max_cycles:
        return (cycle, timed_out), detector.reason or TOO_FEW_ITERATIONS, None
    if detector.match is None:
        return None, detector.reason, None
    # The chunk's-end jump stays at least one period short of max_cycles,
    # so the timeout and every program end are reached by simulation.
    before, after, period_cycles = detector.period()
    periods = periods_allowed(
        system, before, after, max_cycles - cycle - period_cycles, period_cycles
    )
    if periods < 1:
        return None, TOO_FEW_ITERATIONS, None
    return None, None, detector.jump(periods)
