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
periodic.  :func:`run_skipping` then advances every component by ``m``
whole periods (shifting absolute cycles and LRU stamps, and raising every
additive counter by ``m`` times its per-period delta) and simulates the
tail normally.

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
and resumed at ``cycle + 1``, so no engine loop (and no generated loop)
knows about skipping.  Which engine classes skip is declared on the class
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
    """The key -> loop-back map of one run.

    Installed as the observed core's ``loop_back`` hook: each call keys
    the whole system and looks the key up among the earlier loop-backs'.
    The first repeat fixes :attr:`match`; after :data:`MAX_LOOP_BACKS`
    loop-backs without one, or at a component that declares no key, the
    detector gives up and names the reason.  Either way it uninstalls
    itself.

    A full key walks every cache, so after the first
    :data:`EAGER_LOOP_BACKS` loop-backs it is taken only when the cheap
    :meth:`~repro.sim.system.System.steady_probe` (part of the full key)
    equals an earlier loop-back's: a run that never repeats, such as a
    fixed-priority bus starving a contender, pays for probes only, and a
    repeat is found at most one period late.
    """

    def __init__(self, system: "System", core_id: int) -> None:
        self.system = system
        self.core = system.cores[core_id]
        #: Per loop-back: its cycle and, if it was keyed in full, the
        #: system's counts there.
        self.history: List[Tuple[int, Optional[Counts]]] = []
        self._probes: Set[Hashable] = set()
        #: The run's first cycle, a stand-in for loop-back -1 when predicting.
        self.start = system.current_cycle
        self._seen: Dict[Hashable, int] = {}
        #: ``(i, j)``: loop-back ``j`` repeats loop-back ``i``.
        self.match: Optional[Tuple[int, int]] = None
        #: Why the detector gave up, if it did.
        self.reason: Optional[str] = None
        self.core.loop_back = self.on_loop_back

    def on_loop_back(self, cycle: int) -> None:
        index = len(self.history)
        try:
            probe = self.system.steady_probe(cycle)
            keyed = index < EAGER_LOOP_BACKS or probe in self._probes
            state, counts = self.system.steady_key(cycle) if keyed else (None, None)
        except SteadyStateUnsupported as exc:
            self.reason = str(exc)
            self.uninstall()
            return
        self._probes.add(probe)
        self.history.append((cycle, counts))
        earlier = self._seen.get(state) if keyed else None
        if earlier is not None:
            self.match = (earlier, index)
        elif index + 1 >= MAX_LOOP_BACKS:
            self.reason = NO_REPEAT
        else:
            if keyed:
                self._seen[state] = index
            return
        self._seen.clear()
        self.uninstall()

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
            return finished[0], finished[1], (reason, None)
    cycle, timed_out = system.engine.run(list(observed), max_cycles)
    return cycle, timed_out, (reason, jump)


def _approach(
    system: "System", core_id: int, max_cycles: int
) -> Tuple[Optional[Tuple[int, bool]], Optional[str], Optional[Jump]]:
    """Simulate in chunks until the state repeats, then jump.

    Returns ``(finished, reason, jump)``: ``finished`` is the engine's
    ``(cycle, timed_out)`` when the run ended before any jump; ``reason``
    says why nothing was skipped; ``jump`` describes the jump made, after
    which the rest of the run is left to the caller.
    """
    engine = system.engine
    observed = [core_id]
    detector = LoopDetector(system, core_id)
    # Until the first loop-back gives a distance, chunks double from the
    # body's summed execute latency (a lower bound on one iteration).
    step = max(1, system.cores[core_id]._code.latency[-1])
    stop = system.current_cycle + step
    try:
        while True:
            cycle, timed_out = engine.run(observed, min(stop, max_cycles))
            if not timed_out or cycle >= max_cycles:
                return (cycle, timed_out), detector.reason or TOO_FEW_ITERATIONS, None
            system.current_cycle = cycle + 1
            if detector.match is not None or detector.reason is not None:
                break
            if not detector.history:
                step *= 2
            stop = detector.next_stop(cycle, step)
    finally:
        detector.uninstall()
    if detector.match is None:
        return None, detector.reason, None
    first, last = detector.match
    (start, before), (end, after) = detector.history[first], detector.history[last]
    assert before is not None and after is not None  # matches are keyed in full
    period_cycles = end - start
    # The jump stays at least one period short of max_cycles, and no
    # finite program's cursor passes its end (until it does, a finite
    # program runs exactly like the same loop run forever, whose state
    # repeats every period), so the timeout and every program end are
    # reached by simulation.
    periods = (max_cycles - cycle) // period_cycles - 1
    for core, (cursor_before, cursor_after) in zip(
        system.cores, system.steady_cursors(before, after)
    ):
        advance = cursor_after - cursor_before
        if advance and core._code.total is not None:
            periods = min(periods, (core._code.total - core._next) // advance)
    if periods < 1:
        return None, TOO_FEW_ITERATIONS, None
    system.steady_advance(periods * period_cycles, periods, before, after)
    system.current_cycle += periods * period_cycles
    return None, None, (periods * (last - first), last - first, period_cycles)
