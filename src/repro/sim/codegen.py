"""Per-chain code-generated event loops (the ``codegen`` engine).

The generic :class:`repro.sim.scheduler.EventScheduler` drives any resource
chain through the event-port surface, paying interpreter dispatch for that
generality: a loop over ``system.resources``, a ``choose()`` call per grant,
a queue walk per horizon fold.  For a *concrete* platform all of that is
static — the topology names the resources in phase order, the configuration
names each arbiter — so this module generates the loop the generic engine
would have executed, as Python source specialised to the chain:

* the resource and core loops are unrolled (fixed resource order);
* the per-channel horizon folds are inlined (no ``next_event_cycle`` call);
* the grant logic is inlined per arbitration policy — the round-robin scan,
  the FIFO readiness minimum, the fixed-priority rank minimum, and a closed
  form for the TDMA slot schedule;
* the plain memory controller's no-op ``arbitrate`` disappears entirely.

Grant *side effects* (occupancy timing, trace/PMC stamps, DRAM issue) stay
in the resource classes — the generated code selects a winner and delegates
to :meth:`repro.sim.bus.Bus._grant_port` or
:meth:`repro.sim.memctrl.BankQueuedMemoryController._grant` — so the
specialisation is confined to the pure decision logic that the four-way
engine-equivalence suite can exhaustively compare.

Compilation is cached the way campaign results are: content-addressed by the
:func:`loop_cache_key` digest of the configuration (``ArchConfig.digest``
minus the ``engine`` field, which selects a loop but never changes one), so
equal platforms share one compiled loop object per process and unequal
platforms can never collide.

Fallback contract: anything the generator does not recognise — a registered
third-party topology or arbitration policy, an externally constructed
arbiter of an unknown class, a resource subclass — makes
:class:`CodegenEngine` silently delegate to the generic ``EventScheduler``
(see :func:`specialisation_mismatch`).  Unknown registry entries therefore
keep working, only without the specialised speedup.  The ``replay`` engine
binds its loop through :class:`CodegenEngine` too (with a ``replay_mask``),
so both engines report the same ``fallback_reason``.

Validation harness: :func:`compile_loop` with ``diagnostics=True`` emits a
self-checking variant that cross-checks every inlined winner selection and
horizon fold against the generic resource methods and raises
:class:`CodegenMismatch` pinpointing the first divergent cycle.  The
equivalence suite uses it for its regenerate-with-diagnostics pass: on a
mismatch it recompiles with diagnostics, re-runs, and fails with the
offending generated source attached.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..config import ArchConfig, canonical_digest
from ..errors import SimulationError
from .arbiter import (
    FifoArbiter,
    FixedPriorityArbiter,
    RoundRobinArbiter,
    TdmaArbiter,
)
from .bus import Bus
from .memctrl import BankQueuedMemoryController, MemoryController
from .resource import NO_EVENT
from .scheduler import EventScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import System


class CodegenMismatch(SimulationError):
    """A diagnostics-mode generated loop diverged from the generic logic.

    Raised by the self-checking loop variant at the first cycle where an
    inlined winner selection or horizon fold disagrees with the generic
    resource method it specialises.  The message pinpoints the resource,
    the check and the cycle; the test harness attaches the generated source.
    """


class UnspecialisableError(SimulationError):
    """The configuration names something the generator cannot specialise."""


#: Arbitration policies the generator knows how to inline, mapped to the
#: exact class the built-in factory constructs.  ``specialisation_mismatch``
#: compares with ``type() is`` so a registered subclass (which may override
#: selection) falls back to the generic engine.
_ARBITER_CLASSES: Dict[str, type] = {
    "round_robin": RoundRobinArbiter,
    "fifo": FifoArbiter,
    "fixed_priority": FixedPriorityArbiter,
    "tdma": TdmaArbiter,
}


# --------------------------------------------------------------------------- #
# Specialisation plans: what the chain looks like, derived from the config.
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _ChannelPlan:
    """One arbitrated bus channel (request or response)."""

    var: str
    label: str
    ports: int
    policy: str
    slot: int


@dataclass(frozen=True)
class _PlainMemPlan:
    """The arrival-scheduled memory controller (no visible contention)."""

    var: str
    label: str


@dataclass(frozen=True)
class _BankQueuePlan:
    """The bank-queued memory controller (per-bank arbitrated queues)."""

    var: str
    label: str
    ports: int
    banks: int
    policy: str
    slot: int


_ResourcePlan = Union[_ChannelPlan, _PlainMemPlan, _BankQueuePlan]


def _checked_policy(policy: str, where: str) -> str:
    if policy not in _ARBITER_CLASSES:
        raise UnspecialisableError(
            f"{where} arbitration policy {policy!r} has no specialised grant logic"
        )
    return policy


def _resource_plans(config: ArchConfig) -> List[_ResourcePlan]:
    """The chain the built-in topology would build, as specialisation plans.

    Raises :class:`UnspecialisableError` for registered topologies or
    policies the generator does not know — the signal
    :class:`CodegenEngine` turns into a generic-engine fallback.
    """
    name = config.topology.name
    cores = config.num_cores
    banks = config.dram.num_banks
    bus_policy = _checked_policy(config.bus.arbitration, "bus")
    if name == "bus_only":
        return [
            _ChannelPlan("r0", "bus", cores + 1, bus_policy, config.bus.tdma_slot),
            _PlainMemPlan("r1", "memctrl"),
        ]
    mem_policy_name = config.topology.mem_arbitration
    if name == "bus_bank_queues":
        return [
            _ChannelPlan("r0", "bus", cores + 1, bus_policy, config.bus.tdma_slot),
            _BankQueuePlan(
                "r1",
                "memqueue",
                cores,
                banks,
                _checked_policy(mem_policy_name, "memory"),
                config.topology.mem_tdma_slot,
            ),
        ]
    if name == "split_bus":
        return [
            _ChannelPlan("r0", "bus", cores, bus_policy, config.bus.tdma_slot),
            _BankQueuePlan(
                "r1",
                "memqueue",
                cores,
                banks,
                _checked_policy(mem_policy_name, "memory"),
                config.topology.mem_tdma_slot,
            ),
            _ChannelPlan(
                "r2",
                "bus_response",
                cores,
                _checked_policy(config.topology.response_arbitration, "response"),
                config.topology.response_tdma_slot,
            ),
        ]
    raise UnspecialisableError(f"topology {name!r} is not a built-in chain")


# --------------------------------------------------------------------------- #
# Source assembly.
# --------------------------------------------------------------------------- #


class _SourceWriter:
    """Indentation-aware line accumulator for the generated module."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._level = 0

    def line(self, text: str = "") -> None:
        self._lines.append("    " * self._level + text if text else "")

    @contextmanager
    def indent(self) -> Iterator[None]:
        self._level += 1
        try:
            yield
        finally:
            self._level -= 1

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _tdma_grant_lines(ready: str, port: str, slot: int, ports: int) -> List[str]:
    """Closed form of ``TdmaArbiter.next_grant_opportunity`` as source lines.

    The first slot boundary at or after ``ready`` whose slot index is
    congruent to ``port`` modulo the port count; assigns ``_g``.
    """
    period = slot * ports
    return [
        f"_si = {ready} // {slot}",
        f"_g = (_si + (({port} - _si) % {ports})) * {slot}",
        f"if _g < {ready}:",
        f"    _g += {period}",
    ]


def _emit_channel_horizon(w: _SourceWriter, plan: _ChannelPlan) -> None:
    """Assign ``_h`` the channel's ``next_event_cycle(cycle)``, inlined."""
    r = plan.var
    w.line(f"if {r}._current is not None:")
    with w.indent():
        w.line(f"_h = {r}._busy_until")
    w.line(f"elif {r}._queued_total == 0:")
    with w.indent():
        w.line("_h = NO_EVENT")
    w.line("else:")
    with w.indent():
        w.line("_h = NO_EVENT")
        for port in range(plan.ports):
            w.line(f"_q = {r}q[{port}]")
            w.line("if _q:")
            with w.indent():
                w.line("_r = _q[0].ready_cycle")
                w.line("if _r < cycle:")
                with w.indent():
                    w.line("_r = cycle")
                if plan.policy == "tdma":
                    for text in _tdma_grant_lines("_r", str(port), plan.slot, plan.ports):
                        w.line(text)
                    w.line("if _g < _h:")
                    with w.indent():
                        w.line("_h = _g")
                else:
                    # Work-conserving policies can grant a ready head at
                    # once: the arbiter's horizon contribution is `ready`.
                    w.line("if _r < _h:")
                    with w.indent():
                        w.line("_h = _r")


def _emit_channel_winner(w: _SourceWriter, plan: _ChannelPlan) -> None:
    """Assign ``_w`` the arbitration winner (or -1), inlined per policy."""
    r = plan.var
    ports = plan.ports
    if plan.policy == "round_robin":
        # The Section 2 scan: i+1, i+2, ..., i from the last granted port,
        # fused with the pending check (head queued and ready).
        w.line("_w = -1")
        w.line(f"_port = arb_{r}._last_granted")
        w.line(f"for _n in range({ports}):")
        with w.indent():
            w.line("_port += 1")
            w.line(f"if _port >= {ports}:")
            with w.indent():
                w.line("_port = 0")
            w.line(f"_q = {r}q[_port]")
            w.line("if _q and _q[0].ready_cycle <= cycle:")
            with w.indent():
                w.line("_w = _port")
                w.line("break")
    elif plan.policy == "fifo":
        # Earliest readiness wins; the strict `<` keeps the lower port on
        # ties, matching FifoArbiter.select_with_ready's sorted() order.
        w.line("_w = -1")
        w.line("_best = 0")
        for port in range(ports):
            w.line(f"_q = {r}q[{port}]")
            w.line("if _q:")
            with w.indent():
                w.line("_r = _q[0].ready_cycle")
                if port == 0:
                    w.line("if _r <= cycle:")
                    with w.indent():
                        w.line(f"_w = {port}")
                        w.line("_best = _r")
                else:
                    w.line("if _r <= cycle and (_w < 0 or _r < _best):")
                    with w.indent():
                        w.line(f"_w = {port}")
                        w.line("_best = _r")
    elif plan.policy == "fixed_priority":
        # The rank table is read from the live arbiter so externally
        # constructed priority permutations keep working.
        w.line(f"_rank = arb_{r}._rank")
        w.line("_w = -1")
        w.line("_wr = 0")
        for port in range(ports):
            w.line(f"_q = {r}q[{port}]")
            w.line("if _q and _q[0].ready_cycle <= cycle:")
            with w.indent():
                w.line(f"_r = _rank[{port}]")
                w.line("if _w < 0 or _r < _wr:")
                with w.indent():
                    w.line(f"_w = {port}")
                    w.line("_wr = _r")
    else:  # tdma
        w.line("_w = -1")
        w.line(f"if cycle % {plan.slot} == 0:")
        with w.indent():
            w.line(f"_owner = (cycle // {plan.slot}) % {ports}")
            w.line(f"_q = {r}q[_owner]")
            w.line("if _q and _q[0].ready_cycle <= cycle:")
            with w.indent():
                w.line("_w = _owner")


def _emit_channel_winner_check(w: _SourceWriter, plan: _ChannelPlan) -> None:
    """Diagnostics: compare ``_w`` with the generic arbiter choice."""
    r = plan.var
    w.line(
        f"_pp = [_p for _p in range({plan.ports}) "
        f"if {r}q[_p] and {r}q[_p][0].ready_cycle <= cycle]"
    )
    w.line("if _pp:")
    with w.indent():
        w.line(
            f"_rc = [{r}q[_p][0].ready_cycle for _p in _pp] "
            f"if arb_{r}.uses_ready_order else None"
        )
        w.line(f"_wref = arb_{r}.choose(cycle, _pp, _rc)")
    w.line("else:")
    with w.indent():
        w.line("_wref = -1")
    w.line("if _w != _wref:")
    with w.indent():
        w.line("raise CodegenMismatch(")
        with w.indent():
            w.line(
                f"f\"{plan.label}: generated winner {{_w}} != generic "
                f"{{_wref}} at cycle {{cycle}}\""
            )
        w.line(")")


def _emit_horizon_check(w: _SourceWriter, var: str, label: str) -> None:
    """Diagnostics: compare ``_h`` with the generic ``next_event_cycle``."""
    w.line(f"_href = {var}.next_event_cycle(cycle)")
    w.line("if _h != _href:")
    with w.indent():
        w.line("raise CodegenMismatch(")
        with w.indent():
            w.line(
                f"f\"{label}: generated horizon {{_h}} != generic "
                f"{{_href}} at cycle {{cycle}}\""
            )
        w.line(")")


def _emit_bankq_horizon(w: _SourceWriter, plan: _BankQueuePlan) -> None:
    """Assign ``_h`` the bank-queued controller's horizon, inlined.

    The minimum over the in-flight completion heap and, per bank and port,
    the earliest grant opportunity (head readiness clamped by the clock and
    the bank's busy window, pushed to the next slot under TDMA).
    """
    r = plan.var
    w.line(f"_h = {r}f[0][0] if {r}f else NO_EVENT")
    w.line(f"if {r}._queued_total:")
    with w.indent():
        w.line(f"for _bank in range({plan.banks}):")
        with w.indent():
            w.line(f"_free = {r}banks[_bank].busy_until")
            w.line(f"_queues = {r}bq[_bank]")
            w.line(f"for _p in range({plan.ports}):")
            with w.indent():
                w.line("_q = _queues[_p]")
                w.line("if _q:")
                with w.indent():
                    w.line("_r = _q[0].ready_cycle")
                    w.line("if _r < cycle:")
                    with w.indent():
                        w.line("_r = cycle")
                    w.line("if _free > _r:")
                    with w.indent():
                        w.line("_r = _free")
                    if plan.policy == "tdma":
                        for text in _tdma_grant_lines("_r", "_p", plan.slot, plan.ports):
                            w.line(text)
                        w.line("if _g < _h:")
                        with w.indent():
                            w.line("_h = _g")
                    else:
                        w.line("if _r < _h:")
                        with w.indent():
                            w.line("_h = _r")


def _emit_bankq_grants(
    w: _SourceWriter, plan: _BankQueuePlan, diagnostics: bool
) -> None:
    """Grant at most one queued access per free bank, selection inlined."""
    r = plan.var
    ports = plan.ports
    if plan.policy == "tdma" and not diagnostics:
        # The slot gate is global to the controller, so the whole bank scan
        # can be skipped off-boundary.  (Diagnostics keeps the per-bank
        # shape so every bank's selection is cross-checked.)
        w.line(f"if {r}._queued_total and cycle % {plan.slot} == 0:")
    else:
        w.line(f"if {r}._queued_total:")
    with w.indent():
        w.line(f"for _bank in range({plan.banks}):")
        with w.indent():
            w.line(f"if {r}banks[_bank].busy_until > cycle:")
            with w.indent():
                w.line("continue")
            w.line(f"_queues = {r}bq[_bank]")
            if plan.policy == "round_robin":
                w.line(f"_arb = {r}arbs[_bank]")
                w.line("_w = -1")
                w.line("_port = _arb._last_granted")
                w.line(f"for _n in range({ports}):")
                with w.indent():
                    w.line("_port += 1")
                    w.line(f"if _port >= {ports}:")
                    with w.indent():
                        w.line("_port = 0")
                    w.line("_q = _queues[_port]")
                    w.line("if _q and _q[0].ready_cycle <= cycle:")
                    with w.indent():
                        w.line("_w = _port")
                        w.line("break")
            elif plan.policy == "fifo":
                w.line("_w = -1")
                w.line("_best = 0")
                w.line(f"for _p in range({ports}):")
                with w.indent():
                    w.line("_q = _queues[_p]")
                    w.line("if _q:")
                    with w.indent():
                        w.line("_r = _q[0].ready_cycle")
                        w.line("if _r <= cycle and (_w < 0 or _r < _best):")
                        with w.indent():
                            w.line("_w = _p")
                            w.line("_best = _r")
            elif plan.policy == "fixed_priority":
                # Bank arbiters are built by the controller with the default
                # identity permutation (specialisation_mismatch verifies),
                # so the rank minimum is simply the lowest pending port.
                w.line("_w = -1")
                w.line(f"for _p in range({ports}):")
                with w.indent():
                    w.line("_q = _queues[_p]")
                    w.line("if _q and _q[0].ready_cycle <= cycle:")
                    with w.indent():
                        w.line("_w = _p")
                        w.line("break")
            else:  # tdma
                w.line("_w = -1")
                w.line(f"if cycle % {plan.slot} == 0:")
                with w.indent():
                    w.line(f"_owner = (cycle // {plan.slot}) % {ports}")
                    w.line("_q = _queues[_owner]")
                    w.line("if _q and _q[0].ready_cycle <= cycle:")
                    with w.indent():
                        w.line("_w = _owner")
            if diagnostics:
                w.line(
                    f"_pp = [_p for _p in range({ports}) "
                    "if _queues[_p] and _queues[_p][0].ready_cycle <= cycle]"
                )
                w.line("if _pp:")
                with w.indent():
                    w.line(
                        "_rc = [_queues[_p][0].ready_cycle for _p in _pp] "
                        f"if {r}arbs[_bank].uses_ready_order else None"
                    )
                    w.line(f"_wref = {r}arbs[_bank].choose(cycle, _pp, _rc)")
                w.line("else:")
                with w.indent():
                    w.line("_wref = -1")
                w.line("if _w != _wref:")
                with w.indent():
                    w.line("raise CodegenMismatch(")
                    with w.indent():
                        w.line(
                            f"f\"{plan.label} bank {{_bank}}: generated winner "
                            f"{{_w}} != generic {{_wref}} at cycle {{cycle}}\""
                        )
                    w.line(")")
            w.line("if _w >= 0:")
            with w.indent():
                # Grant side effects stay in the controller; the order
                # mirrors BankQueuedMemoryController.arbitrate exactly.
                w.line("_access = _queues[_w].popleft()")
                w.line(f"{r}._queued_total -= 1")
                w.line(f"{r}arbs[_bank].notify_grant(cycle, _w)")
                w.line(f"{r}._grant(_access, cycle)")


def _emit_phase1(w: _SourceWriter, plan: _ResourcePlan) -> None:
    """Phase 1 — deliver ``plan``'s resource if its horizon is due."""
    r = plan.var
    w.line(f"# {plan.label}: deliver")
    w.line(f"if {r}._horizon_dirty:")
    with w.indent():
        if isinstance(plan, _ChannelPlan):
            _emit_channel_horizon(w, plan)
        elif isinstance(plan, _PlainMemPlan):
            w.line(f"_h = {r}f[0][0] if {r}f else NO_EVENT")
        else:
            _emit_bankq_horizon(w, plan)
        w.line(f"{r}._horizon_cache = _h")
        w.line(f"{r}._horizon_dirty = False")
    w.line("else:")
    with w.indent():
        w.line(f"_h = {r}._horizon_cache")
    w.line("if _h <= cycle:")
    with w.indent():
        w.line(f"{r}.deliver(cycle)")
        if isinstance(plan, _ChannelPlan):
            # Only bus channels wake cores; the controllers deliver into
            # the system's read callback and keep wake_targets empty.
            w.line(f"for _core_id in {r}.wake_targets:")
            with w.indent():
                w.line("woken |= 1 << _core_id")


def _emit_phase3(w: _SourceWriter, plan: _ResourcePlan, diagnostics: bool) -> None:
    """Phase 3 — arbitrate ``plan``'s resource and fold its horizon."""
    r = plan.var
    w.line(f"# {plan.label}: arbitrate + horizon")
    w.line(f"if {r}._horizon_dirty or {r}._horizon_cache <= cycle:")
    with w.indent():
        if isinstance(plan, _ChannelPlan):
            w.line(f"if {r}._current is None and {r}._queued_total:")
            with w.indent():
                _emit_channel_winner(w, plan)
                if diagnostics:
                    _emit_channel_winner_check(w, plan)
                w.line("if _w >= 0:")
                with w.indent():
                    w.line(f"{r}._grant_port(_w, cycle)")
            _emit_channel_horizon(w, plan)
        elif isinstance(plan, _PlainMemPlan):
            # The plain controller's arbitrate() is a no-op: only the
            # completion heap contributes events.
            w.line(f"_h = {r}f[0][0] if {r}f else NO_EVENT")
        else:
            _emit_bankq_grants(w, plan, diagnostics)
            _emit_bankq_horizon(w, plan)
        if diagnostics:
            _emit_horizon_check(w, r, plan.label)
        w.line(f"{r}._horizon_cache = _h")
        w.line(f"{r}._horizon_dirty = False")
    w.line("else:")
    with w.indent():
        w.line(f"_h = {r}._horizon_cache")
    w.line("if _h < horizon:")
    with w.indent():
        w.line("horizon = _h")


def generate_loop_source(
    config: ArchConfig, diagnostics: bool = False, replay_mask: int = 0
) -> str:
    """Generate the specialised run-loop module for ``config``.

    Pure and deterministic: the same configuration always yields the same
    source (the golden-snapshot tests rely on this).  Raises
    :class:`UnspecialisableError` when the configuration names a topology or
    policy the generator cannot inline.

    ``replay_mask`` is a bitmask of core indices the replay engine has
    swapped for :class:`repro.sim.trace.ReplayCore` instances.  A replayed
    core has no READY state, no store buffer and never needs a wake-up
    re-check, so its phase-2 block collapses to a single busy-until test
    and its horizon fold to the executing branch — the composition of the
    codegen and trace-replay optimisations.  ``replay_mask=0`` emits
    byte-identical source to the pre-replay generator (the golden
    snapshots pin this).
    """
    plans = _resource_plans(config)
    cores = config.num_cores
    w = _SourceWriter()
    w.line('"""Generated event loop (repro.sim.codegen).')
    w.line("")
    w.line(f"topology: {config.topology.name}")
    for plan in plans:
        if isinstance(plan, _ChannelPlan):
            w.line(
                f"  {plan.var} {plan.label}: {plan.ports} ports, "
                f"{plan.policy}" + (f" slot={plan.slot}" if plan.policy == "tdma" else "")
            )
        elif isinstance(plan, _PlainMemPlan):
            w.line(f"  {plan.var} {plan.label}: arrival-scheduled (no arbitration)")
        else:
            w.line(
                f"  {plan.var} {plan.label}: {plan.banks} banks x {plan.ports} ports, "
                f"{plan.policy}" + (f" slot={plan.slot}" if plan.policy == "tdma" else "")
            )
    w.line(f"cores: {cores}")
    if replay_mask:
        replayed = [i for i in range(cores) if (replay_mask >> i) & 1]
        w.line(f"replay cores: {replayed}")
    w.line(f"cache key: {loop_cache_key(config)}")
    if diagnostics:
        w.line("diagnostics: cross-checking inlined logic against generic methods")
    w.line('"""')
    w.line("")
    w.line("from repro.sim.core import CoreState")
    if diagnostics:
        w.line("from repro.sim.codegen import CodegenMismatch")
    w.line("")
    w.line("")
    w.line("def run(system, observed, max_cycles):")
    with w.indent():
        w.line(f"NO_EVENT = {NO_EVENT}")
        w.line("executing = CoreState.EXECUTING")
        w.line("ready = CoreState.READY")
        w.line("stalled = CoreState.STALL_STORE_BUFFER")
        w.line("done = CoreState.DONE")
        w.line("resources = system.resources")
        w.line("cores = system.cores")
        w.line("observed_cores = [cores[_i] for _i in observed]")
        w.line("only = observed_cores[0] if len(observed_cores) == 1 else None")
        # Stable sub-objects are prebound once per run: queue deques, the
        # in-flight heaps and the DRAM bank list survive reset() in place.
        for index, plan in enumerate(plans):
            r = plan.var
            w.line(f"{r} = resources[{index}]")
            if isinstance(plan, _ChannelPlan):
                w.line(f"{r}q = {r}._queues")
                w.line(f"arb_{r} = {r}.arbiter")
            elif isinstance(plan, _PlainMemPlan):
                w.line(f"{r}f = {r}._in_flight")
            else:
                w.line(f"{r}f = {r}._in_flight")
                w.line(f"{r}bq = {r}._bank_queues")
                w.line(f"{r}banks = {r}.dram._banks")
                w.line(f"{r}arbs = {r}.bank_arbiters")
        for core in range(cores):
            w.line(f"c{core} = cores[{core}]")
        w.line("cycle = system.current_cycle")
        w.line("timed_out = False")
        w.line("while True:")
        with w.indent():
            w.line("woken = 0")
            for plan in plans:
                _emit_phase1(w, plan)
            for core in range(cores):
                if (replay_mask >> core) & 1:
                    # A replay core acts exactly once per request: at the
                    # end of its compute segment.  Deliveries re-enter the
                    # EXECUTING state directly (no READY hop), a zero-gap
                    # segment has busy_until == cycle, and there is no
                    # store buffer — so the single test below is complete.
                    w.line(f"# core {core}: tick (replay)")
                    w.line(
                        f"if c{core}.state is executing and "
                        f"cycle >= c{core}._busy_until:"
                    )
                    with w.indent():
                        w.line(f"c{core}.tick(cycle)")
                    continue
                w.line(f"# core {core}: tick")
                w.line(f"_s = c{core}.state")
                w.line("if _s is executing:")
                with w.indent():
                    w.line(
                        f"if cycle >= c{core}._busy_until or "
                        f"(woken >> {core}) & 1 and c{core}.needs_tick(cycle):"
                    )
                    with w.indent():
                        w.line(f"c{core}.tick(cycle)")
                w.line("elif _s is ready or _s is stalled:")
                with w.indent():
                    w.line(f"c{core}.tick(cycle)")
                w.line(f"elif (woken >> {core}) & 1 and c{core}.needs_tick(cycle):")
                with w.indent():
                    w.line(f"c{core}.tick(cycle)")
            w.line("horizon = NO_EVENT")
            for plan in plans:
                _emit_phase3(w, plan, diagnostics)
            w.line("if only is not None:")
            with w.indent():
                w.line("if only.state is done:")
                with w.indent():
                    w.line("break")
            w.line("else:")
            with w.indent():
                w.line("for _c in observed_cores:")
                with w.indent():
                    w.line("if _c.state is not done:")
                    with w.indent():
                        w.line("break")
                w.line("else:")
                with w.indent():
                    w.line("break")
            w.line("if cycle >= max_cycles:")
            with w.indent():
                w.line("timed_out = True")
                w.line("break")
            for core in range(cores):
                if (replay_mask >> core) & 1:
                    # No READY state on a replay core: only the end of an
                    # executing segment contributes a horizon.
                    w.line(f"if c{core}.state is executing:")
                    with w.indent():
                        w.line(f"_ch = c{core}._busy_until")
                        w.line("if _ch < horizon:")
                        with w.indent():
                            w.line("horizon = _ch")
                    continue
                w.line(f"_s = c{core}.state")
                w.line("if _s is executing:")
                with w.indent():
                    w.line(f"_ch = c{core}._busy_until")
                    w.line("if _ch < horizon:")
                    with w.indent():
                        w.line("horizon = _ch")
                w.line("elif _s is ready and cycle + 1 < horizon:")
                with w.indent():
                    w.line("horizon = cycle + 1")
            w.line("if horizon <= cycle:")
            with w.indent():
                w.line("cycle += 1")
            w.line("elif horizon <= max_cycles:")
            with w.indent():
                w.line("cycle = horizon")
            w.line("else:")
            with w.indent():
                w.line("cycle = max_cycles")
        w.line("system.pmc.cycles = cycle + 1")
        w.line("system.current_cycle = cycle")
        w.line("return cycle, timed_out")
    return w.render()


# --------------------------------------------------------------------------- #
# Digest-keyed compile cache.
# --------------------------------------------------------------------------- #


def loop_cache_key(config: ArchConfig) -> str:
    """Content digest selecting a compiled loop for ``config``.

    ``ArchConfig.digest()`` minus the ``engine`` field: the engine choice
    selects *which* loop runs but never changes what the specialised loop
    must do, so ``engine="event"`` and ``engine="codegen"`` twins share one
    compiled loop.  Everything else that shapes the generated source — the
    topology chain, the arbiter set, slot lengths, core and bank counts —
    is part of the digest, so distinct platforms cannot collide.
    """
    payload = config.to_dict()
    payload.pop("engine", None)
    return canonical_digest(payload)


@dataclass(frozen=True)
class CompiledLoop:
    """A compiled specialised loop plus its provenance.

    Attributes:
        key: the :func:`loop_cache_key` digest the loop was compiled for.
        source: the generated module source (attached to failures by the
            equivalence harness; snapshot by the golden tests).
        run: the compiled entry point,
            ``run(system, observed, max_cycles) -> (cycle, timed_out)``.
        diagnostics: True for the self-checking variant.
    """

    key: str
    source: str
    run: Callable[..., Tuple[int, bool]]
    diagnostics: bool


#: (digest, diagnostics, replay_mask) -> compiled loop.  The replay mask is
#: part of the slot because a masked loop hard-codes which cores get the
#: reduced replay blocks; ``0`` is the plain (and pre-replay) variant.
_COMPILE_CACHE: Dict[Tuple[str, bool, int], CompiledLoop] = {}


def _compile(source: str, key: str, diagnostics: bool) -> CompiledLoop:
    namespace: Dict[str, object] = {}
    exec(  # noqa: S102 - compiling our own generated source is the feature
        compile(source, f"<codegen:{key[:12]}>", "exec"), namespace
    )
    run = namespace["run"]
    assert callable(run)
    return CompiledLoop(key=key, source=source, run=run, diagnostics=diagnostics)


def compile_loop(
    config: ArchConfig, diagnostics: bool = False, replay_mask: int = 0
) -> CompiledLoop:
    """Compile (or fetch from the per-process cache) the loop for ``config``.

    Cached the way campaign results are — content-addressed by
    :func:`loop_cache_key` — so every configuration with an equal digest
    reuses the identical :class:`CompiledLoop` object.  The diagnostics and
    replay-masked variants are cached under their own slots and never serve
    normal runs.
    """
    key = loop_cache_key(config)
    cache_key = (key, diagnostics, replay_mask)
    loop = _COMPILE_CACHE.get(cache_key)
    if loop is None:
        source = generate_loop_source(
            config, diagnostics=diagnostics, replay_mask=replay_mask
        )
        loop = _compile(source, key, diagnostics)
        _COMPILE_CACHE[cache_key] = loop
    return loop


def regenerate(config: ArchConfig, diagnostics: bool = False) -> CompiledLoop:
    """Drop any cached loop for ``config`` and compile a fresh one.

    The equivalence harness's second chance: after a four-way mismatch it
    regenerates (usually with ``diagnostics=True``) so a stale or corrupted
    cache entry cannot mask — or cause — the divergence being reported.
    """
    key = loop_cache_key(config)
    _COMPILE_CACHE.pop((key, diagnostics, 0), None)
    return compile_loop(config, diagnostics=diagnostics)


def clear_compile_cache() -> None:
    """Empty the per-process compile cache (test isolation hook)."""
    _COMPILE_CACHE.clear()


def compile_cache_size() -> int:
    """Number of cached compiled loops (both variants)."""
    return len(_COMPILE_CACHE)


# --------------------------------------------------------------------------- #
# Bind-time guards and the engine.
# --------------------------------------------------------------------------- #


def specialisation_mismatch(system: "System") -> Optional[str]:
    """Why ``system`` cannot run the generated loop, or ``None`` if it can.

    The generated source is derived from the *configuration*; this guard
    verifies the *built* chain matches it — same resource classes in the
    same order, arbiter instances of exactly the expected built-in classes
    (a subclass may override selection), TDMA slots as configured and
    identity bank priorities.  Any mismatch — a registered topology or
    policy, an external arbiter, a resource subclass — returns a reason and
    :class:`CodegenEngine` falls back to the generic ``EventScheduler``.
    """
    config = system.config
    try:
        plans = _resource_plans(config)
    except UnspecialisableError as exc:
        return str(exc)
    resources = system.resources
    if len(resources) != len(plans):
        return (
            f"chain has {len(resources)} resources, expected {len(plans)} "
            f"for topology {config.topology.name!r}"
        )
    if len(system.cores) != config.num_cores:
        return "core count does not match the configuration"
    for plan, resource in zip(plans, resources):
        if isinstance(plan, _ChannelPlan):
            if type(resource) is not Bus:
                return f"{plan.label} is {type(resource).__name__}, not Bus"
            if resource.num_ports != plan.ports:
                return f"{plan.label} has {resource.num_ports} ports, expected {plan.ports}"
            arbiter = resource.arbiter
            if type(arbiter) is not _ARBITER_CLASSES[plan.policy]:
                return (
                    f"{plan.label} arbiter is {type(arbiter).__name__}, "
                    f"not the built-in {plan.policy!r} class"
                )
            if plan.policy == "tdma" and arbiter.slot_cycles != plan.slot:
                return f"{plan.label} TDMA slot differs from the configuration"
        elif isinstance(plan, _PlainMemPlan):
            if type(resource) is not MemoryController:
                return (
                    f"{plan.label} is {type(resource).__name__}, "
                    "not the plain MemoryController"
                )
        else:
            if type(resource) is not BankQueuedMemoryController:
                return (
                    f"{plan.label} is {type(resource).__name__}, "
                    "not BankQueuedMemoryController"
                )
            if resource.num_ports != plan.ports:
                return f"{plan.label} has {resource.num_ports} ports, expected {plan.ports}"
            if len(resource.bank_arbiters) != plan.banks:
                return f"{plan.label} bank count does not match the configuration"
            for bank_arbiter in resource.bank_arbiters:
                if type(bank_arbiter) is not _ARBITER_CLASSES[plan.policy]:
                    return (
                        f"{plan.label} bank arbiter is "
                        f"{type(bank_arbiter).__name__}, not the built-in "
                        f"{plan.policy!r} class"
                    )
                if plan.policy == "tdma" and bank_arbiter.slot_cycles != plan.slot:
                    return f"{plan.label} TDMA slot differs from the configuration"
                if plan.policy == "fixed_priority" and any(
                    bank_arbiter._rank[port] != port
                    for port in range(plan.ports)
                ):
                    return f"{plan.label} bank priorities are not the identity"
    return None


class CodegenEngine:
    """The ``codegen`` engine: run the chain-specialised generated loop.

    Binds the compiled loop for ``system.config`` at construction time (one
    generation + compile per configuration digest per process, then cache
    hits).  When :func:`specialisation_mismatch` reports anything the
    generator cannot specialise, the engine holds a generic
    :class:`~repro.sim.scheduler.EventScheduler` instead and delegates every
    run to it — ``fallback_reason`` says why.

    Args:
        system: the :class:`repro.sim.system.System` to drive.
        replay_mask: bitmask of the cores the replay engine has swapped
            for :class:`repro.sim.trace.ReplayCore` instances (see
            :func:`generate_loop_source`); ``0`` binds the plain loop.
    """

    name = "codegen"
    fast_forward = True
    #: Skips the steady state, on the generated loop and on the fallback.
    steady_state_decline = None

    def __init__(self, system: "System", replay_mask: int = 0) -> None:
        self.system = system
        self.fallback_reason = specialisation_mismatch(system)
        if self.fallback_reason is None:
            self.compiled: Optional[CompiledLoop] = compile_loop(
                system.config, replay_mask=replay_mask
            )
            self._fallback: Optional[EventScheduler] = None
        else:
            self.compiled = None
            self._fallback = EventScheduler(system)

    def run(self, observed: List[int], max_cycles: int) -> Tuple[int, bool]:
        """Run the generated loop (or the generic fallback); returns the
        final cycle and whether the run timed out."""
        if self.compiled is None:
            assert self._fallback is not None
            return self._fallback.run(observed, max_cycles)
        return self.compiled.run(self.system, observed, max_cycles)
