"""Steady-state skipping (``repro.sim.steady``) against the stepped oracle.

The ``event`` and ``codegen`` engines add whole loop iterations once the
normalised system state repeats.  These tests prove three things:

* the jump really engages (the skip record shows extrapolated
  iterations) on the paper's rsk-nop runs, and the skipping run still
  matches the oracle on everything observable, including every private
  cache's LRU stamps (:func:`_run_with_segments`, untraced: traced runs
  decline);
* every run that must not skip declines with a named reason;
* keys are exact: states that differ in one LRU order, one store-buffer
  entry or one arbiter pointer never share a key.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import TopologyConfig, get_preset, small_config
from repro.kernels.rsk import build_rsk_nop, build_stress_contender_set
from repro.sim import steady
from repro.sim.bus import BusRequest
from repro.sim.core import CoreState, _Phase
from repro.sim.isa import Load, Program
from repro.sim.memctrl import PendingRead
from repro.sim.pmc import ResourceCounters
from repro.sim.scheduler import ENGINE_REGISTRY
from repro.sim.system import System
from repro.sim.topology import TOPOLOGY_REGISTRY, register_topology

# tests/ is not a package (no __init__.py); pytest's rootdir-relative sys.path
# insertion makes the sibling module importable absolutely.
from test_engine_equivalence import (
    _bodies,
    _build_linked_bus,
    _configs,
    _observable_state,
    _run_with_segments,
)


def _rsk_programs(config, kind, k, iterations) -> List[Optional[Program]]:
    programs: List[Optional[Program]] = [None] * config.num_cores
    programs[0] = build_rsk_nop(config, 0, kind=kind, k=k, iterations=iterations)
    for core, program in build_stress_contender_set(config, "bus", 0, kind=kind).items():
        programs[core] = program
    return programs


def _with_arbiter(config, arbiter):
    return config.with_overrides(bus=replace(config.bus, arbitration=arbiter))


def _skipping_run(config, programs, max_cycles=2_000_000):
    """The oracle differential, untraced, with the L2 and IL1 warmed as in
    every methodology run; returns the per-engine results."""
    return _run_with_segments(
        config, programs, max_cycles, trace=False, preload_l2=True, preload_il1=True
    )


class TestTheJumpEngages:
    @pytest.mark.parametrize("preset", ["ref", "var", "split_bus"])
    @pytest.mark.parametrize("arbiter", ["round_robin", "fifo", "tdma"])
    @pytest.mark.parametrize("k", [0, 5, 13, 27, 40])
    def test_rsk_nop_load_skips_and_matches_the_oracle(self, preset, arbiter, k):
        config = _with_arbiter(get_preset(preset), arbiter)
        outcomes = _skipping_run(config, _rsk_programs(config, "load", k, 12))
        for engine in ("event", "codegen"):
            skip = outcomes[engine].skip
            assert skip.reason is None
            assert skip.extrapolated_iterations > 0
            assert skip.simulated_iterations + skip.extrapolated_iterations == 12
            assert skip.extrapolated_iterations % skip.period_iterations == 0
        assert outcomes["event"].skip == outcomes["codegen"].skip

    def test_fifo_loads_repeat_every_three_iterations(self):
        config = _with_arbiter(get_preset("ref"), "fifo")
        outcomes = _skipping_run(config, _rsk_programs(config, "load", 13, 12))
        assert outcomes["event"].skip.period_iterations == 3

    def test_most_of_a_long_run_is_extrapolated(self):
        config = get_preset("ref")
        outcomes = _skipping_run(config, _rsk_programs(config, "load", 5, 40))
        skip = outcomes["codegen"].skip
        assert skip.simulated_iterations <= 4
        assert skip.period_iterations == 1
        assert skip.period_cycles > 0


def _loops(iterations):
    return st.builds(
        lambda body, count: Program(name="loop", body=tuple(body), iterations=count),
        body=_bodies,
        count=iterations,
    )


class TestRandomLoops:
    @given(
        config=_configs,
        observed_program=_loops(st.integers(min_value=4, max_value=40)),
        contender_programs=st.lists(
            st.one_of(st.none(), _loops(st.none()), _loops(st.integers(1, 60))), max_size=3
        ),
        preload_l2=st.booleans(),
        preload_il1=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_skipping_runs_match_the_oracle(
        self, config, observed_program, contender_programs, preload_l2, preload_il1
    ):
        """Random geometries, topologies, arbiters and loop bodies, with
        finite contenders whose end must never be jumped past."""
        programs: List[Optional[Program]] = [observed_program]
        programs.extend(contender_programs[: config.num_cores - 1])
        programs.extend([None] * (config.num_cores - len(programs)))
        _run_with_segments(
            config,
            programs,
            2_000_000,
            trace=False,
            preload_l2=preload_l2,
            preload_il1=preload_il1,
        )


class TestStores:
    def test_store_buffer_settles_late_at_k33(self):
        """Per-iteration time is constant for 27 iterations before the store
        buffer settles; a timing detector would jump early.  The key first
        repeats only once the buffer's state does."""
        config = get_preset("ref")
        outcomes = _skipping_run(config, _rsk_programs(config, "store", 33, 40))
        skip = outcomes["event"].skip
        assert skip.extrapolated_iterations > 0
        assert skip.period_iterations == 1
        assert skip.simulated_iterations > 27

    def test_store_period_longer_than_one_iteration(self):
        config = get_preset("ref")
        outcomes = _skipping_run(config, _rsk_programs(config, "store", 50, 40))
        skip = outcomes["codegen"].skip
        assert skip.extrapolated_iterations > 0
        assert skip.period_iterations == 9


class TestDeclines:
    def test_fixed_priority_never_repeats(self):
        """A starved contender's wait grows every iteration (and max_wait
        records it), so the state never repeats."""
        config = _with_arbiter(get_preset("ref"), "fixed_priority")
        iterations = steady.MAX_LOOP_BACKS + 4
        outcomes = _skipping_run(config, _rsk_programs(config, "load", 0, iterations))
        for engine in ("event", "codegen"):
            assert outcomes[engine].skip.reason == steady.NO_REPEAT
            assert outcomes[engine].skip.extrapolated_iterations == 0
            assert outcomes[engine].skip.simulated_iterations == iterations

    def test_a_run_that_never_repeats_pays_for_probes_only(self, monkeypatch):
        """Past the first loop-backs, the full key (every cache walked) is
        taken only when the cheap resource probe repeats."""
        config = _with_arbiter(get_preset("ref"), "fixed_priority")
        system = System(config, _rsk_programs(config, "load", 0, 80), preload_l2=True)
        calls = []
        full_key = system.steady_key
        monkeypatch.setattr(
            system, "steady_key", lambda cycle: calls.append(cycle) or full_key(cycle)
        )
        assert system.run(observed_cores=[0]).skip.reason == steady.NO_REPEAT
        assert len(calls) == steady.EAGER_LOOP_BACKS

    @pytest.mark.parametrize(
        "engine, fragment", [("stepped", "oracle"), ("replay", "capture probes")]
    )
    def test_engine_classes_that_do_not_skip_say_why(self, engine, fragment):
        config = small_config(engine=engine)
        result = System(config, _rsk_programs(config, "load", 5, 12)).run(observed_cores=[0])
        assert fragment in result.skip.reason
        assert result.skip.extrapolated_iterations == 0

    def test_every_engine_class_declares_whether_it_skips(self):
        declared = {
            name: entry.cls.steady_state_decline for name, entry in ENGINE_REGISTRY.items()
        }
        assert declared["event"] is None and declared["codegen"] is None
        assert declared["stepped"] and declared["replay"]

    def test_traced_runs_decline(self):
        config = small_config()
        system = System(config, _rsk_programs(config, "load", 5, 12), trace=True)
        assert system.run(observed_cores=[0]).skip.reason == steady.TRACED

    def test_several_observed_cores_decline(self):
        config = small_config()
        programs = _rsk_programs(config, "load", 5, 12)
        programs[1] = build_rsk_nop(config, 1, k=5, iterations=12)
        result = System(config, programs).run(observed_cores=[0, 1])
        assert result.skip.reason == steady.SEVERAL_OBSERVED

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_too_few_iterations_decline(self, iterations):
        config = small_config()
        result = System(config, _rsk_programs(config, "load", 5, iterations)).run()
        assert result.skip.reason == steady.TOO_FEW_ITERATIONS
        assert result.skip.simulated_iterations == iterations

    def test_a_resource_without_a_key_declines(self):
        register_topology("test_steady_link", "test-only bus with a keyless stage")(
            _build_linked_bus
        )
        try:
            config = small_config(topology=TopologyConfig(name="test_steady_link"))
            result = System(config, _rsk_programs(config, "load", 5, 12)).run()
        finally:
            TOPOLOGY_REGISTRY.pop("test_steady_link")
        assert result.skip.reason == "resource 'response_link' declares no steady-state key"


class TestBounds:
    @pytest.mark.parametrize("max_cycles", [20_000, 20_777])
    def test_timeout_stops_on_the_oracles_cycle(self, max_cycles):
        config = small_config()
        outcomes = _skipping_run(config, _rsk_programs(config, "load", 5, 10_000), max_cycles)
        for outcome in outcomes.values():
            assert outcome.timed_out
            assert outcome.cycles == max_cycles + 1
        assert outcomes["event"].skip.extrapolated_iterations > 0

    def test_finite_contender_is_never_jumped_past_its_end(self):
        """A finite non-observed program keeps running exactly: its end is
        reached by simulation, at the oracle's cycle."""
        config = small_config()
        programs = _rsk_programs(config, "load", 5, 40)
        programs[1] = build_rsk_nop(config, 1, k=5, iterations=25)
        outcomes = _run_with_segments(
            config, programs, 2_000_000, trace=False, preload_l2=True, preload_il1=True
        )
        assert outcomes["stepped"].done_cycles[1] is not None
        assert outcomes["event"].skip.extrapolated_iterations > 0

    def test_skipping_is_invisible_in_every_counter(self):
        config = get_preset("ref")
        programs = _rsk_programs(config, "load", 13, 30)
        results = {
            engine: System(
                config.with_overrides(engine=engine), programs, preload_l2=True, preload_il1=True
            ).run(observed_cores=[0])
            for engine in ("stepped", "codegen")
        }
        assert results["codegen"].skip.extrapolated_iterations > 0
        assert _observable_state(results["codegen"]) == _observable_state(results["stepped"])
        assert results["codegen"].memctrl_stats == results["stepped"].memctrl_stats


# --------------------------------------------------------------------------- #
# Near misses: one differing detail must change the key.
# --------------------------------------------------------------------------- #


def _running_system(arbiter, kind, k, cycles):
    config = small_config(bus=replace(small_config().bus, arbitration=arbiter))
    system = System(config, _rsk_programs(config, kind, k, 10_000), preload_l2=True)
    system.run(observed_cores=[0], max_cycles=cycles)
    return system


def _reorder_lru(system, draw):
    """Touch a line that is not the most recent one of its set."""
    candidates = []
    for core in system.cores:
        for cache in (core.il1, core.dl1):
            for index, line_set in enumerate(cache._sets):
                ranked = sorted(line_set.items(), key=lambda item: item[1][0])
                candidates.extend((cache, index, tag) for tag, _ in ranked[:-1])
    assume(candidates)
    cache, index, tag = draw(st.sampled_from(candidates))
    line_shift = cache._line_shift
    addr = ((tag << cache._index_bits) | index) << line_shift
    assert cache.lookup(addr)


def _change_store_buffer(system, draw):
    buffers = [core.store_buffer for core in system.cores]
    buffer = draw(st.sampled_from(buffers))
    if buffer._entries and draw(st.booleans()):
        entry = draw(st.sampled_from(list(buffer._entries)))
        entry.addr += system.config.line_size
    else:
        assume(not buffer.is_full())
        buffer.try_push(0x7000_0000, system.current_cycle)


def _move_arbiter_pointer(system, draw):
    arbiter = system.bus.arbiter
    assume(arbiter.policy_name == "round_robin")
    others = [port for port in range(arbiter.num_ports) if port != arbiter._last_granted]
    arbiter._last_granted = draw(st.sampled_from(others))


_PERTURBATIONS = [_reorder_lru, _change_store_buffer, _move_arbiter_pointer]


class TestNearMisses:
    @given(
        arbiter=st.sampled_from(["round_robin", "fifo", "tdma"]),
        kind=st.sampled_from(["load", "store"]),
        k=st.integers(min_value=0, max_value=40),
        cycles=st.integers(min_value=50, max_value=3000),
        perturb=st.sampled_from(_PERTURBATIONS),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_differing_detail_changes_the_key(
        self, arbiter, kind, k, cycles, perturb, data
    ):
        system = _running_system(arbiter, kind, k, cycles)
        cycle = system.current_cycle
        before, _ = system.steady_key(cycle)
        perturb(system, data.draw)
        after, _ = system.steady_key(cycle)
        assert after != before

    def test_an_unchanged_system_keys_equal(self):
        system = _running_system("round_robin", "store", 33, 2000)
        cycle = system.current_cycle
        assert system.steady_key(cycle) == system.steady_key(cycle)

    def test_the_key_is_relative_to_the_cycle(self):
        """A pending request keeps its age: the key read one cycle later
        differs (readiness offsets grow), so time alone never repeats."""
        system = _running_system("round_robin", "load", 0, 2000)
        cycle = system.current_cycle
        assert system.bus.requests()
        assert system.steady_key(cycle)[0] != system.steady_key(cycle + 1)[0]


# --------------------------------------------------------------------------- #
# Every state field is in the key: change exactly one, the key must change.
# --------------------------------------------------------------------------- #


def _keyed_system(topology):
    """A store run stopped mid-flight, so every structure holds state."""
    config = small_config(topology=TopologyConfig(name=topology, mem_arbitration="round_robin"))
    system = System(config, _rsk_programs(config, "store", 5, 50), preload_l2=True)
    system.run(observed_cores=[0], max_cycles=400)
    return system


def _first_line(cache):
    for index, line_set in enumerate(cache._sets):
        for tag, line in line_set.items():
            return index, tag, line
    raise AssertionError("empty cache")


def _fill_set(cache):
    """Give the first resident line's set a second line."""
    index, tag, _ = _first_line(cache)
    cache.fill(((tag + 1) << cache._index_bits | index) << cache._line_shift)


def _retag(cache):
    """Swap a set's only line for another tag."""
    for index, line_set in enumerate(cache._sets):
        if len(line_set) == 1:
            (tag,) = line_set
            address = (tag << cache._index_bits | index) << cache._line_shift
            cache.invalidate(address)
            cache.fill(address + (cache.config.num_sets << cache._line_shift))
            return
    raise AssertionError("no set holds a single line")


def _touch(cache, change):
    """Apply ``change(index, tag, line)`` to a resident line, as the cache's
    own operations would mark it."""
    index, tag, line = _first_line(cache)
    change(cache, index, tag, line)
    cache._touched.add(index)


def _demand(system, port=1, kind="load", addr=0x2000, age=3):
    return BusRequest(
        port, kind, addr, system.current_cycle - age, port, system._complete_demand
    )


def _post(system, request=None):
    system.bus.post(request or _demand(system))


def _free_bus(system):
    system.bus._current = None


def _with_current(system):
    request = _demand(system)
    request.grant_cycle = system.current_cycle - 1
    request.service_cycles = 4
    system.bus._current = request
    system.bus._busy_until = system.current_cycle + 3


def _queued_request(system):
    _post(system)
    return system.bus._queues[1][-1]


def _in_flight_read(system):
    read = PendingRead(1, 0x3000, system.current_cycle - 2, system.current_cycle + 9, "load")
    system.memctrl._in_flight.append((read.complete_cycle, 10**6, read))
    return read


def _last_read(system):
    """The read :func:`_in_flight_read` put in flight."""
    return system.memctrl._in_flight[-1][2]


def _queued_access(system):
    system.memctrl.enqueue_read(1, 0x5000, system.current_cycle - 1)


def _stall(system):
    core = system.cores[0]
    core.state = CoreState.STALL_STORE_BUFFER
    core._stall_store_addr = 0x40
    core._stall_entry_cycle = system.current_cycle - 2


def _segment(system):
    core = system.cores[0]
    core._phase = _Phase.SEGMENT
    core._seg_retired, core._seg_stop = 1, 3


def _core(system):
    return system.cores[0]


def _set(obj, name, value):
    setattr(obj, name, value)


_NOTHING = None

#: (topology, field, setup, change): ``setup`` makes the field matter,
#: ``change`` alters that field alone.
_FIELD_CASES = [
    ("bus_only", "core.state", _NOTHING, lambda s: _set(_core(s), "state", CoreState.WAIT_LOAD)),
    (
        "bus_only",
        "core.phase",
        lambda s: _set(_core(s), "_phase", _Phase.SIMPLE),
        lambda s: _set(_core(s), "_phase", _Phase.DL1_LOAD),
    ),
    ("bus_only", "core.position", _NOTHING, lambda s: _set(_core(s), "_next", _core(s)._next + 1)),
    ("bus_only", "core.instr", _NOTHING, lambda s: _set(_core(s), "_current_instr", Load(0x40))),
    (
        "bus_only",
        "core.fetched",
        _NOTHING,
        lambda s: _set(_core(s), "_fetched_pending", not _core(s)._fetched_pending),
    ),
    ("bus_only", "core.segment", _segment, lambda s: _set(_core(s), "_seg_retired", 2)),
    ("bus_only", "core.stall_addr", _stall, lambda s: _set(_core(s), "_stall_store_addr", 0x80)),
    (
        "bus_only",
        "core.stall_entry",
        _stall,
        lambda s: _set(_core(s), "_stall_entry_cycle", s.current_cycle - 3),
    ),
    (
        "bus_only",
        "core.busy_until",
        lambda s: _set(_core(s), "_busy_until", s.current_cycle + 5),
        lambda s: _set(_core(s), "_busy_until", s.current_cycle + 6),
    ),
    ("bus_only", "il1.tag", _NOTHING, lambda s: _core(s).il1.fill(0x7700_0000)),
    ("bus_only", "il1.tag_of_a_lone_line", _NOTHING, lambda s: _retag(_core(s).il1)),
    (
        "bus_only",
        "il1.dirty",
        _NOTHING,
        lambda s: _touch(_core(s).il1, lambda c, i, t, line: line.__setitem__(1, not line[1])),
    ),
    (
        "bus_only",
        "il1.dirty_in_a_full_set",
        lambda s: _fill_set(_core(s).il1),
        lambda s: _touch(_core(s).il1, lambda c, i, t, line: line.__setitem__(1, not line[1])),
    ),
    (
        "bus_only",
        "l2.way",
        _NOTHING,
        lambda s: _touch(
            s.l2._cache, lambda c, i, t, line: c._line_way[i].__setitem__(t, c._line_way[i][t] + 1)
        ),
    ),
    (
        "bus_only",
        "store_buffer.addr",
        lambda s: _core(s).store_buffer.try_push(0x40, s.current_cycle - 1),
        lambda s: _set(_core(s).store_buffer._entries[-1], "addr", 0x80),
    ),
    (
        "bus_only",
        "store_buffer.enqueue",
        lambda s: _core(s).store_buffer.try_push(0x40, s.current_cycle - 1),
        lambda s: _set(_core(s).store_buffer._entries[-1], "enqueue_cycle", s.current_cycle - 2),
    ),
    (
        "bus_only",
        "store_buffer.in_flight",
        _NOTHING,
        lambda s: _set(
            _core(s).store_buffer, "_head_in_flight", not _core(s).store_buffer._head_in_flight
        ),
    ),
    ("bus_only", "bus.current", _free_bus, _with_current),
    (
        "bus_only",
        "bus.busy_until",
        _with_current,
        lambda s: _set(s.bus, "_busy_until", s.bus._busy_until + 1),
    ),
    ("bus_only", "bus.queue", _NOTHING, _post),
    ("bus_only", "request.port", _post, lambda s: _set(s.bus._queues[1][-1], "port", 2)),
    ("bus_only", "request.kind", _post, lambda s: _set(s.bus._queues[1][-1], "kind", "ifetch")),
    ("bus_only", "request.addr", _post, lambda s: _set(s.bus._queues[1][-1], "addr", 0x2040)),
    (
        "bus_only",
        "request.ready",
        _post,
        lambda s: _set(s.bus._queues[1][-1], "ready_cycle", s.current_cycle - 4),
    ),
    (
        "bus_only",
        "request.grant",
        _with_current,
        lambda s: _set(s.bus._current, "grant_cycle", s.bus._current.grant_cycle - 1),
    ),
    (
        "bus_only",
        "request.service",
        _with_current,
        lambda s: _set(s.bus._current, "service_cycles", 5),
    ),
    ("bus_only", "request.origin", _post, lambda s: _set(s.bus._queues[1][-1], "origin_core", 2)),
    (
        "bus_only",
        "request.on_complete",
        _post,
        lambda s: _set(s.bus._queues[1][-1], "on_complete", s._complete_response),
    ),
    (
        "bus_only",
        "arbiter.pointer",
        _NOTHING,
        lambda s: _set(s.bus.arbiter, "_last_granted", (s.bus.arbiter._last_granted + 1) % 4),
    ),
    ("bus_only", "memctrl.read", _NOTHING, _in_flight_read),
    ("bus_only", "read.core", _in_flight_read, lambda s: _set(_last_read(s), "core_id", 2)),
    ("bus_only", "read.addr", _in_flight_read, lambda s: _set(_last_read(s), "addr", 1)),
    (
        "bus_only",
        "read.enqueue",
        _in_flight_read,
        lambda s: _set(_last_read(s), "enqueue_cycle", s.current_cycle - 3),
    ),
    (
        "bus_only",
        "read.complete",
        _in_flight_read,
        lambda s: _set(_last_read(s), "complete_cycle", s.current_cycle + 8),
    ),
    ("bus_only", "read.kind", _in_flight_read, lambda s: _set(_last_read(s), "kind", "ifetch")),
    (
        "bus_only",
        "dram.open_row",
        _NOTHING,
        lambda s: _set(s.memctrl.dram._banks[0], "open_row", 12345),
    ),
    (
        "bus_only",
        "dram.busy_until",
        lambda s: _set(s.memctrl.dram._banks[0], "busy_until", s.current_cycle + 5),
        lambda s: _set(s.memctrl.dram._banks[0], "busy_until", s.current_cycle + 6),
    ),
    (
        "bus_only",
        "pmc.channels",
        _NOTHING,
        lambda s: s.pmc.resources.setdefault("extra", ResourceCounters()),
    ),
    (
        "bus_only",
        "response.resolves",
        lambda s: _response(s, "load"),
        lambda s: _response(s, "ifetch", replace_last=True),
    ),
    ("split_bus", "memqueue.access", _NOTHING, _queued_access),
    ("split_bus", "access.core", _queued_access, lambda s: _set(_last_access(s), "core_id", 2)),
    ("split_bus", "access.addr", _queued_access, lambda s: _set(_last_access(s), "addr", 0x5040)),
    (
        "split_bus",
        "access.ready",
        _queued_access,
        lambda s: _set(_last_access(s), "ready_cycle", s.current_cycle - 2),
    ),
    (
        "split_bus",
        "access.is_write",
        _queued_access,
        lambda s: _set(_last_access(s), "is_write", True),
    ),
    ("split_bus", "access.kind", _queued_access, lambda s: _set(_last_access(s), "kind", "ifetch")),
    (
        "split_bus",
        "access.pending",
        _queued_access,
        lambda s: _set(_last_access(s), "pending", None),
    ),
    (
        "split_bus",
        "bank_arbiter.pointer",
        _NOTHING,
        lambda s: _set(s.memctrl.bank_arbiters[0], "_last_granted", 1),
    ),
    (
        "split_bus",
        "response_bus.queue",
        _NOTHING,
        lambda s: s.response_bus.post(_demand(s, kind="response")),
    ),
]


def _last_access(system):
    """The access :func:`_queued_access` queued."""
    bank = system.memctrl.dram.bank_of(0x5000)
    return system.memctrl._bank_queues[bank][1][-1]


def _response(system, kind, replace_last=False):
    if not replace_last:
        request = _demand(system, kind="response")
        system.response_bus.post(request)
        system._response_meta[id(request)] = (kind, None)
        return
    request = system.response_bus.requests()[-1]
    system._response_meta[id(request)] = (kind, None)


class TestEveryFieldIsKeyed:
    @pytest.mark.parametrize(
        "topology, field, setup, change",
        _FIELD_CASES,
        ids=[case[1] for case in _FIELD_CASES],
    )
    def test_changing_one_field_changes_the_key(self, topology, field, setup, change):
        system = _keyed_system(topology)
        if setup is not None:
            setup(system)
        cycle = system.current_cycle
        before, _ = system.steady_key(cycle)
        change(system)
        after, _ = system.steady_key(cycle)
        assert after != before, f"{field} is not in the key"

    def test_the_tdma_frame_position_is_keyed(self):
        config = small_config(bus=replace(small_config().bus, arbitration="tdma"))
        system = System(config, _rsk_programs(config, "load", 5, 50))
        assert system.steady_key(100)[0] != system.steady_key(101)[0]
        frame = config.bus.tdma_slot * system.bus.arbiter.num_ports
        assert system.bus.arbiter.steady_key(100) == system.bus.arbiter.steady_key(100 + frame)

    def test_past_deadlines_compare_alike(self):
        """An idle bank's ``busy_until`` and a free bus's ``_busy_until``
        compare as "past", however long ago they passed."""
        system = _keyed_system("bus_only")
        cycle = system.current_cycle
        system.memctrl.dram._banks[0].busy_until = cycle - 5
        system.bus._current = None
        system.bus._busy_until = cycle - 7
        before, _ = system.steady_key(cycle)
        system.memctrl.dram._banks[0].busy_until = cycle - 50
        system.bus._busy_until = cycle - 1
        assert system.steady_key(cycle)[0] == before


# --------------------------------------------------------------------------- #
# The Core attribute cliff.
# --------------------------------------------------------------------------- #


class TestCoreAttributeCliff:
    @pytest.mark.parametrize("engine", ["stepped", "event", "codegen"])
    def test_every_core_stays_under_thirty_instance_attributes(self, engine):
        """From 30 instance attributes on, CPython stops sharing the
        instance dict's keys; with 30 on ``Core`` the engine loops measured
        15-20 % slower on a 2-core VM.  The steady-state hook must not push
        ``Core`` there."""
        config = get_preset("ref").with_overrides(engine=engine)
        system = System(config, _rsk_programs(config, "load", 5, 12))
        counts = [len(vars(core)) for core in system.cores]
        system.run(observed_cores=[0])
        counts += [len(vars(core)) for core in system.cores]
        assert max(counts) < 30
