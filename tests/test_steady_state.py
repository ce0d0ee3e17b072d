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

from dataclasses import dataclass, replace
from typing import List, Optional

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import TopologyConfig, get_preset, small_config
from repro.kernels.rsk import build_rsk_nop, build_stress_contender_set
from repro.methodology.workloads import build_workload_programs
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
    _private_cache_state,
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
        "tasks, seed, keys, extrapolated",
        [
            # Never repeats in 39 loop-backs: 33 full keys with a probe of
            # the shared resources alone, which sit idle at loop-back.
            (("puwmod", "aifirf", "puwmod", "a2time"), 5, steady.EAGER_LOOP_BACKS, 0),
            # Repeats: the cores' probe costs it no skipped iteration.
            (("basefp", "bitmnp", "rspeed", "basefp"), 9, 3, 18),
        ],
    )
    def test_the_probe_tells_synthetic_loop_backs_apart_by_their_cores(
        self, monkeypatch, tasks, seed, keys, extrapolated
    ):
        """Each core's state, body position, busy offset and store-buffer
        occupancy are in the probe, so contenders that are elsewhere in
        their loop spare the full key (every cache walked)."""
        config = get_preset("ref")
        programs = build_workload_programs(config, tasks, 0, 40, seed=seed)
        system = System(config, programs, preload_l2=True, preload_il1=True, preload_dl1=True)
        calls = []
        full_key = system.steady_key
        monkeypatch.setattr(
            system, "steady_key", lambda cycle: calls.append(cycle) or full_key(cycle)
        )
        skip = system.run(observed_cores=[0]).skip
        assert len(calls) == keys
        assert skip.extrapolated_iterations == extrapolated

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
# The two exits of the jump, against the oracle.
# --------------------------------------------------------------------------- #


@pytest.fixture
def detectors(monkeypatch):
    """Every :class:`~repro.sim.steady.LoopDetector` made while the test runs,
    so a test can tell which exit a run took (``ended``: at the repeat)."""
    made = []
    init = steady.LoopDetector.__init__

    def record(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(steady.LoopDetector, "__init__", record)
    return made


def _full_state(system, result):
    """Everything a run leaves observable: cycles, done cycles, instructions,
    the PMCs (resource sections and ``max_*`` included), every private
    cache's contents, LRU stamps and counters, the store buffers and the
    memory controller's counters."""
    buffers = [
        (
            tuple((entry.addr, entry.enqueue_cycle) for entry in buffer._entries),
            buffer._head_in_flight,
            buffer.total_enqueued,
            buffer.total_drained,
        )
        for buffer in (core.store_buffer for core in system.cores)
    ]
    return {
        **_observable_state(result),
        "caches": _private_cache_state(system),
        "store_buffers": buffers,
        "memctrl": result.memctrl_stats,
    }


def _exits(config, programs, detectors, max_cycles=2_000_000):
    """Run ``programs`` untraced on the oracle, ``event`` and ``codegen``
    (L2 and IL1 warmed); the full states must agree.  Returns the skip
    record and whether each skipping engine ended the run at the repeat."""
    states, skips = {}, {}
    for engine in ("stepped", "event", "codegen"):
        system = System(
            config.with_overrides(engine=engine), list(programs), preload_l2=True, preload_il1=True
        )
        result = system.run(observed_cores=[0], max_cycles=max_cycles)
        states[engine], skips[engine] = _full_state(system, result), result.skip
    assert states["event"] == states["stepped"]
    assert states["codegen"] == states["stepped"]
    assert skips["event"] == skips["codegen"]
    return skips["event"], [detector.ended for detector in detectors]


class TestExits:
    @pytest.mark.parametrize(
        "preset, kind, k, skip",
        [
            # Loads repeat from the second loop-back on: two of ten
            # iterations find the repeat, and the run ends there.
            ("ref", "load", 13, steady.SteadySkip(2, 8, 1, 180)),
            ("var", "load", 13, steady.SteadySkip(2, 8, 1, 180)),
            ("small", "load", 13, steady.SteadySkip(2, 8, 1, 63)),
            ("split_bus", "load", 13, steady.SteadySkip(2, 8, 1, 180)),
            # The store buffer takes longer to settle.
            ("ref", "store", 8, steady.SteadySkip(5, 5, 1, 180)),
            ("var", "store", 8, steady.SteadySkip(5, 5, 1, 180)),
            ("small", "store", 8, steady.SteadySkip(4, 6, 1, 27)),
            ("split_bus", "store", 8, steady.SteadySkip(5, 5, 1, 180)),
        ],
    )
    def test_the_run_ends_at_the_repeat(self, detectors, preset, kind, k, skip):
        config = get_preset(preset)
        programs = _rsk_programs(config, kind, k, 10)
        assert _exits(config, programs, detectors) == (skip, [True, True])

    @pytest.mark.parametrize(
        "iterations, simulated, ended", [(13, 4, True), (14, 5, False), (15, 6, False)]
    )
    def test_only_whole_periods_left_end_at_the_repeat(
        self, detectors, iterations, simulated, ended
    ):
        """FIFO loads repeat every three iterations at loop-back 3, with 9,
        10 or 11 iterations left there: only whole periods end the run at
        the repeat, and the other remainders mod 3 take the tail exit."""
        config = _with_arbiter(get_preset("ref"), "fifo")
        skip, exits = _exits(config, _rsk_programs(config, "load", 13, iterations), detectors)
        assert skip == steady.SteadySkip(simulated, iterations - simulated, 3, 675)
        assert exits == [ended, ended]

    @pytest.mark.parametrize(
        "k, iterations, contender_k, contender_iterations, skip",
        [
            # The contender ends well inside the jump to the observed end.
            (5, 40, 5, 25, steady.SteadySkip(17, 23, 1, 27)),
            # The contender ends in the observed core's last cycle, after it
            # in that cycle: a jump that let the contender's cursor reach
            # its end there would miss that end.
            (3, 20, 0, 20, steady.SteadySkip(3, 17, 1, 27)),
        ],
    )
    def test_a_finite_contender_ending_inside_the_jump_takes_the_tail(
        self, detectors, k, iterations, contender_k, contender_iterations, skip
    ):
        config = small_config()
        programs = _rsk_programs(config, "load", k, iterations)
        programs[1] = build_rsk_nop(config, 1, k=contender_k, iterations=contender_iterations)
        assert _exits(config, programs, detectors) == (skip, [False, False])

    @pytest.mark.parametrize("offset, ended", [(-1, False), (0, True), (1, True)])
    def test_max_cycles_around_the_predicted_end(self, detectors, offset, ended):
        """The run ends at the repeat only when its predicted end fits in
        ``max_cycles``; one cycle short, the tail exit times out on the
        oracle's cycle."""
        config = get_preset("ref")
        programs = _rsk_programs(config, "load", 13, 10)
        oracle = config.with_overrides(engine="stepped")
        end = System(oracle, list(programs), preload_l2=True, preload_il1=True).run().cycles - 1
        skip, exits = _exits(config, programs, detectors, max_cycles=end + offset)
        assert exits == [ended, ended]
        assert skip.extrapolated_iterations == (8 if ended else 6)


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


@dataclass
class _QueueCounters(steady.AdditiveCounters):
    reads: int = 0
    max_wait: int = 0
    writes: int = 0


@dataclass
class _PortCounters(steady.AdditiveCounters):
    max_depth: int = 0
    grants: int = 0


class TestCounterTables:
    """A jump raises each additive field by ``periods`` times its delta,
    from a table of additive fields made once per counter class."""

    def test_a_jump_raises_the_additive_fields_and_keeps_the_max(self):
        counters = _QueueCounters(reads=4, max_wait=7, writes=1)
        before = counters.steady_key()[1]
        counters.reads, counters.max_wait, counters.writes = 10, 9, 3
        counters.steady_advance(100, 5, before, counters.steady_key()[1])
        assert counters == _QueueCounters(reads=10 + 5 * 6, max_wait=9, writes=3 + 5 * 2)

    def test_a_counter_that_did_not_move_is_left_alone(self, monkeypatch):
        counters = _QueueCounters(reads=4, writes=1)
        before = counters.steady_key()[1]
        counters.writes = 2
        written = []

        def spy(self, name, value):
            written.append(name)
            object.__setattr__(self, name, value)

        monkeypatch.setattr(_QueueCounters, "__setattr__", spy)
        counters.steady_advance(0, 3, before, counters.steady_key()[1])
        assert written == ["writes"]
        assert (counters.reads, counters.writes) == (4, 5)

    def test_two_classes_never_share_a_table(self):
        queue = _QueueCounters()
        port = _PortCounters()
        for _ in range(2):
            queue_before, port_before = queue.steady_key()[1], port.steady_key()[1]
            queue.reads += 1
            queue.max_wait += 1
            port.max_depth += 2
            port.grants += 3
            queue.steady_advance(0, 10, queue_before, queue.steady_key()[1])
            port.steady_advance(0, 10, port_before, port.steady_key()[1])
        assert queue == _QueueCounters(reads=22, max_wait=2)
        assert port == _PortCounters(max_depth=4, grants=66)
        assert steady._ADDITIVE_FIELDS[_QueueCounters] == ((0, "reads"), (2, "writes"))
        assert steady._ADDITIVE_FIELDS[_PortCounters] == ((1, "grants"),)
