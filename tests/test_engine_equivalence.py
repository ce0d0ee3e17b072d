"""Four-way engine equivalence (the scheduler's oracle contract).

The fast engines' whole value proposition is that they are *cycle-exact*:
the event engine, the per-chain generated loops of the ``codegen`` engine
and the trace-capture/``replay`` engine must produce the same execution
times, PMC counts (including the per-resource sections), request traces
(every stamp, including the memory-stage and response-channel timings)
and delay histograms as the stepped oracle, only faster.  These tests
check that contract deterministically for all four arbiters on all three
topologies and both rsk flavours, and property-test it (hypothesis)
across random platform geometries, programs and preload combinations.

The replay engine is run twice per differential: once cold (trace cache
cleared, so the run is a capture run on real cores) and once warm (every
trace-safe core streams its memoised :class:`~repro.sim.trace.CoreTrace`
through a :class:`~repro.sim.trace.ReplayCore`), and both runs must match
the oracle bit for bit.  Store kernels and other trace-unsafe programs
exercise the per-core fallback path for free.

The codegen engine gets the generate→test→regenerate treatment: on a
mismatch the harness recompiles the loop from scratch, re-runs it with the
self-checking diagnostics variant (which cross-checks every inlined
decision against the generic resource methods), and fails with the
offending generated source attached — see :func:`_check_codegen`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace as dataclass_replace
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.contention import contention_histogram
from repro.config import (
    ARBITRATION_POLICIES,
    TOPOLOGIES,
    BusConfig,
    CacheConfig,
    L2Config,
    StoreBufferConfig,
    TopologyConfig,
    small_config,
)
from repro.errors import AnalysisError
from repro.kernels.rsk import build_rsk, build_stress_contender_set
from repro.sim import codegen as codegen_mod
from repro.sim.codegen import CodegenMismatch
from repro.sim.core import Core
from repro.sim.isa import Alu, Load, Nop, Program, Store
from repro.sim.resource import NO_EVENT, SharedResource
from repro.sim.system import System
from repro.sim.topology import TOPOLOGY_REGISTRY, register_topology
from repro.sim.trace import clear_trace_cache

#: Every engine under the oracle contract, oracle first.
ENGINES_UNDER_TEST = ("stepped", "event", "codegen", "replay")


def _trace_tuples(result):
    if result.trace is None:
        return None
    return [
        (
            record.port,
            record.kind,
            record.addr,
            record.resource,
            record.origin_core,
            record.ready_cycle,
            record.grant_cycle,
            record.complete_cycle,
            record.service_cycles,
            record.contenders_at_ready,
            record.bus_busy_at_ready,
            record.mem_ready_cycle,
            record.mem_grant_cycle,
            record.mem_complete_cycle,
            record.response_ready_cycle,
            record.response_grant_cycle,
            record.response_complete_cycle,
        )
        for record in result.trace.records
    ]


def _observable_state(result) -> Dict[str, object]:
    return {
        "cycles": result.cycles,
        "done_cycles": result.done_cycles,
        "instructions": result.instructions,
        "timed_out": result.timed_out,
        "pmc": result.pmc.as_dict(),
        "trace": _trace_tuples(result),
    }


def _check_codegen(config, build_system, observed, max_cycles, oracle_state):
    """The regenerate-with-diagnostics pass of the codegen harness.

    Called when the generated loop's observable state diverged from the
    oracle's.  Recompiles the loop from scratch (so a stale compile-cache
    entry cannot mask — or cause — the divergence), re-runs the fresh loop,
    then runs the self-checking diagnostics variant, and fails with the
    generated source attached either way.
    """
    codegen_mod.regenerate(config)
    retry = build_system("codegen").run(observed_cores=observed, max_cycles=max_cycles)
    retry_matches = _observable_state(retry) == oracle_state
    diag_loop = codegen_mod.regenerate(config, diagnostics=True)
    diag_note = "diagnostics re-run found no divergent inline decision"
    try:
        diag_loop.run(build_system("codegen"), list(observed), max_cycles)
    except CodegenMismatch as exc:
        diag_note = f"diagnostics: {exc}"
    pytest.fail(
        "codegen engine diverged from the stepped oracle"
        + (
            " (a freshly regenerated loop agrees — stale compile cache?)"
            if retry_matches
            else " (regenerating did not help)"
        )
        + f"\n{diag_note}\n--- generated source ---\n{diag_loop.source}"
    )


def _run_both(config, programs, observed, trace=True, max_cycles=2_000_000, **kwargs):
    """Run every engine and assert four-way observable equivalence.

    Keeps its historical name from the two-engine days; it now drives the
    full :data:`ENGINES_UNDER_TEST` differential and returns all outcomes.
    The replay engine runs twice — a cold capture run (trace cache cleared
    first) and a warm run replaying the just-captured traces — and both
    must match the oracle.
    """

    def build_system(engine):
        return System(config.with_overrides(engine=engine), list(programs), trace=trace, **kwargs)

    outcomes = {}
    for engine in ENGINES_UNDER_TEST:
        if engine == "replay":
            clear_trace_cache()
        outcomes[engine] = build_system(engine).run(observed_cores=observed, max_cycles=max_cycles)
    oracle_state = _observable_state(outcomes["stepped"])
    assert _observable_state(outcomes["event"]) == oracle_state
    if _observable_state(outcomes["codegen"]) != oracle_state:
        _check_codegen(config, build_system, observed, max_cycles, oracle_state)
    assert _observable_state(outcomes["replay"]) == oracle_state, (
        "replay engine (cold capture run) diverged from the stepped oracle"
    )
    warm = build_system("replay").run(observed_cores=observed, max_cycles=max_cycles)
    assert _observable_state(warm) == oracle_state, (
        "replay engine (warm trace-replay run) diverged from the stepped oracle"
    )
    return outcomes


class TestAllArbitersEquivalent:
    @pytest.mark.parametrize("arbiter", ARBITRATION_POLICIES)
    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_rsk_contention_is_identical(self, arbiter, kind):
        config = small_config(bus=BusConfig(arbitration=arbiter, transfer_latency=1))
        scua = build_rsk(config, 0, kind=kind, iterations=60)
        contenders = build_stress_contender_set(config, "bus", 0, kind=kind)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        for core, program in contenders.items():
            programs[core] = program
        outcomes = _run_both(config, programs, observed=[0], preload_l2=True, preload_il1=True)
        stepped = _observable_state(outcomes["stepped"])
        event = _observable_state(outcomes["event"])
        assert stepped == event
        # The delay histogram — the paper's headline artifact — must match
        # bin for bin (loads only; store traffic drains via the buffer).
        if kind == "load":
            histograms = {}
            for engine, outcome in outcomes.items():
                try:
                    histograms[engine] = contention_histogram(outcome.trace, 0).counts
                except AnalysisError:
                    histograms[engine] = None
            assert histograms["event"] == histograms["stepped"]
            assert histograms["codegen"] == histograms["stepped"]

    def test_dram_path_is_identical(self):
        # No preloading: every miss walks the full controller + DRAM path.
        config = small_config()
        scua = build_rsk(config, 0, iterations=40)
        contenders = build_stress_contender_set(config, "bus", 0)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        for core, program in contenders.items():
            programs[core] = program
        outcomes = _run_both(config, programs, observed=[0])
        assert _observable_state(outcomes["stepped"]) == _observable_state(outcomes["event"])

    def test_timeout_stops_on_the_same_cycle(self):
        config = small_config()
        scua = build_rsk(config, 0, iterations=10_000)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        outcomes = _run_both(config, programs, observed=[0], max_cycles=777, preload_l2=True)
        for outcome in outcomes.values():
            assert outcome.timed_out
        assert _observable_state(outcomes["stepped"]) == _observable_state(outcomes["event"])


class TestChainedTopologyEquivalent:
    """Stepped vs event on the multi-resource topology (bus -> bank queues).

    Satellite of the composable-interconnect refactor: at least one
    chained-resource run per arbiter, on both the bus axis (every bus
    arbiter over FIFO bank queues) and the memory axis (round-robin bus
    over every bank-queue arbiter).  No preloading, so every request walks
    bus -> bank queue -> DRAM -> response, exercising both contention
    points and the bank-grant horizon.
    """

    @staticmethod
    def _run_chained(config, kind="load", iterations=45):
        scua = build_rsk(config, 0, kind=kind, iterations=iterations)
        contenders = build_stress_contender_set(config, "bus", 0, kind=kind)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        for core, program in contenders.items():
            programs[core] = program
        outcomes = _run_both(config, programs, observed=[0])
        assert _observable_state(outcomes["stepped"]) == _observable_state(outcomes["event"])
        return outcomes

    @pytest.mark.parametrize("arbiter", ARBITRATION_POLICIES)
    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_every_bus_arbiter_over_fifo_bank_queues(self, arbiter, kind):
        config = small_config(
            bus=BusConfig(arbitration=arbiter, transfer_latency=1),
            topology=TopologyConfig(name="bus_bank_queues"),
        )
        outcomes = self._run_chained(config, kind=kind)
        if kind == "load":
            histograms = {}
            for engine, outcome in outcomes.items():
                try:
                    histograms[engine] = contention_histogram(outcome.trace, 0).counts
                except AnalysisError:
                    histograms[engine] = None
            assert histograms["event"] == histograms["stepped"]
            assert histograms["codegen"] == histograms["stepped"]

    @pytest.mark.parametrize("mem_arbiter", ARBITRATION_POLICIES)
    def test_every_bank_queue_arbiter_under_round_robin_bus(self, mem_arbiter):
        config = small_config(
            topology=TopologyConfig(
                name="bus_bank_queues",
                mem_arbitration=mem_arbiter,
                mem_tdma_slot=40,
            )
        )
        self._run_chained(config)

    def test_chained_timeout_stops_on_the_same_cycle(self):
        config = small_config(topology=TopologyConfig(name="bus_bank_queues"))
        scua = build_rsk(config, 0, iterations=10_000)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        outcomes = _run_both(config, programs, observed=[0], max_cycles=901)
        for outcome in outcomes.values():
            assert outcome.timed_out
        assert _observable_state(outcomes["stepped"]) == _observable_state(outcomes["event"])


class TestSplitBusEquivalent:
    """Stepped vs event on the split-transaction topology (request channel
    -> bank queues -> response channel): three composed resources, so the
    engines must agree while juggling three independent horizon caches and
    deliveries that post work into a *later* resource of the same cycle's
    chain.  No preloading, so every request walks all three stages."""

    @staticmethod
    def _run_split(config, kind="load", iterations=45):
        scua = build_rsk(config, 0, kind=kind, iterations=iterations)
        contenders = build_stress_contender_set(config, "bus", 0, kind=kind)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        for core, program in contenders.items():
            programs[core] = program
        outcomes = _run_both(config, programs, observed=[0])
        assert _observable_state(outcomes["stepped"]) == _observable_state(outcomes["event"])
        return outcomes

    @pytest.mark.parametrize("arbiter", ARBITRATION_POLICIES)
    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_every_request_arbiter_on_the_split_bus(self, arbiter, kind):
        config = small_config(
            bus=BusConfig(arbitration=arbiter, transfer_latency=1),
            topology=TopologyConfig(name="split_bus"),
        )
        outcomes = self._run_split(config, kind=kind)
        if kind == "load":
            histograms = {}
            for engine, outcome in outcomes.items():
                try:
                    histograms[engine] = contention_histogram(outcome.trace, 0).counts
                except AnalysisError:
                    histograms[engine] = None
            assert histograms["event"] == histograms["stepped"]
            assert histograms["codegen"] == histograms["stepped"]

    @pytest.mark.parametrize("response_arbiter", ARBITRATION_POLICIES)
    def test_every_response_arbiter_under_round_robin_requests(self, response_arbiter):
        config = small_config(
            topology=TopologyConfig(
                name="split_bus",
                response_arbitration=response_arbiter,
                response_tdma_slot=5,
            )
        )
        self._run_split(config)

    def test_split_timeout_stops_on_the_same_cycle(self):
        config = small_config(topology=TopologyConfig(name="split_bus"))
        scua = build_rsk(config, 0, iterations=10_000)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        outcomes = _run_both(config, programs, observed=[0], max_cycles=903)
        for outcome in outcomes.values():
            assert outcome.timed_out
        assert _observable_state(outcomes["stepped"]) == _observable_state(outcomes["event"])


class _ResponseLink(SharedResource):
    """A fixed-latency link between the memory controller and the response
    channel.  Beyond taking work it implements only what a subclass must:
    ``deliver``, ``arbitrate``, ``next_event_cycle`` and ``reset``; the
    event-port fields every engine reads come from the base class."""

    resource_name = "response_link"

    def __init__(self, latency, forward):
        super().__init__()
        self.latency = latency
        self.forward = forward
        self._in_flight = deque()

    def accept(self, pending, cycle):
        self._in_flight.append((cycle + self.latency, pending))
        self.invalidate_horizon()

    def deliver(self, cycle):
        while self._in_flight and self._in_flight[0][0] <= cycle:
            _, pending = self._in_flight.popleft()
            self.invalidate_horizon()
            self.forward(pending, cycle)

    def arbitrate(self, cycle):
        return None

    def next_event_cycle(self, cycle):
        return self._in_flight[0][0] if self._in_flight else NO_EVENT

    def reset(self):
        self._in_flight.clear()
        super().reset()


def _build_linked_bus(config, hooks):
    link = _ResponseLink(latency=7, forward=hooks.read_callback)
    builder = TOPOLOGY_REGISTRY.require("bus_only").builder
    chain = builder(config, dataclass_replace(hooks, read_callback=link.accept))
    return dataclass_replace(chain, resources=chain.resources + (link,))


class TestCustomStageEquivalent:
    def test_shared_resource_subclass_runs_on_every_engine(self):
        """A third-party stage that subclasses SharedResource runs inside a
        registered topology on all four engines (codegen and replay fall
        back to the event loop) and matches the stepped oracle."""
        name = "test_linked_bus"
        register_topology(name, "test-only bus_only with a response link")(_build_linked_bus)
        try:
            config = small_config(topology=TopologyConfig(name=name))
            scua = build_rsk(config, 0, iterations=40)
            programs: List[Optional[Program]] = [None] * config.num_cores
            programs[0] = scua
            for core, program in build_stress_contender_set(config, "bus", 0).items():
                programs[core] = program
            outcomes = _run_both(config, programs, observed=[0])
        finally:
            TOPOLOGY_REGISTRY.pop(name)
        plain = System(small_config(), list(programs), trace=True).run(observed_cores=[0])
        # The link really sits on the DRAM response path.
        assert outcomes["stepped"].pmc.dram_accesses > 0
        assert outcomes["stepped"].cycles > plain.cycles


# --------------------------------------------------------------------------- #
# Property-based equivalence over random configs, arbiters and kernels.
# --------------------------------------------------------------------------- #

_addresses = st.integers(min_value=0, max_value=31).map(lambda i: 0x100 + 32 * i)

_bodies = st.lists(
    st.one_of(
        st.builds(Nop),
        st.builds(Alu, latency=st.integers(min_value=1, max_value=4)),
        st.builds(Load, addr=_addresses),
        st.builds(Store, addr=_addresses),
    ),
    min_size=1,
    max_size=12,
)

_programs = st.builds(
    lambda body, iterations: Program(name="random", body=tuple(body), iterations=iterations),
    body=_bodies,
    iterations=st.integers(min_value=1, max_value=5),
)

def _build_config(arbiter, transfer, slot, dl1_latency, entries, cores, topology, mem_arbiter):
    return small_config(
        num_cores=cores,
        bus=BusConfig(arbitration=arbiter, transfer_latency=transfer, tdma_slot=slot),
        dl1=CacheConfig(size_bytes=1024, ways=2, hit_latency=dl1_latency),
        l2=L2Config(cache=CacheConfig(size_bytes=8 * 1024, ways=4, line_size=32, hit_latency=2)),
        store_buffer=StoreBufferConfig(entries=entries),
        # The drawn arbiter doubles as the response-channel policy so the
        # split_bus strategy also sweeps response arbitration.
        topology=TopologyConfig(
            name=topology,
            mem_arbitration=mem_arbiter,
            response_arbitration=mem_arbiter,
            response_tdma_slot=slot,
        ),
    )


_configs = st.builds(
    _build_config,
    arbiter=st.sampled_from(ARBITRATION_POLICIES),
    transfer=st.integers(min_value=1, max_value=3),
    slot=st.integers(min_value=3, max_value=9),
    dl1_latency=st.sampled_from([1, 4]),
    entries=st.integers(min_value=1, max_value=2),
    cores=st.integers(min_value=2, max_value=4),
    topology=st.sampled_from(TOPOLOGIES),
    mem_arbiter=st.sampled_from(ARBITRATION_POLICIES),
)


class TestEngineEquivalenceProperties:
    @given(
        config=_configs,
        observed_program=_programs,
        contender_programs=st.lists(st.one_of(st.none(), _programs), max_size=3),
        preload_l2=st.booleans(),
        preload_il1=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_on_everything_observable(
        self, config, observed_program, contender_programs, preload_l2, preload_il1
    ):
        programs: List[Optional[Program]] = [observed_program]
        programs.extend(contender_programs[: config.num_cores - 1])
        programs.extend([None] * (config.num_cores - len(programs)))
        outcomes = _run_both(
            config,
            programs,
            observed=[0],
            preload_l2=preload_l2,
            preload_il1=preload_il1,
        )
        assert _observable_state(outcomes["stepped"]) == _observable_state(outcomes["event"])


# --------------------------------------------------------------------------- #
# Straight-line segments: where a batched nop/alu/load run starts, ends and
# is cut.
# --------------------------------------------------------------------------- #

#: Loads inside runs: the window the other memory operations use, or lines
#: that all fall in one set of every drawn DL1, so some loads stay resident
#: and others keep missing and evicting each other.
_run_load_addresses = st.one_of(
    _addresses, st.integers(min_value=0, max_value=3).map(lambda i: 0x100 + 1024 * i)
)

_straight_runs = st.lists(
    st.one_of(
        st.builds(Nop),
        st.builds(Alu, latency=st.integers(min_value=1, max_value=4)),
        st.builds(Load, addr=_run_load_addresses),
    ),
    min_size=1,
    max_size=40,
)

_memory_ops = st.lists(
    st.one_of(st.builds(Load, addr=_addresses), st.builds(Store, addr=_addresses)),
    max_size=2,
)

#: Up to four (run, memory operations) chunks per body: runs long enough to
#: span several 32-byte IL1 lines, with loads in them and loads and stores
#: between them.
_chunks = st.lists(st.tuples(_straight_runs, _memory_ops), min_size=1, max_size=4)

_prologues = st.lists(
    st.one_of(
        st.builds(Nop),
        st.builds(Alu, latency=st.integers(min_value=1, max_value=3)),
        st.builds(Load, addr=_addresses),
    ),
    max_size=6,
)


def _segmented_program(chunks, prologue, word, iterations):
    # The word offset moves the body against the IL1 line grid, so runs
    # start and end at every position inside a line.
    return Program(
        name="segments",
        body=tuple(instr for run, ops in chunks for instr in run + ops),
        prologue=tuple(prologue),
        base_pc=0x4000_0000 + 4 * word,
        iterations=iterations,
    )


def _segmented_programs(iterations):
    return st.builds(
        _segmented_program,
        chunks=_chunks,
        prologue=_prologues,
        word=st.integers(min_value=0, max_value=7),
        iterations=iterations,
    )


_segmented_contenders = st.lists(st.one_of(st.none(), _segmented_programs(st.none())), max_size=2)


def _segment_config(
    il1_geometry,
    il1_policy,
    dl1_geometry,
    dl1_policy,
    dl1_latency,
    nop_latency,
    entries,
    arbiter,
    topology,
):
    size_bytes, ways = il1_geometry
    dl1_bytes, dl1_ways = dl1_geometry
    return small_config(
        il1=CacheConfig(size_bytes=size_bytes, ways=ways, replacement=il1_policy),
        dl1=CacheConfig(
            size_bytes=dl1_bytes, ways=dl1_ways, hit_latency=dl1_latency, replacement=dl1_policy
        ),
        nop_latency=nop_latency,
        store_buffer=StoreBufferConfig(entries=entries),
        bus=BusConfig(arbitration=arbiter, transfer_latency=1),
        topology=TopologyConfig(name=topology),
    )


_segment_configs = st.builds(
    _segment_config,
    # From two lines (lines go missing and get evicted inside a run) to the
    # 1 KiB IL1 of the small platform (every body fits).
    il1_geometry=st.sampled_from([(64, 1), (64, 2), (128, 2), (256, 2), (1024, 2)]),
    il1_policy=st.sampled_from(["lru", "fifo"]),
    # From two lines (a load's own miss evicts a line a later run needs) to
    # the 1 KiB DL1 of the small platform (every drawn line fits).
    dl1_geometry=st.sampled_from([(64, 1), (64, 2), (128, 2), (1024, 2)]),
    dl1_policy=st.sampled_from(["lru", "fifo"]),
    dl1_latency=st.sampled_from([1, 4]),
    nop_latency=st.integers(min_value=1, max_value=2),
    # One or two entries: back-to-back stores fill the buffer and stall.
    entries=st.integers(min_value=1, max_value=2),
    arbiter=st.sampled_from(ARBITRATION_POLICIES),
    topology=st.sampled_from(TOPOLOGIES),
)


def _private_cache_state(system):
    """Every core's IL1/DL1 contents, LRU stamps and hit/miss counters.

    Reads the cache internals on purpose: a batched run must leave the very
    stamps its one-by-one lookups would have left, not just the same hits.
    """
    state = []
    for core in system.cores:
        for cache in (core.il1, core.dl1):
            lines = sorted(
                (index, tag, tuple(line))
                for index, line_set in enumerate(cache._sets)
                for tag, line in line_set.items()
            )
            state.append((cache.stats, cache._stamp, lines))
    return state


def _run_with_segments(config, programs, max_cycles, **kwargs):
    """:func:`_run_both` plus the private cache state of the engines that
    run real cores (stepped, event, codegen), which must agree too."""
    outcomes = _run_both(config, programs, observed=[0], max_cycles=max_cycles, **kwargs)
    states = {}
    for engine in ("stepped", "event", "codegen"):
        system = System(config.with_overrides(engine=engine), list(programs), **kwargs)
        system.run(observed_cores=[0], max_cycles=max_cycles)
        states[engine] = _private_cache_state(system)
    assert states["event"] == states["stepped"]
    assert states["codegen"] == states["stepped"]
    return outcomes


class TestStraightLineSegments:
    """The boundaries of fast-forwarded nop/alu/load runs, against the
    oracle.

    Runs cross IL1 line boundaries and lines miss or get evicted inside a
    run; loads inside runs hit resident DL1 lines or miss, and a DL1 of two
    lines makes a load's own miss evict a line a later run needs; stores
    sit next to runs with a store buffer small enough to fill; infinite
    contenders are inside a segment when the run ends; and ``max_cycles``
    cuts through segments.
    """

    @given(
        config=_segment_configs,
        observed_program=_segmented_programs(st.integers(min_value=1, max_value=3)),
        contender_programs=_segmented_contenders,
        max_cycles=st.one_of(st.just(2_000_000), st.integers(min_value=5, max_value=1500)),
        preload_l2=st.booleans(),
        preload_il1=st.booleans(),
        preload_dl1=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_segment_boundaries_match_the_oracle(
        self,
        config,
        observed_program,
        contender_programs,
        max_cycles,
        preload_l2,
        preload_il1,
        preload_dl1,
    ):
        programs: List[Optional[Program]] = [observed_program]
        programs.extend(contender_programs[: config.num_cores - 1])
        programs.extend([None] * (config.num_cores - len(programs)))
        _run_with_segments(
            config,
            programs,
            max_cycles,
            preload_l2=preload_l2,
            preload_il1=preload_il1,
            preload_dl1=preload_dl1,
        )

    @pytest.mark.parametrize("length", range(1, 9))
    def test_contender_segment_cut_at_every_offset(self, length):
        """The observed core finishes while a contender is inside a run of
        3-cycle ALUs, at every offset within one ALU (so some runs end on
        the very cycle an ALU retires)."""
        config = small_config()
        observed = Program(name="short", body=(Nop(),) * length, iterations=1)
        contender = Program(name="alus", body=(Alu(latency=3),) * 40, iterations=None)
        programs: List[Optional[Program]] = [observed, contender, None]
        outcomes = _run_with_segments(config, programs, 2_000_000, preload_il1=True)
        assert outcomes["stepped"].instructions[1] == length // 3

    @pytest.mark.parametrize("max_cycles", range(0, 14))
    def test_max_cycles_cuts_through_a_segment(self, max_cycles):
        config = small_config()
        program = Program(
            name="alus", body=(Alu(latency=2), Nop(), Alu(latency=3)) * 4, iterations=1
        )
        outcomes = _run_with_segments(config, [program], max_cycles, preload_il1=True)
        assert outcomes["stepped"].timed_out

    @pytest.mark.parametrize(
        "loads, hits, run",
        [
            # From iteration 2 on the load's line is resident, so the load
            # joins the 30 nops and the closing alu in one run.
            ((Load(0x100),), 3, 32),
            # Three lines take turns in one 2-way DL1 set and never hit, so
            # each load executes alone and the run is the nops and the alu.
            (tuple(Load(0x100 + 512 * line) for line in range(3)), 0, 31),
        ],
        ids=["resident-load", "missing-loads"],
    )
    def test_stepped_oracle_retires_one_instruction_per_occupancy(self, loads, hits, run):
        """The oracle never batches; the fast engines do.  Counted from the
        outside: instructions retired by each ``tick`` call."""
        config = small_config()
        program = Program(name="runs", body=loads + (Nop(),) * 30 + (Alu(latency=2),), iterations=4)
        per_tick = {}
        for engine in ENGINES_UNDER_TEST[:3]:
            system = System(config.with_overrides(engine=engine), [program], preload_il1=True)
            core = system.cores[0]
            retired = []

            def tick(cycle, core=core, retired=retired):
                before = core.instructions_retired
                Core.tick(core, cycle)
                retired.append(core.instructions_retired - before)

            core.tick = tick
            result = system.run()
            assert result.instructions[0] == 4 * len(program.body)
            assert core.dl1.stats.read_hits == hits
            per_tick[engine] = max(retired)
        assert per_tick["stepped"] == 1
        assert per_tick["event"] == per_tick["codegen"] == run
