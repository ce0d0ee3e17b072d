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
from repro.kernels.rsk import build_rsk
from repro.methodology.experiment import build_contender_set
from repro.sim import codegen as codegen_mod
from repro.sim.codegen import CodegenMismatch
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
        contenders = build_contender_set(config, 0, kind=kind)
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
        contenders = build_contender_set(config, 0)
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
        contenders = build_contender_set(config, 0, kind=kind)
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
        contenders = build_contender_set(config, 0, kind=kind)
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
            for core, program in build_contender_set(config, 0).items():
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
