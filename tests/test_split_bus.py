"""The split-transaction bus topology and its per-resource bounds.

``split_bus`` models the NGMP bus as its two transaction phases — an
arbitrated request channel feeding per-bank memory queues and a separate
arbitrated response channel returning the data.  These tests pin:

* the differential oracle: with an idle response channel (preloaded L2, so
  no request travels past the L2) the topology reproduces ``bus_only``
  cycle for cycle, on both engines;
* the ``bus_response`` term of ``ArchConfig.ubd_terms`` becoming a measured
  per-resource quantity — ``(Nc-1) * response occupancy`` — instead of the
  shared-bus analytical envelope, and covering every observed
  response-channel wait under the bank-conflict worst case;
* the per-channel PMC surface (``bus`` vs ``bus_response`` sections);
* that a topology registered at runtime runs on *both* engines without any
  engine edit — the acceptance criterion of the event-port redesign.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.analysis.contention import latency_decomposition
from repro.config import (
    PER_RESOURCE,
    BusConfig,
    TopologyConfig,
    admissibility,
    small_config,
)
from repro.errors import ConfigurationError
from repro.kernels.rsk import build_bank_conflict_rsk, build_rsk, build_stress_contender_set
from repro.methodology.composition import compose_etb_for_config
from repro.methodology.experiment import ExperimentRunner
from repro.sim.isa import Program
from repro.sim.system import System
from repro.sim.topology import TOPOLOGY_REGISTRY, register_topology


def _split_config(**overrides):
    return small_config(topology=TopologyConfig(name="split_bus"), **overrides)


def _rsk_programs(config, iterations=50, kind="load"):
    programs: List[Optional[Program]] = [None] * config.num_cores
    programs[0] = build_rsk(config, 0, kind=kind, iterations=iterations)
    for core, program in build_stress_contender_set(config, "bus", 0, kind=kind).items():
        programs[core] = program
    return programs


def _bank_programs(config, iterations=40, kind="load"):
    programs: List[Optional[Program]] = [
        build_bank_conflict_rsk(config, core, kind=kind, iterations=None)
        for core in range(config.num_cores)
    ]
    programs[0] = build_bank_conflict_rsk(config, 0, kind=kind, iterations=iterations)
    return programs


def _observable(result):
    trace = None
    if result.trace is not None:
        trace = [
            (r.port, r.kind, r.addr, r.ready_cycle, r.grant_cycle, r.complete_cycle)
            for r in result.trace.records
        ]
    return {
        "cycles": result.cycles,
        "done": result.done_cycles,
        "instructions": result.instructions,
        "pmc": result.pmc.as_dict(),
        "trace": trace,
    }


# --------------------------------------------------------------------------- #
# Differential oracle: idle response channel == bus_only, cycle for cycle.
# --------------------------------------------------------------------------- #


class TestIdleResponseMatchesBusOnly:
    """With a preloaded L2 no request travels past the L2, so the response
    channel never carries a transaction and the request channel must behave
    exactly like the paper's single bus (whose response port then never
    contends either).  TDMA is excluded: its slot schedule depends on the
    port count, which legitimately differs between the 5-port shared bus
    and the 4-port request channel."""

    @pytest.mark.parametrize("arbiter", ["round_robin", "fifo", "fixed_priority"])
    @pytest.mark.parametrize("engine", ["stepped", "event"])
    def test_preloaded_rsk_identical(self, arbiter, engine):
        results = {}
        for topology in ("bus_only", "split_bus"):
            config = small_config(
                bus=BusConfig(arbitration=arbiter, transfer_latency=1),
                topology=TopologyConfig(name=topology),
                engine=engine,
            )
            system = System(
                config,
                _rsk_programs(config, iterations=40),
                trace=True,
                preload_l2=True,
                preload_il1=True,
            )
            results[topology] = _observable(system.run(observed_cores=[0]))
        assert results["bus_only"] == results["split_bus"]

    def test_store_traffic_identical(self):
        """Write-through stores stay on the request channel (no response),
        so a store rsk is also response-idle — but only when the stores hit
        the preloaded L2 and never continue to memory."""
        results = {}
        for topology in ("bus_only", "split_bus"):
            config = small_config(topology=TopologyConfig(name=topology))
            system = System(
                config,
                _rsk_programs(config, iterations=40, kind="store"),
                trace=True,
                preload_l2=True,
                preload_il1=True,
            )
            results[topology] = _observable(system.run(observed_cores=[0]))
        assert results["bus_only"] == results["split_bus"]


# --------------------------------------------------------------------------- #
# Per-resource bounds: the response term is measured, tight, and covering.
# --------------------------------------------------------------------------- #


class TestSplitBusBounds:
    def test_terms_structure_and_tightness(self):
        split = _split_config()
        chained = small_config(topology=TopologyConfig(name="bus_bank_queues"))
        others = split.num_cores - 1
        terms = split.ubd_terms
        assert set(terms) == {"bus", "memory", "bus_response"}
        # The request channel carries no responses: plain Equation 1.
        assert terms["bus"] == split.ubd
        # The response channel is its own resource with one pending response
        # per port at most: a fair round costs (Nc-1) occupancies, not the
        # shared-bus envelope of bus_bank_queues.
        assert terms["bus_response"] == others * split.bus_service_response
        envelope = chained.ubd_terms
        assert terms["bus_response"] < envelope["bus_response"]
        assert terms["memory"] == envelope["memory"]
        assert split.end_to_end_ubd < chained.end_to_end_ubd

    @pytest.mark.parametrize("policy", ["tdma", "fixed_priority"])
    def test_unfair_response_channel_has_no_bounds(self, policy):
        config = small_config(
            topology=TopologyConfig(name="split_bus", response_arbitration=policy)
        )
        assert admissibility(config)[PER_RESOURCE] is not None
        with pytest.raises(ConfigurationError):
            config.ubd_terms
        assert admissibility(_split_config())[PER_RESOURCE] is None

    def test_response_arbitration_validated(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(name="split_bus", response_arbitration="lottery")
        with pytest.raises(ConfigurationError):
            TopologyConfig(name="split_bus", response_tdma_slot=0)

    def test_bank_conflict_waits_covered_per_resource(self):
        """Under the bank-conflict worst case — every core hammering one
        DRAM bank through the split bus — each measured stage must stay
        within its analytical term: the whole point of the per-resource
        decomposition."""
        config = _split_config()
        system = System(config, _bank_programs(config), trace=True, preload_il1=True)
        result = system.run(observed_cores=[0])
        terms = config.ubd_terms
        decomposition = latency_decomposition(result.trace, 0, skip_first=1)
        assert decomposition.memory_requests > 0
        # The bank queues saw real contention, not an incidental wait.
        assert system.memctrl.stats.max_queue_wait > 0
        assert decomposition.max_observed("bus") <= terms["bus"]
        assert decomposition.max_observed("memory") <= terms["memory"]
        assert decomposition.max_observed("bus_response") <= terms["bus_response"]

    def test_composed_etb_covers_bank_conflict_worst_case(self):
        config = _split_config()
        runner = ExperimentRunner(config, preload_l2=False, preload_il1=False)
        scua = build_bank_conflict_rsk(config, 0, iterations=30)
        contenders = {
            core: build_bank_conflict_rsk(config, core, iterations=None)
            for core in range(1, config.num_cores)
        }
        isolation, contended = runner.run_pair(scua, contenders)
        report = compose_etb_for_config(
            config,
            task_name=scua.name,
            isolation_time=isolation.execution_time,
            bus_requests=isolation.bus_requests,
            memory_requests=isolation.result.pmc.dram_accesses,
            observed_contended_time=contended.execution_time,
        )
        assert report.covers_observation, report.summary()
        assert set(report.pads) == {"bus", "memory", "bus_response"}


# --------------------------------------------------------------------------- #
# Per-channel PMCs.
# --------------------------------------------------------------------------- #


class TestPerChannelPmc:
    def test_channels_report_separately_under_memory_traffic(self):
        config = _split_config()
        system = System(config, _bank_programs(config), preload_il1=True)
        result = system.run(observed_cores=[0])
        channels = result.pmc.resources
        assert set(channels) == {"bus", "bus_response"}
        # Every DRAM read produces exactly one response transfer; a couple
        # may still be in flight when the observed core finishes.
        assert 0 < channels["bus_response"].requests <= result.pmc.dram_accesses
        assert result.pmc.dram_accesses - channels["bus_response"].requests <= (
            config.num_cores - 1
        )
        # Per-core counters span both channels (a response is attributed to
        # its origin core), so the demand count is the difference.
        assert channels["bus"].requests == (
            result.pmc.total_requests() - channels["bus_response"].requests
        )
        assert 0 < result.pmc.resource_utilisation("bus_response") <= 1.0
        # The headline utilisation counts the demand channel only: the
        # response channel runs in parallel, and summing overlapping
        # channels would overstate bus utilisation.
        assert result.pmc.bus_busy_cycles == channels["bus"].busy_cycles
        assert result.pmc.bus_utilisation() == result.pmc.resource_utilisation("bus")

    def test_idle_response_channel_leaves_no_section(self):
        config = _split_config()
        system = System(
            config,
            _rsk_programs(config, iterations=10),
            preload_l2=True,
            preload_il1=True,
        )
        result = system.run(observed_cores=[0])
        assert set(result.pmc.resources) == {"bus"}
        assert result.pmc.resource_utilisation("bus_response") == 0.0


# --------------------------------------------------------------------------- #
# A runtime-registered topology runs on both engines, no engine edits.
# --------------------------------------------------------------------------- #


class TestRuntimeTopologyRegistration:
    def test_registered_topology_runs_on_both_engines(self):
        """The event-port acceptance criterion: the engines drive
        ``System.resources`` generically, so registering a new topology is
        sufficient to run it — cycle-exactly — on the stepped oracle *and*
        the event fast path."""
        name = "test_split_mirror"
        register_topology(name, "test-only mirror of split_bus")(
            TOPOLOGY_REGISTRY.require("split_bus").builder
        )
        try:
            outcomes = {}
            for engine in ("stepped", "event"):
                config = small_config(topology=TopologyConfig(name=name), engine=engine)
                system = System(config, _bank_programs(config), trace=True)
                outcomes[engine] = _observable(system.run(observed_cores=[0]))
            assert outcomes["stepped"] == outcomes["event"]
        finally:
            TOPOLOGY_REGISTRY.pop(name)
