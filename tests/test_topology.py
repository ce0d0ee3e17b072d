"""Shared-resource topologies: registries, bank queues, composed bounds.

Covers the composable-interconnect stack end to end:

* the arbiter/engine/topology registries (and their agreement with the
  declared tuples in ``repro.config``, which is what keeps the CLI's
  ``list`` subcommand honest);
* the :class:`repro.sim.memctrl.BankQueuedMemoryController` request/grant
  lifecycle and its integer event horizon;
* the differential oracle: FIFO bank queues reproduce the ``bus_only``
  platform cycle for cycle (arrival order is service order);
* the ``multi_resource`` preset being selectable through configuration,
  serialisation and digests;
* the per-resource UBD terms summing to an end-to-end bound that covers the
  observed worst case of every sampled workload (the paper's
  trustworthiness argument, lifted to a two-stage topology).
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.config import (
    ARBITRATION_POLICIES,
    ENGINES,
    PER_RESOURCE,
    PRESETS,
    TOPOLOGIES,
    BusConfig,
    TopologyConfig,
    admissibility,
    config_from_dict,
    get_preset,
    small_config,
)
from repro.errors import ConfigurationError, SimulationError
from repro.kernels.rsk import build_rsk, build_stress_contender_set
from repro.methodology.composition import (
    compose_etb_for_config,
    end_to_end_bound,
    per_resource_bounds,
)
from repro.methodology.experiment import ExperimentRunner
from repro.methodology.workloads import build_workload_programs
from repro.sim.arbiter import (
    ARBITER_REGISTRY,
    Arbiter,
    create_arbiter,
    register_arbiter,
    registered_arbiters,
)
from repro.sim.bus import Bus
from repro.sim.dram import Dram
from repro.sim.memctrl import BankQueuedMemoryController, MemoryController
from repro.sim.resource import NO_EVENT, SharedResource
from repro.sim.scheduler import registered_engines
from repro.sim.system import System
from repro.sim.topology import (
    TopologyHooks,
    build_topology,
    register_topology,
    registered_topologies,
)
from repro.config import DramConfig


def _queued_config(**overrides):
    return small_config(topology=TopologyConfig(name="bus_bank_queues"), **overrides)


def _rsk_programs(config, iterations=50, kind="load"):
    scua = build_rsk(config, 0, kind=kind, iterations=iterations)
    programs: List[Optional[object]] = [None] * config.num_cores
    programs[0] = scua
    for core, program in build_stress_contender_set(config, "bus", 0, kind=kind).items():
        programs[core] = program
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
# Registries: the factories and the declared tuples must agree.
# --------------------------------------------------------------------------- #


class TestRegistries:
    def test_arbiter_registry_matches_declared_policies(self):
        assert registered_arbiters() == ARBITRATION_POLICIES

    def test_engine_registry_matches_declared_engines(self):
        assert registered_engines() == ENGINES

    def test_topology_registry_matches_declared_topologies(self):
        assert registered_topologies() == TOPOLOGIES

    def test_multi_resource_preset_registered(self):
        assert "multi_resource" in PRESETS
        config = get_preset("multi_resource")
        assert config.topology.name == "bus_bank_queues"
        assert config.topology.mem_arbitration == "fifo"

    def test_duplicate_arbiter_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_arbiter("round_robin")(lambda num_ports, tdma_slot: None)

    def test_duplicate_topology_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_topology("bus_only")(lambda config, cb: None)

    def test_unknown_arbiter_rejected(self):
        with pytest.raises(ConfigurationError):
            create_arbiter("lottery", 4)

    def test_registered_arbiter_usable_from_config(self):
        """A runtime-registered policy is constructible via BusConfig/System."""

        class EveryoneLosesArbiter(Arbiter):
            policy_name = "test_static_zero"

            def select(self, cycle, pending_ports):
                return min(pending_ports)

        name = "test_static_zero"
        register_arbiter(name, "test-only policy")(
            lambda num_ports, tdma_slot: EveryoneLosesArbiter(num_ports)
        )
        try:
            config = small_config(bus=BusConfig(arbitration=name))
            assert config.bus.arbitration == name
            programs = _rsk_programs(config, iterations=5)
            result = System(config, programs, preload_l2=True).run(observed_cores=[0])
            assert result.instructions[0] > 0
        finally:
            ARBITER_REGISTRY.pop(name)

    def test_build_topology_follows_configuration(self):
        hooks = TopologyHooks(service_callback=lambda request, cycle: 1)
        plain = build_topology(small_config(), hooks)
        queued = build_topology(_queued_config(), hooks)
        assert type(plain.memctrl) is MemoryController
        assert isinstance(queued.memctrl, BankQueuedMemoryController)
        assert queued.memctrl.num_ports == 3
        assert all(a.policy_name == "fifo" for a in queued.memctrl.bank_arbiters)
        # Shared-bus topologies return data on the bus itself, on the extra
        # port behind the demand ports.
        assert plain.response_bus is plain.request_bus
        assert plain.request_bus.num_ports == 4
        assert plain.response_port_of(0) == 3

    def test_build_split_bus_chains_three_resources(self):
        config = small_config(topology=TopologyConfig(name="split_bus"))
        chain = build_topology(config, TopologyHooks(service_callback=lambda request, cycle: 1))
        assert [r.resource_name for r in chain.resources] == [
            "bus",
            "memqueue",
            "bus_response",
        ]
        assert chain.response_bus is not chain.request_bus
        assert isinstance(chain.response_bus, Bus)
        # No shared response port: each core's data returns on its own
        # response-channel port.
        assert chain.request_bus.num_ports == config.num_cores
        assert chain.response_bus.num_ports == config.num_cores
        assert [chain.response_port_of(core) for core in range(3)] == [0, 1, 2]
        assert chain.response_bus.arbiter.policy_name == "fifo"

    def test_resources_are_shared_resources(self):
        system = System(_queued_config(), _rsk_programs(_queued_config(), 2))
        assert len(system.resources) == 2
        for resource in system.resources:
            assert isinstance(resource, SharedResource)
        assert [r.resource_name for r in system.resources] == ["bus", "memqueue"]
        split = System(small_config(topology=TopologyConfig(name="split_bus")), [None] * 3)
        assert [r.resource_name for r in split.resources] == [
            "bus",
            "memqueue",
            "bus_response",
        ]
        for resource in split.resources:
            assert isinstance(resource, SharedResource)

    def test_idle_chain_reports_no_self_driven_event(self):
        system = System(_queued_config(), [None] * 3)
        assert [resource.horizon(0) for resource in system.resources] == [NO_EVENT, NO_EVENT]


# --------------------------------------------------------------------------- #
# Configuration plumbing.
# --------------------------------------------------------------------------- #


class TestTopologyConfig:
    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(name="mesh")

    def test_unknown_mem_arbitration_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(name="bus_bank_queues", mem_arbitration="lottery")

    def test_round_trip_and_digest(self):
        config = get_preset("multi_resource")
        rebuilt = config_from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.digest() == config.digest()

    def test_topology_changes_digest(self):
        assert small_config().digest() != _queued_config().digest()

    def test_legacy_dict_without_topology_defaults_to_bus_only(self):
        data = small_config().to_dict()
        del data["topology"]
        assert config_from_dict(data).topology.name == "bus_only"

    def test_describe_reports_topology(self):
        info = get_preset("multi_resource").describe()
        assert info["topology"] == "bus_bank_queues"
        assert info["mem_arbitration"] == "fifo"
        assert small_config().describe()["mem_arbitration"] is None

    def test_ubd_terms_sum_to_end_to_end(self):
        bus_only = small_config()
        assert bus_only.ubd_terms == {"bus": bus_only.ubd}
        assert bus_only.end_to_end_ubd == bus_only.ubd
        queued = _queued_config()
        terms = queued.ubd_terms
        assert set(terms) == {"bus", "memory", "bus_response"}
        assert queued.end_to_end_ubd == sum(terms.values())
        assert terms["bus"] > queued.ubd  # response port joins the round

    @pytest.mark.parametrize("policy", ["tdma", "fixed_priority"])
    def test_unbounded_bank_policies_have_no_composable_bounds(self, policy):
        """Fair-round reasoning covers RR/FIFO bank queues only; for TDMA
        (slot-governed wait) and fixed priority (starvation) the terms must
        refuse to exist rather than report a number delay can exceed."""
        config = small_config(
            topology=TopologyConfig(name="bus_bank_queues", mem_arbitration=policy)
        )
        assert admissibility(config)[PER_RESOURCE] is not None
        with pytest.raises(ConfigurationError):
            config.ubd_terms
        with pytest.raises(ConfigurationError):
            config.end_to_end_ubd
        # Fair policies on both stages do have the decomposition.
        assert admissibility(_queued_config())[PER_RESOURCE] is None
        assert admissibility(small_config())[PER_RESOURCE] is None

    @pytest.mark.parametrize("policy", ["tdma", "fixed_priority"])
    def test_unbounded_bus_policies_have_no_composable_bounds(self, policy):
        """The bus stage is gated too: a fixed-priority bus can starve the
        lowest-priority core indefinitely, so no end-to-end bound exists no
        matter how fair the bank queues are."""
        chained = small_config(
            bus=BusConfig(arbitration=policy),
            topology=TopologyConfig(name="bus_bank_queues"),
        )
        assert admissibility(chained)[PER_RESOURCE] is not None
        with pytest.raises(ConfigurationError):
            chained.end_to_end_ubd
        bus_only = small_config(bus=BusConfig(arbitration=policy))
        assert admissibility(bus_only)[PER_RESOURCE] is not None
        with pytest.raises(ConfigurationError):
            bus_only.ubd_terms


# --------------------------------------------------------------------------- #
# Bank-queued controller unit behaviour.
# --------------------------------------------------------------------------- #


def _collecting_controller(arbitration="fifo", num_banks=2, num_ports=3):
    completions = []
    controller = BankQueuedMemoryController(
        DramConfig(num_banks=num_banks),
        read_callback=lambda pending, cycle: completions.append((pending, cycle)),
        num_ports=num_ports,
        arbitration=arbitration,
    )
    return controller, completions


class TestBankQueuedController:
    def test_read_waits_for_bank_grant(self):
        controller, completions = _collecting_controller()
        pending = controller.enqueue_read(0, 0x100, cycle=0)
        assert pending.complete_cycle == -1  # not yet granted
        assert controller.queued_accesses == 1
        assert controller.outstanding_reads == 1  # queued reads count too
        controller.arbitrate(0)
        assert controller.queued_accesses == 0
        assert controller.stats.reads == 1
        # Base-class contract: the grant fills in the *returned* object's
        # completion cycle, and that same object reaches the callback.
        assert pending.complete_cycle > 0
        horizon = controller.next_event_cycle(0)
        assert isinstance(horizon, int) and horizon < NO_EVENT
        assert horizon == pending.complete_cycle
        controller.deliver(horizon)
        assert completions == [(pending, horizon)]
        assert controller.outstanding_reads == 0

    def test_same_bank_requests_serialise_fifo(self):
        controller, completions = _collecting_controller()
        # Same bank (same row group), different ports, arrival order 1 then 2.
        controller.enqueue_read(1, 0x000, cycle=0)
        controller.enqueue_read(2, 0x040, cycle=1)
        controller.arbitrate(1)
        assert controller.stats.reads == 1  # bank busy: only the head granted
        assert controller.queued_accesses == 1
        free_at = controller.grant_horizon(2)
        controller.arbitrate(free_at)
        assert controller.stats.reads == 2
        first = controller._in_flight[0][2]
        assert first.core_id == 1

    def test_fixed_priority_bank_reorders_service(self):
        controller, _ = _collecting_controller(arbitration="fixed_priority")
        controller.enqueue_read(2, 0x000, cycle=0)  # arrives first, low priority
        controller.enqueue_read(0, 0x040, cycle=0)  # same bank, high priority
        controller.arbitrate(0)
        granted = controller._in_flight[0][2]
        assert granted.core_id == 0  # priority wins over arrival order

    def test_distinct_banks_grant_in_the_same_cycle(self):
        config = DramConfig(num_banks=2)
        controller, _ = _collecting_controller(num_banks=2)
        dram = Dram(config)
        addr_a, addr_b = 0x0000, 0x1000  # row-interleaved: different banks
        assert dram.bank_of(addr_a) != dram.bank_of(addr_b)
        controller.enqueue_read(0, addr_a, cycle=0)
        controller.enqueue_read(1, addr_b, cycle=0)
        controller.arbitrate(0)
        assert controller.stats.reads == 2

    def test_writes_queue_and_count(self):
        controller, _ = _collecting_controller()
        assert controller.enqueue_write(0x100, cycle=0, core_id=1) == -1
        assert controller.queued_accesses == 1
        controller.arbitrate(0)
        assert controller.stats.writes == 1
        assert controller.stats.queue_grants == 1

    def test_queue_wait_statistics(self):
        controller, _ = _collecting_controller()
        controller.enqueue_read(0, 0x000, cycle=0)
        controller.enqueue_read(1, 0x040, cycle=0)  # same bank: must wait
        controller.arbitrate(0)
        wait_until = controller.grant_horizon(1)
        controller.arbitrate(wait_until)
        assert controller.stats.queue_grants == 2
        assert controller.stats.max_queue_wait == wait_until
        assert controller.stats.average_queue_wait == pytest.approx(wait_until / 2)

    def test_out_of_range_port_rejected(self):
        controller, _ = _collecting_controller(num_ports=2)
        with pytest.raises(SimulationError):
            controller.enqueue_read(5, 0x100, cycle=0)

    def test_idle_horizon_is_no_event(self):
        controller, _ = _collecting_controller()
        assert controller.next_event_cycle(0) == NO_EVENT

    def test_reset_clears_queues_and_arbiters(self):
        controller, _ = _collecting_controller(arbitration="round_robin")
        controller.enqueue_read(0, 0x000, cycle=0)
        controller.enqueue_read(1, 0x040, cycle=0)
        controller.arbitrate(0)
        controller.reset()
        assert controller.queued_accesses == 0
        assert controller.outstanding_reads == 0
        assert controller.next_event_cycle(0) == NO_EVENT


# --------------------------------------------------------------------------- #
# The differential oracle: FIFO bank queues == bus_only, cycle for cycle.
# --------------------------------------------------------------------------- #


class TestFifoQueuesMatchBusOnly:
    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_dram_heavy_rsk_identical(self, kind):
        """Arrival order is service order under FIFO banks, so the chained
        topology must reproduce the paper's platform exactly — a strong
        whole-system check that the queue stage adds no phantom cycles."""
        results = {}
        for name, config in (
            ("bus_only", small_config()),
            ("queued", _queued_config()),
        ):
            programs = _rsk_programs(config, iterations=40, kind=kind)
            system = System(config, programs, trace=True)  # no preload: hit DRAM
            results[name] = _observable(system.run(observed_cores=[0]))
        assert results["bus_only"] == results["queued"]

    def test_mixed_synthetic_workload_identical(self):
        tasks = ("tblook", "cacheb", "matrix")
        results = {}
        for name, config in (
            ("bus_only", small_config()),
            ("queued", _queued_config()),
        ):
            programs = build_workload_programs(
                config, tasks, observed_core=0, observed_iterations=6, seed=7
            )
            system = System(config, programs, trace=True)
            results[name] = _observable(system.run(observed_cores=[0]))
        assert results["bus_only"] == results["queued"]


# --------------------------------------------------------------------------- #
# Per-resource bounds: the end-to-end UBD covers every sampled workload.
# --------------------------------------------------------------------------- #


class TestComposedBounds:
    def test_per_resource_bounds_match_config(self):
        config = _queued_config()
        assert per_resource_bounds(config) == config.ubd_terms
        assert end_to_end_bound(config) == config.end_to_end_ubd

    def test_memory_requests_cannot_exceed_bus_requests(self):
        with pytest.raises(Exception):
            compose_etb_for_config(
                _queued_config(), "bad", isolation_time=10,
                bus_requests=1, memory_requests=2,
            )

    def test_bus_only_refuses_memory_traffic(self):
        """A bus-only decomposition has no memory-stage terms, so composing
        an ETB for a task with DRAM traffic must refuse (raise) rather than
        return a pad that bank/response contention can exceed."""
        from repro.errors import MethodologyError

        with pytest.raises(MethodologyError):
            compose_etb_for_config(
                small_config(), "dram-task", isolation_time=100,
                bus_requests=50, memory_requests=10,
            )
        # Preloaded workloads (no memory traffic) still compose fine.
        report = compose_etb_for_config(
            small_config(), "warm-task", isolation_time=100,
            bus_requests=50, memory_requests=0,
        )
        assert report.etb == 100 + 50 * small_config().ubd

    @pytest.mark.parametrize(
        "tasks",
        [
            None,  # rsk-load against rsk contenders (the worst case)
            ("tblook", "cacheb", "matrix"),
            ("matrix", "tblook", "tblook"),
            ("cacheb", "rspeed", "aifirf"),
        ],
    )
    def test_etb_covers_observed_worst_case(self, tasks):
        """Acceptance: on the chained topology, the summed per-resource
        bounds, applied MBTA-style, must cover the observed contended time
        of every sampled workload (rsk and EEMBC-like)."""
        config = _queued_config()
        runner = ExperimentRunner(config, preload_l2=False, preload_il1=False)
        if tasks is None:
            scua = build_rsk(config, 0, iterations=40)
            contenders = build_stress_contender_set(config, "bus", 0)
        else:
            programs = build_workload_programs(
                config, tasks, observed_core=0, observed_iterations=8, seed=11
            )
            scua = programs[0]
            contenders = {
                core: program
                for core, program in enumerate(programs)
                if core != 0 and program is not None
            }
        isolation, contended = runner.run_pair(scua, contenders)
        nr_bus = isolation.bus_requests
        nr_mem = isolation.result.pmc.dram_accesses
        report = compose_etb_for_config(
            config,
            task_name=scua.name,
            isolation_time=isolation.execution_time,
            bus_requests=nr_bus,
            memory_requests=nr_mem,
            observed_contended_time=contended.execution_time,
        )
        assert report.covers_observation, report.summary()
        assert report.etb == isolation.execution_time + sum(report.pads.values())

    def test_bus_term_bounds_observed_request_delays(self):
        """Per-request: the bus term alone must cover every observed
        bus-grant delay of the observed core on the chained topology."""
        from repro.analysis.contention import contention_histogram

        config = _queued_config()
        runner = ExperimentRunner(config, preload_l2=False, preload_il1=False)
        scua = build_rsk(config, 0, iterations=60)
        contended = runner.run_against_rsk(scua, trace=True)
        histogram = contention_histogram(contended.trace, 0)
        assert histogram.max_observed <= config.ubd_terms["bus"]
