"""System-level tests for alternative arbiters and the L2-miss / DRAM path.

The unit tests cover the arbiters and the memory controller in isolation;
these tests exercise them through the full system, where the interesting
interactions (response-port arbitration, TDMA slotting of real request
streams, priority starvation pressure) actually happen.
"""

from __future__ import annotations

import pytest

from repro.analysis.contention import contention_histogram
from repro.config import BusConfig, small_config
from repro.kernels.rsk import build_rsk, build_stress_contender_set
from repro.methodology.experiment import ExperimentRunner
from repro.sim.arbiter import FifoArbiter, FixedPriorityArbiter, RoundRobinArbiter, TdmaArbiter
from repro.sim.isa import Load, Program
from repro.sim.system import System

from test_core import micro_config


def run_rsk_under_arbiter(config, arbiter, iterations=40, observed_core=0):
    scua = build_rsk(config, observed_core, iterations=iterations)
    contenders = build_stress_contender_set(config, "bus", observed_core)
    programs = [None] * config.num_cores
    programs[observed_core] = scua
    for core, program in contenders.items():
        programs[core] = program
    system = System(
        config, programs, trace=True, preload_l2=True, preload_il1=True, arbiter=arbiter
    )
    result = system.run(observed_cores=[observed_core])
    return result, contention_histogram(result.trace, observed_core)


class TestArbiterPoliciesAtSystemLevel:
    def test_fifo_arbitration_bounds_contention_by_queue_depth(self, tiny_config):
        arbiter = FifoArbiter(tiny_config.num_cores + 1)
        _, histogram = run_rsk_under_arbiter(tiny_config, arbiter)
        # With Nc-1 contenders each holding at most one outstanding request,
        # FCFS delays a request by at most (Nc-1) services plus one in flight.
        assert histogram.max_observed <= tiny_config.ubd + tiny_config.bus_service_l2_hit

    def test_fixed_priority_highest_core_sees_least_contention(self, tiny_config):
        ports = tiny_config.num_cores + 1
        _, top = run_rsk_under_arbiter(tiny_config, FixedPriorityArbiter(ports), observed_core=0)
        # The highest-priority core waits at most for the transaction already
        # occupying the bus, never for a full round.
        assert top.max_observed <= tiny_config.bus_service_l2_hit
        assert top.max_observed < tiny_config.ubd

    def test_fixed_priority_lowest_core_starves_under_saturating_contenders(self, tiny_config):
        """The non-composability the paper's related work warns about: with a
        static-priority bus and saturating higher-priority traffic the lowest
        core has no delay bound at all — it simply starves."""
        ports = tiny_config.num_cores + 1
        observed = tiny_config.num_cores - 1
        programs = [build_rsk(tiny_config, core) for core in range(tiny_config.num_cores - 1)]
        programs.append(build_rsk(tiny_config, observed, iterations=5))
        system = System(
            tiny_config,
            programs,
            preload_l2=True,
            preload_il1=True,
            arbiter=FixedPriorityArbiter(ports),
        )
        result = system.run(observed_cores=[observed], max_cycles=20_000)
        assert result.timed_out, "the lowest-priority core should never finish"
        assert result.pmc.core[observed].bus_requests <= 1

    def test_tdma_waits_for_the_slot_even_on_an_idle_bus(self, tiny_config):
        slot = tiny_config.bus_service_l2_hit
        arbiter = TdmaArbiter(tiny_config.num_cores + 1, slot_cycles=slot)
        scua = build_rsk(tiny_config, 0, iterations=20)
        programs = [scua] + [None] * (tiny_config.num_cores - 1)
        system = System(
            tiny_config, programs, trace=True, preload_l2=True, preload_il1=True, arbiter=arbiter
        )
        result = system.run(observed_cores=[0])
        runner = ExperimentRunner(tiny_config)
        rr_isolation = runner.run_isolation(build_rsk(tiny_config, 0, iterations=20))
        # TDMA in isolation is slower than round robin in isolation because it
        # is not work conserving.
        assert result.execution_time(0) > rr_isolation.execution_time

    def test_tdma_execution_time_is_bounded_and_composable(self, tiny_config):
        slot = tiny_config.bus_service_l2_hit
        ports = tiny_config.num_cores + 1
        alone_time = None
        contended_time = None
        for contended in (False, True):
            scua = build_rsk(tiny_config, 0, iterations=20)
            programs = [scua] + (
                [build_rsk(tiny_config, core) for core in range(1, tiny_config.num_cores)]
                if contended
                else [None] * (tiny_config.num_cores - 1)
            )
            system = System(
                tiny_config,
                programs,
                preload_l2=True,
                preload_il1=True,
                arbiter=TdmaArbiter(ports, slot_cycles=slot),
            )
            time = system.run(observed_cores=[0]).execution_time(0)
            if contended:
                contended_time = time
            else:
                alone_time = time
        # Under TDMA the co-runners barely change the observed execution time:
        # the schedule is fixed regardless of their presence.
        assert contended_time <= alone_time * 1.05


class TestArbiterSubclassesAtSystemLevel:
    """An injected subclass of a built-in policy that overrides one
    selection method is arbitrated by that method on every engine, even
    though the built-in answers the resources' fused questions itself.

    The counts and cycles are pinned, not only compared between engines:
    ``stepped`` and ``event`` share the bus, so a subclass bypassed on both
    would still agree with the oracle.
    """

    @staticmethod
    def _run(config, arbiter):
        programs = [None] * config.num_cores
        programs[0] = build_rsk(config, 0, iterations=20)
        for core, program in build_stress_contender_set(config, "bus", 0).items():
            programs[core] = program
        system = System(config, programs, preload_l2=True, arbiter=arbiter)
        return system.run(observed_cores=[0]).cycles

    @pytest.mark.parametrize("engine", ["event", "stepped"])
    def test_a_select_override_arbitrates(self, engine):
        calls = []

        class LowestPortArbiter(RoundRobinArbiter):
            def select(self, cycle, pending_ports):
                calls.append(cycle)
                return min(pending_ports)

        config = small_config(engine=engine)
        assert self._run(config, None) == 434
        assert self._run(config, LowestPortArbiter(config.num_cores + 1)) == 343
        assert len(calls) == 105

    @pytest.mark.parametrize("engine, expected_calls", [("event", 115), ("stepped", 0)])
    def test_a_next_event_cycle_override_sets_the_horizon(self, engine, expected_calls):
        """Only horizon-driven engines ask for the next grant; the oracle
        visits every cycle."""
        calls = []

        class CountingTdma(TdmaArbiter):
            def next_event_cycle(self, cycle, port):
                calls.append(cycle)
                return super().next_event_cycle(cycle, port)

        config = small_config(engine=engine, bus=BusConfig(arbitration="tdma"))
        assert self._run(config, None) == 2202
        arbiter = CountingTdma(config.num_cores + 1, config.bus.tdma_slot)
        assert self._run(config, arbiter) == 2202
        assert len(calls) == expected_calls


class TestL2MissAndDramPathUnderContention:
    def test_l2_miss_requests_use_the_response_port(self):
        config = micro_config(num_cores=2)
        # A footprint larger than the core's L2 partition forces recurring misses.
        stride = config.l2.cache.same_set_stride
        body = tuple(Load(0x4000 + index * stride) for index in range(6))
        program = Program(name="l2miss", body=body, iterations=4)
        system = System(config, [program, None], trace=True, preload_il1=True)
        result = system.run(observed_cores=[0])
        kinds = result.trace.count_by_kind()
        assert kinds.get("response", 0) > 0
        assert result.pmc.dram_accesses > 0

    def test_dram_bound_task_still_finishes_under_contention(self):
        config = micro_config(num_cores=2)
        stride = config.l2.cache.same_set_stride
        body = tuple(Load(0x4000 + index * stride) for index in range(6))
        scua = Program(name="l2miss", body=body, iterations=4)
        contender = build_rsk(config, 1, iterations=None)
        system = System(config, [scua, contender], trace=True, preload_il1=True, preload_l2=True)
        result = system.run(observed_cores=[0])
        assert result.done_cycles[0] is not None
        # The contender keeps hitting in L2, the scua keeps missing: both kinds
        # of traffic share the bus without deadlock and the DRAM sees only the
        # scua's lines.
        assert result.pmc.dram_accesses >= 6

    def test_contention_slows_down_dram_bound_task_too(self):
        config = micro_config(num_cores=2)
        stride = config.l2.cache.same_set_stride
        body = tuple(Load(0x4000 + index * stride) for index in range(6))
        scua = Program(name="l2miss", body=body, iterations=4)

        def run(with_contender: bool) -> int:
            programs = [scua, build_rsk(config, 1) if with_contender else None]
            system = System(config, programs, preload_il1=True, preload_l2=True)
            return system.run(observed_cores=[0]).execution_time(0)

        assert run(True) > run(False)
