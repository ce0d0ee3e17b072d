"""Unit tests for system assembly, the run loop and the event engine's
agreement with the stepped oracle."""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.config import reference_config, small_config
from repro.errors import ConfigurationError, SimulationError
from repro.kernels.rsk import build_rsk
from repro.sim.arbiter import FixedPriorityArbiter, RoundRobinArbiter
from repro.sim.isa import Load, Nop, Program, Store
from repro.sim.system import System

from test_core import micro_config


class TestConstruction:
    def test_programs_padded_with_idle_cores(self):
        config = micro_config(num_cores=2)
        system = System(config, [Program(name="p", body=(Nop(),), iterations=1)])
        assert system.programs[1] is None

    def test_too_many_programs_rejected(self):
        config = micro_config(num_cores=1)
        programs = [Program(name="p", body=(Nop(),), iterations=1)] * 2
        with pytest.raises(ConfigurationError):
            System(config, programs)

    def test_external_arbiter_must_match_port_count(self):
        config = micro_config(num_cores=2)
        with pytest.raises(SimulationError):
            System(config, [None, None], arbiter=RoundRobinArbiter(2))

    def test_external_arbiter_accepted(self):
        config = micro_config(num_cores=2)
        system = System(config, [None, None], arbiter=FixedPriorityArbiter(3))
        assert isinstance(system.bus.arbiter, FixedPriorityArbiter)

    def test_response_port_is_last(self):
        config = micro_config(num_cores=2)
        system = System(config, [None, None])
        assert system.response_port == 2
        assert system.bus.num_ports == 3


class TestRunTermination:
    def test_run_requires_an_observed_core(self):
        config = micro_config(num_cores=2)
        infinite = Program(name="inf", body=(Nop(),), iterations=None)
        system = System(config, [infinite, None])
        with pytest.raises(ConfigurationError):
            system.run()

    def test_observed_core_must_have_finite_program(self):
        config = micro_config(num_cores=2)
        infinite = Program(name="inf", body=(Nop(),), iterations=None)
        system = System(config, [infinite, None])
        with pytest.raises(ConfigurationError):
            system.run(observed_cores=[0])

    def test_observed_core_must_exist(self):
        config = micro_config()
        program = Program(name="p", body=(Nop(),), iterations=1)
        system = System(config, [program])
        with pytest.raises(ConfigurationError):
            system.run(observed_cores=[3])

    def test_observed_core_must_have_a_program(self):
        config = micro_config(num_cores=2)
        program = Program(name="p", body=(Nop(),), iterations=1)
        system = System(config, [program, None])
        with pytest.raises(ConfigurationError):
            system.run(observed_cores=[1])

    def test_timeout_flag_set_when_budget_exhausted(self):
        config = micro_config()
        program = Program(name="long", body=tuple(Nop() for _ in range(10)), iterations=100)
        system = System(config, [program], preload_il1=True)
        result = system.run(max_cycles=50)
        assert result.timed_out
        assert result.done_cycles[0] is None

    def test_execution_time_of_unfinished_core_raises(self):
        config = micro_config(num_cores=2)
        finite = Program(name="p", body=(Nop(),), iterations=1)
        infinite = Program(name="inf", body=(Nop(),), iterations=None)
        system = System(config, [finite, infinite], preload_il1=True)
        result = system.run(observed_cores=[0])
        with pytest.raises(SimulationError):
            result.execution_time(1)

    def test_default_observed_cores_are_all_finite_programs(self):
        config = micro_config(num_cores=2)
        a = Program(name="a", body=(Nop(),), iterations=2)
        b = Program(name="b", body=(Nop(),), iterations=5, base_pc=0x5000_0000)
        system = System(config, [a, b], preload_il1=True)
        result = system.run()
        assert result.done_cycles[0] == 2
        assert result.done_cycles[1] == 5


class TestEventEngineMatchesStepped:
    @pytest.mark.parametrize("l1_latency", [1, 4])
    def test_event_matches_stepped_for_rsk(self, l1_latency):
        config = micro_config(num_cores=2, l1_latency=l1_latency)
        scua = build_rsk(config, 0, iterations=20)
        contender = build_rsk(config, 1, iterations=None)

        def run(engine: str) -> int:
            system = System(
                config.with_overrides(engine=engine),
                [scua, contender],
                preload_il1=True,
                preload_l2=True,
            )
            return system.run(observed_cores=[0]).execution_time(0)

        assert run("event") == run("stepped")

    def test_event_matches_stepped_with_stores(self):
        config = micro_config(num_cores=2, store_buffer_entries=2)
        body = tuple(Store(0x100 + 64 * index) for index in range(4))
        scua = Program(name="stores", body=body, iterations=10)
        contender = build_rsk(config, 1, iterations=None)

        def run(engine: str) -> int:
            system = System(
                config.with_overrides(engine=engine),
                [scua, contender],
                preload_il1=True,
                preload_l2=True,
            )
            return system.run(observed_cores=[0]).execution_time(0)

        assert run("event") == run("stepped")

    def test_event_matches_stepped_with_dram(self):
        config = micro_config()
        # Cold L2: the single load goes to DRAM through the response port.
        program = Program(name="cold", body=(Load(0x2000),), iterations=3)

        def run(engine: str) -> int:
            system = System(config.with_overrides(engine=engine), [program], preload_il1=True)
            return system.run().execution_time(0)

        assert run("event") == run("stepped")


class TestPreloading:
    def test_preload_l2_removes_dram_accesses(self):
        config = micro_config(num_cores=2)
        scua = build_rsk(config, 0, iterations=5)
        warm = System(config, [scua], preload_l2=True, preload_il1=True)
        warm_result = warm.run()
        assert warm_result.pmc.dram_accesses == 0
        cold = System(config, [scua], preload_l2=False, preload_il1=True)
        cold_result = cold.run()
        assert cold_result.pmc.dram_accesses > 0

    def test_preload_dl1_makes_small_footprints_hit(self):
        config = micro_config()
        program = Program(name="p", body=(Load(0x100),), iterations=4)
        system = System(config, [program], preload_il1=True, preload_dl1=True, preload_l2=True)
        result = system.run()
        assert result.execution_time(0) == 4 * config.dl1.hit_latency

    def test_idle_cores_are_not_preloaded(self):
        config = micro_config(num_cores=2)
        program = Program(name="p", body=(Nop(),), iterations=1)
        system = System(config, [program, None], preload_l2=True, preload_il1=True)
        assert system.cores[1].il1.occupancy() == 0


class TestCountersAndResults:
    def test_cycles_cover_the_whole_run(self):
        config = micro_config()
        program = Program(name="p", body=(Nop(),), iterations=7)
        system = System(config, [program], preload_il1=True)
        result = system.run()
        assert result.cycles >= result.execution_time(0)

    def test_bus_busy_cycles_match_request_count(self):
        config = micro_config(num_cores=2)
        scua = build_rsk(config, 0, iterations=10)
        system = System(config, [scua], preload_il1=True, preload_l2=True)
        result = system.run()
        lbus = config.bus_service_l2_hit
        assert result.pmc.bus_busy_cycles == result.pmc.core[0].bus_requests * lbus

    def test_trace_disabled_by_default(self):
        config = micro_config()
        program = Program(name="p", body=(Nop(),), iterations=1)
        result = System(config, [program], preload_il1=True).run()
        assert result.trace is None

    def test_describe_lists_programs(self):
        config = micro_config(num_cores=2)
        program = Program(name="payload", body=(Nop(),), iterations=1)
        system = System(config, [program, None])
        description = system.describe()
        assert "payload" in description["programs"][0]
        assert description["programs"][1] == "idle"

    def test_paper_reference_isolation_cost(self):
        """On the ref platform an L2-hit load costs 1 + 9 = 10 cycles."""
        config = reference_config()
        scua = build_rsk(config, 0, iterations=50)
        system = System(config, [scua], preload_il1=True, preload_l2=True)
        result = system.run()
        requests = result.pmc.core[0].bus_requests
        assert result.execution_time(0) == requests * 10
