"""Unit tests for the isolation / contended experiment runner."""

from __future__ import annotations

import pytest

from repro.config import get_preset
from repro.errors import MethodologyError
from repro.kernels import rsk
from repro.kernels.rsk import (
    build_rsk,
    build_stress_contender_set,
    rsk_request_count,
)
from repro.methodology import experiment
from repro.methodology.experiment import ExperimentRunner
from repro.methodology.ubd import UbdEstimator
from repro.sim.isa import Nop, Program


class TestBuildContenderSet:
    def test_one_contender_per_other_core(self, tiny_config):
        contenders = build_stress_contender_set(tiny_config, "bus", 0)
        assert set(contenders) == {1, 2}
        assert all(program.is_infinite for program in contenders.values())

    def test_reference_platform_has_three_contenders(self, ref_config):
        contenders = build_stress_contender_set(ref_config, "bus", 2)
        assert set(contenders) == {0, 1, 3}

    def test_store_contenders(self, tiny_config):
        contenders = build_stress_contender_set(tiny_config, "bus", 0, kind="store")
        assert all("store" in program.name for program in contenders.values())

    def test_invalid_scua_core_rejected(self, tiny_config):
        with pytest.raises(MethodologyError):
            build_stress_contender_set(tiny_config, "bus", 9)

    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_bus_contenders_are_infinite_rsk(self, ref_config, kind):
        """The paper's contender set: an infinite rsk on every other core."""
        contenders = build_stress_contender_set(ref_config, "bus", 1, kind=kind)
        assert contenders == {
            core: build_rsk(ref_config, core, kind=kind, iterations=None) for core in (0, 2, 3)
        }


class TestIsolationRuns:
    def test_isolation_measures_time_and_requests(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        scua = build_rsk(tiny_config, 0, iterations=10)
        measurement = runner.run_isolation(scua)
        assert measurement.bus_requests == rsk_request_count(scua)
        per_request = tiny_config.dl1.hit_latency + tiny_config.bus_service_l2_hit
        assert measurement.execution_time == measurement.bus_requests * per_request

    def test_infinite_scua_rejected(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        with pytest.raises(MethodologyError):
            runner.run_isolation(build_rsk(tiny_config, 0))

    def test_invalid_core_rejected(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        scua = build_rsk(tiny_config, 0, iterations=1)
        with pytest.raises(MethodologyError):
            runner.run_isolation(scua, scua_core=5)

    def test_budget_exhaustion_raises(self, tiny_config):
        runner = ExperimentRunner(tiny_config, max_cycles=10)
        scua = build_rsk(tiny_config, 0, iterations=100)
        with pytest.raises(MethodologyError):
            runner.run_isolation(scua)


class TestContendedRuns:
    def test_contended_run_is_slower_than_isolation(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        scua = build_rsk(tiny_config, 0, iterations=20)
        isolation = runner.run_isolation(scua)
        contended = runner.run_against_rsk(scua)
        assert contended.execution_time > isolation.execution_time
        assert contended.slowdown_versus(isolation) > 0

    def test_contended_run_saturates_the_bus(self, ref_config):
        runner = ExperimentRunner(ref_config)
        scua = build_rsk(ref_config, 0, iterations=30)
        contended = runner.run_against_rsk(scua)
        assert contended.bus_utilisation > 0.95

    def test_trace_collected_on_request(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        scua = build_rsk(tiny_config, 0, iterations=5)
        contended = runner.run_against_rsk(scua, trace=True)
        assert contended.trace is not None
        assert len(contended.trace.for_port(0)) > 0

    def test_trace_not_collected_by_default(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        scua = build_rsk(tiny_config, 0, iterations=5)
        assert runner.run_against_rsk(scua).trace is None

    def test_scua_core_cannot_also_be_contender(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        scua = build_rsk(tiny_config, 0, iterations=5)
        contender = build_rsk(tiny_config, 0)
        with pytest.raises(MethodologyError):
            runner.run_contended(scua, {0: contender})

    def test_contender_core_must_exist(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        scua = build_rsk(tiny_config, 0, iterations=5)
        contender = build_rsk(tiny_config, 1)
        with pytest.raises(MethodologyError):
            runner.run_contended(scua, {5: contender})

    def test_slowdown_matches_synchrony_model(self, tiny_config):
        """Per-request slowdown equals gamma(delta_rsk) = ubd - delta_rsk."""
        runner = ExperimentRunner(tiny_config)
        scua = build_rsk(tiny_config, 0, iterations=30)
        isolation = runner.run_isolation(scua)
        contended = runner.run_against_rsk(scua)
        per_request = contended.slowdown_versus(isolation) / isolation.bus_requests
        expected = tiny_config.ubd - tiny_config.dl1.hit_latency
        assert per_request == pytest.approx(expected, abs=0.2)

    def test_compute_only_scua_barely_slows_down(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        scua = Program(name="compute", body=tuple(Nop() for _ in range(20)), iterations=20)
        isolation = runner.run_isolation(scua)
        contended = runner.run_against_rsk(scua)
        assert contended.slowdown_versus(isolation) <= 2 * tiny_config.ubd


class TestContenderSetPerRunner:
    """A sweep runs every point against the same contenders, so a runner
    builds each stress contender set once."""

    def test_a_sweep_builds_one_contender_per_other_core(self, monkeypatch):
        config = get_preset("small")
        built = []
        build = rsk.build_rsk

        def counting_build_rsk(*args, **kwargs):
            built.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(rsk, "build_rsk", counting_build_rsk)
        result = UbdEstimator(config, iterations=3).run()
        assert len(result.points) >= 60
        assert sorted(built) == list(range(1, config.num_cores))

    def test_each_scua_core_and_kind_gets_its_own_set(self, tiny_config, monkeypatch):
        runner = ExperimentRunner(tiny_config)
        built = []
        build = rsk.build_stress_contender_set

        def counting_build(config, resource, scua_core, kind="load"):
            built.append((scua_core, kind))
            return build(config, resource, scua_core, kind=kind)

        monkeypatch.setattr(experiment, "build_stress_contender_set", counting_build)
        for scua_core, kind in [(0, "load"), (0, "load"), (1, "load"), (0, "store"), (1, "load")]:
            scua = build_rsk(tiny_config, scua_core, iterations=2)
            contended = runner.run_against_rsk(scua, scua_core, kind=kind)
            for core in range(tiny_config.num_cores):
                assert contended.result.instructions[core] > 0
        assert built == [(0, "load"), (1, "load"), (0, "store")]
