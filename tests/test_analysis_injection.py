"""Unit tests for the delta_nop derivation."""

from __future__ import annotations

import pytest

from repro.analysis.injection import DeltaNopEstimate, derive_delta_nop
from repro.config import small_config
from repro.errors import AnalysisError
from repro.kernels.rsk import build_nop_kernel
from repro.sim.isa import Nop, Program


class TestDeriveDeltaNop:
    def test_small_platform_measures_one_cycle_per_nop(self, tiny_config):
        estimate = derive_delta_nop(tiny_config, iterations=3)
        assert estimate.rounded == 1
        assert estimate.cycles_per_nop == pytest.approx(1.0, rel=0.02)

    def test_reference_platform_measures_one_cycle_per_nop(self, ref_config):
        estimate = derive_delta_nop(ref_config, iterations=2)
        assert estimate.rounded == 1

    def test_two_cycle_nop_platform(self):
        config = small_config(nop_latency=2)
        estimate = derive_delta_nop(config, iterations=3)
        assert estimate.rounded == 2

    def test_explicit_kernel_accepted(self, tiny_config):
        kernel = build_nop_kernel(tiny_config, 0, iterations=2)
        estimate = derive_delta_nop(tiny_config, kernel=kernel)
        assert estimate.executed_nops == kernel.total_instructions

    def test_infinite_kernel_rejected(self, tiny_config):
        kernel = Program(name="inf", body=(Nop(),), iterations=None)
        with pytest.raises(AnalysisError):
            derive_delta_nop(tiny_config, kernel=kernel)

    def test_empty_kernel_rejected(self, tiny_config):
        kernel = Program(name="empty", body=(Nop(),), iterations=0)
        with pytest.raises(AnalysisError):
            derive_delta_nop(tiny_config, kernel=kernel)

    def test_cold_instruction_cache_only_adds_small_error(self, tiny_config):
        # Enough iterations amortise the handful of cold IL1 misses, exactly
        # as the paper's "as big as possible without causing instruction
        # cache misses" body does on real hardware.
        warm = derive_delta_nop(tiny_config, iterations=50, preload_il1=True)
        cold = derive_delta_nop(tiny_config, iterations=50, preload_il1=False)
        assert cold.cycles_per_nop >= warm.cycles_per_nop
        assert cold.rounded == warm.rounded

    def test_runs_on_requested_core(self, tiny_config):
        estimate = derive_delta_nop(tiny_config, core_id=1, iterations=2)
        assert estimate.rounded == 1


class TestEstimateObject:
    def test_relative_rounding_error(self):
        estimate = DeltaNopEstimate(
            cycles_per_nop=1.02, rounded=1, executed_nops=100, execution_time=102
        )
        assert estimate.relative_rounding_error == pytest.approx(0.02)

    def test_zero_rounded_yields_infinite_error(self):
        estimate = DeltaNopEstimate(
            cycles_per_nop=0.0, rounded=0, executed_nops=1, execution_time=0
        )
        assert estimate.relative_rounding_error == float("inf")
