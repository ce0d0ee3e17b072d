"""Unit tests for the methodology's confidence checks (Section 4.3)."""

from __future__ import annotations

from repro.analysis.confidence import (
    ConfidenceCheck,
    ConfidenceReport,
    assess_confidence,
)
from repro.analysis.injection import DeltaNopEstimate
from repro.analysis.sawtooth import PeriodEstimate


def delta_nop(ratio=1.0, rounded=1):
    return DeltaNopEstimate(
        cycles_per_nop=ratio, rounded=rounded, executed_nops=1000, execution_time=int(1000 * ratio)
    )


def period(period_k=27, agreement=1.0):
    return PeriodEstimate(
        period_k=period_k,
        period_cycles=period_k,
        per_method={"exact": period_k},
        agreement=agreement,
    )


class TestBusSaturationCheck:
    def test_saturated_bus_passes(self):
        report = assess_confidence(bus_utilisation=0.99)
        assert report.passed

    def test_unsaturated_bus_fails(self):
        report = assess_confidence(bus_utilisation=0.5)
        assert not report.passed
        assert report.failed_checks()[0].name == "bus_saturation"

    def test_threshold_is_configurable(self):
        report = assess_confidence(bus_utilisation=0.8, utilisation_threshold=0.75)
        assert report.passed


class TestDeltaNopCheck:
    def test_exact_delta_nop_passes(self):
        report = assess_confidence(bus_utilisation=1.0, delta_nop=delta_nop(1.0))
        assert report.passed

    def test_noisy_delta_nop_fails(self):
        report = assess_confidence(bus_utilisation=1.0, delta_nop=delta_nop(1.3))
        names = [check.name for check in report.failed_checks()]
        assert "delta_nop" in names

    def test_tolerance_configurable(self):
        report = assess_confidence(
            bus_utilisation=1.0, delta_nop=delta_nop(1.08), delta_nop_tolerance=0.1
        )
        assert report.passed


class TestPeriodChecks:
    def test_agreement_and_coverage_pass(self):
        report = assess_confidence(
            bus_utilisation=1.0,
            delta_nop=delta_nop(),
            period=period(27, agreement=1.0),
            sweep_span_k=60,
        )
        assert report.passed
        assert len(report.checks) == 4

    def test_low_agreement_fails(self):
        report = assess_confidence(
            bus_utilisation=1.0, period=period(27, agreement=0.25), sweep_span_k=60
        )
        assert not report.passed

    def test_insufficient_sweep_coverage_fails(self):
        report = assess_confidence(bus_utilisation=1.0, period=period(27), sweep_span_k=30)
        names = [check.name for check in report.failed_checks()]
        assert "sweep_coverage" in names

    def test_coverage_not_checked_without_span(self):
        report = assess_confidence(bus_utilisation=1.0, period=period(27))
        names = [check.name for check in report.checks]
        assert "sweep_coverage" not in names


class TestObservedFloor:
    def test_bound_covering_every_observed_wait_passes(self):
        report = assess_confidence(bus_utilisation=1.0, period=period(27), observed_wait=27)
        (check,) = [check for check in report.checks if check.name == "observed_floor"]
        assert check.passed
        assert "27 cycles versus ubdm 27" in check.detail

    def test_bound_below_an_observed_wait_fails(self):
        """The 8-core ref sweep prints ubdm 1 while its own contended runs
        saw the bus make a request wait 63 cycles."""
        report = assess_confidence(bus_utilisation=1.0, period=period(1), observed_wait=63)
        assert [check.name for check in report.failed_checks()] == ["observed_floor"]
        assert not report.passed

    def test_floor_not_checked_without_an_observation(self):
        report = assess_confidence(bus_utilisation=1.0, period=period(27))
        assert "observed_floor" not in [check.name for check in report.checks]


class TestReportRendering:
    def test_summary_contains_pass_and_fail_lines(self):
        report = ConfidenceReport(
            checks=[
                ConfidenceCheck(name="a", passed=True, detail="fine"),
                ConfidenceCheck(name="b", passed=False, detail="broken"),
            ]
        )
        summary = report.summary()
        assert "[PASS] a" in summary
        assert "[FAIL] b" in summary
        assert not report.passed


class TestWriteBurstGate:
    """The PMC gate on the memory term's <=1-outstanding-write assumption."""

    @staticmethod
    def _pmc(num_cores, cycles, stores_per_core):
        from repro.sim.pmc import PerformanceCounters

        pmc = PerformanceCounters(num_cores=num_cores)
        pmc.cycles = cycles
        for core, stores in enumerate(stores_per_core):
            pmc.core[core].stores = stores
        return pmc

    def test_passes_without_memory_queues(self):
        from repro.analysis.confidence import assess_write_burst
        from repro.config import small_config

        config = small_config()
        pmc = self._pmc(3, 100, [90, 0, 0])
        check = assess_write_burst(config, pmc)
        assert check.passed
        assert "no arbitrated memory stage" in check.detail

    def test_flags_bursty_writes_on_chained_topology(self):
        from repro.analysis.confidence import assess_write_burst
        from repro.config import TopologyConfig, small_config

        config = small_config(topology=TopologyConfig(name="bus_bank_queues"))
        # One store every other cycle refills a bank (row-miss service 33)
        # far faster than it drains, and the 8-entry buffer can hold the burst.
        pmc = self._pmc(3, 100, [50, 0, 0])
        check = assess_write_burst(config, pmc)
        assert not check.passed
        assert "under-bounds" in check.detail
        assert check.name == "write_burst"

    def test_passes_with_single_entry_store_buffer(self):
        from repro.analysis.confidence import assess_write_burst
        from repro.config import StoreBufferConfig, TopologyConfig, small_config

        config = small_config(
            topology=TopologyConfig(name="bus_bank_queues"),
            store_buffer=StoreBufferConfig(entries=1),
        )
        pmc = self._pmc(3, 100, [50, 0, 0])
        assert assess_write_burst(config, pmc).passed

    def test_passes_for_low_write_rates(self):
        from repro.analysis.confidence import assess_write_burst
        from repro.config import TopologyConfig, small_config

        config = small_config(topology=TopologyConfig(name="bus_bank_queues"))
        # One store per 100 cycles: a bank drains long before the next write.
        pmc = self._pmc(3, 1000, [10, 0, 0])
        assert assess_write_burst(config, pmc).passed

    def test_real_store_stress_run_is_flagged(self):
        """A store rsk hammering one bank through the chained topology is the
        configuration the gate exists for: write bursts pile more than
        Nc - 1 accesses onto the bank queue."""
        from repro.analysis.confidence import assess_write_burst
        from repro.config import TopologyConfig, small_config
        from repro.kernels.rsk import build_bank_conflict_rsk
        from repro.methodology.experiment import ExperimentRunner

        config = small_config(topology=TopologyConfig(name="bus_bank_queues"))
        runner = ExperimentRunner(config, preload_l2=False, preload_il1=True)
        scua = build_bank_conflict_rsk(config, 0, kind="store", iterations=40)
        contenders = {
            core: build_bank_conflict_rsk(config, core, kind="store", iterations=None)
            for core in range(1, config.num_cores)
        }
        contended = runner.run_contended(scua, contenders)
        check = assess_write_burst(config, contended.result.pmc)
        assert not check.passed, check.detail
