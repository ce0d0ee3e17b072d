"""Unit tests for the rsk-nop methodology (UbdEstimator)."""

from __future__ import annotations

import pytest

from repro.analysis.sawtooth import PeriodEstimate
from repro.config import BusConfig, small_config
from repro.errors import AnalysisError, MethodologyError
from repro.methodology.ubd import SweepPoint, UbdEstimator, UbdMethodologyResult
from repro.sim.system import System


@pytest.fixture(scope="module")
def small_result():
    """Run the full methodology once on the small platform (ubd = 3)."""
    config = small_config()
    estimator = UbdEstimator(config, k_max=8, iterations=20)
    return config, estimator.run()


class TestValidation:
    def test_unknown_instruction_type_rejected(self, tiny_config):
        with pytest.raises(MethodologyError):
            UbdEstimator(tiny_config, instruction_type="swap")

    def test_explicit_sweep_too_short_rejected(self, tiny_config):
        with pytest.raises(MethodologyError):
            UbdEstimator(tiny_config, k_values=[1, 2])

    def test_zero_iterations_rejected(self, tiny_config):
        with pytest.raises(MethodologyError):
            UbdEstimator(tiny_config, iterations=0)

    def test_k_max_below_one_rejected(self, tiny_config):
        with pytest.raises(MethodologyError, match="k_max must be >= 1"):
            UbdEstimator(tiny_config, k_max=0)


class TestSweepPoints:
    def test_measure_point_reports_positive_dbus(self, tiny_config):
        estimator = UbdEstimator(tiny_config, iterations=10)
        point = estimator.measure_point(k=1)
        assert isinstance(point, SweepPoint)
        assert point.dbus > 0
        assert point.contended_time == point.isolation_time + point.dbus
        assert point.bus_utilisation > 0.9

    def test_dbus_periodic_in_k(self, tiny_config):
        """dbus(k) must equal dbus(k + ubd) (Equation 3's premise)."""
        estimator = UbdEstimator(tiny_config, iterations=10)
        ubd = tiny_config.ubd
        first = estimator.measure_point(k=1).dbus
        shifted = estimator.measure_point(k=1 + ubd).dbus
        assert first == shifted

    def test_requests_independent_of_k(self, tiny_config):
        estimator = UbdEstimator(tiny_config, iterations=10)
        assert estimator.measure_point(1).requests == estimator.measure_point(5).requests


class TestFullMethodology:
    def test_recovers_ubd_on_small_platform(self, small_result):
        config, result = small_result
        assert result.ubdm == config.ubd

    def test_delta_nop_measured_as_one(self, small_result):
        _, result = small_result
        assert result.delta_nop.rounded == 1

    def test_confidence_checks_pass(self, small_result):
        _, result = small_result
        assert result.confidence.passed, result.confidence.summary()

    def test_result_exposes_sweep_series(self, small_result):
        _, result = small_result
        assert result.ks == [point.k for point in result.points]
        assert result.dbus_values == [point.dbus for point in result.points]
        assert len(result.ks) >= 2 * result.period.period_k

    def test_summary_mentions_platform_and_value(self, small_result):
        config, result = small_result
        summary = result.summary()
        assert config.name in summary
        assert str(result.ubdm) in summary

    def test_estimator_agreement_reported(self, small_result):
        _, result = small_result
        assert isinstance(result.period, PeriodEstimate)
        assert result.period.agreement >= 0.5


class TestAutoExtension:
    def test_sweep_extends_until_two_periods_covered(self):
        config = small_config()
        estimator = UbdEstimator(config, k_max=4, iterations=15, auto_extend=True)
        result = estimator.run()
        assert result.ubdm == config.ubd
        assert result.ks[-1] >= 2 * config.ubd - 1

    def test_one_point_sweep_extends_to_the_period(self):
        """``k_max = 1`` is the smallest accepted sweep; doubling grows it."""
        config = small_config()
        result = UbdEstimator(config, k_max=1, iterations=15).run()
        assert result.ubdm == config.ubd
        assert result.ks[0] == 1

    def test_search_limit_stops_the_extension(self, tiny_config, monkeypatch):
        monkeypatch.setattr("repro.methodology.ubd.MAX_K_LIMIT", 2)
        estimator = UbdEstimator(tiny_config, k_max=1, iterations=10)
        with pytest.raises(AnalysisError, match="search limit of 2"):
            estimator.run()

    @pytest.mark.usefixtures("sweep_capped_before_two_periods")
    def test_period_not_covered_twice_at_the_search_limit_is_refused(self):
        """At the cap the detected period (24 = the whole sweep, found by
        one estimator) is inconclusive by the sweep's own rule: refuse it
        rather than print the cap as a bound."""
        estimator = UbdEstimator(small_config(), k_max=12, iterations=5)
        with pytest.raises(AnalysisError, match="MAX_K_LIMIT = 24 .* not cover twice"):
            estimator.run()

    @pytest.mark.usefixtures("sweep_capped_before_two_periods")
    def test_budgeted_sweep_reports_an_uncovered_period_as_failed_coverage(self):
        """With ``auto_extend=False`` the sweep is a fixed budget (the audit's
        fallback, Figures 7(a)/7(b)): the same inconclusive period is
        reported, and the confidence checks flag it instead of a refusal."""
        result = UbdEstimator(small_config(), k_max=24, iterations=5, auto_extend=False).run()
        assert result.ubdm == 24
        assert not result.confidence.passed
        failed = {check.name for check in result.confidence.failed_checks()}
        assert "sweep_coverage" in failed

    def test_tdma_bus_is_refused_before_any_simulation(self, monkeypatch):
        """No sweep can find a fair round on a TDMA bus, so the estimator
        refuses up front instead of sweeping to the search limit."""
        runs = []
        monkeypatch.setattr(System, "run", lambda *args, **kwargs: runs.append(args))
        config = small_config(bus=BusConfig(arbitration="tdma", transfer_latency=1))
        with pytest.raises(MethodologyError, match="no fair round"):
            UbdEstimator(config, k_max=4, iterations=10).run()
        assert runs == []

    def test_methodology_works_with_more_cores(self):
        """ubd scales with the number of contenders (Equation 1)."""
        from repro.config import CacheConfig, L2Config

        narrow = small_config()
        # A larger L2 keeps every core's rsk footprint inside its (single-way)
        # partition despite the uneven 8-ways / 5-cores split.
        wider = small_config(
            num_cores=5,
            l2=L2Config(
                cache=CacheConfig(size_bytes=32 * 1024, ways=8, line_size=32, hit_latency=2)
            ),
        )
        narrow_result = UbdEstimator(narrow, k_max=14, iterations=12).run()
        wide_result = UbdEstimator(wider, k_max=26, iterations=12).run()
        assert narrow_result.ubdm == narrow.ubd
        assert wide_result.ubdm == wider.ubd
        assert wide_result.ubdm == 2 * narrow_result.ubdm


class TestStoreVariant:
    def test_store_sweep_shows_decreasing_then_zero_slowdown(self, tiny_config):
        """The Figure 7(b) shape on the small platform."""
        estimator = UbdEstimator(
            tiny_config, instruction_type="store", iterations=15, auto_extend=False
        )
        lbus = tiny_config.bus_service_l2_hit
        ks = list(range(1, tiny_config.ubd + lbus + 4))
        points = estimator.sweep(ks)
        values = [point.dbus for point in points]
        assert values[0] > 0
        assert values[-1] == 0
        assert all(a >= b for a, b in zip(values, values[1:]))
