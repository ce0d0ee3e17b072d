"""Unit tests for the rsk-nop methodology (UbdEstimator)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.sawtooth import PeriodEstimate, SawtoothAnalyzer
from repro.config import SAWTOOTH, BusConfig, admissibility, get_preset, small_config
from repro.errors import AnalysisError, MethodologyError
import repro.methodology.ubd as ubd_module
from repro.methodology.ubd import MeasuredBoundPipeline, SweepPoint, UbdEstimator
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

    def test_observed_floor_reads_the_sweeps_own_bus_waits(self, small_result):
        """Every contended run records the bus's worst grant wait; over the
        sweep that reaches the analytical ubd, which ubdm must cover."""
        config, result = small_result
        assert max(point.bus_max_wait for point in result.points) == config.ubd
        (floor,) = [c for c in result.confidence.checks if c.name == "observed_floor"]
        assert floor.passed


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
    def test_no_consensus_at_the_search_limit_is_refused(self):
        """k = 1..24 holds one and a half periods of 16: no estimator
        answers, and the sweep refuses at the limit with all three
        answers."""
        estimator = UbdEstimator(small_config(), k_max=12, iterations=5)
        with pytest.raises(AnalysisError) as refusal:
            estimator.run()
        assert str(refusal.value) == (
            "the sweep reached the search limit of 24 at k = 1..24, where no two "
            "saw-tooth estimators agree within one step on a period of at least two "
            "steps (autocorrelation=None, exact=None, rising_edges=None); no bound "
            "is reported"
        )

    @pytest.fixture
    def rising_edges_one_step_long(self, monkeypatch, stub_sweep):
        """Over a stubbed saw-tooth of period 16 with the limit at 32,
        ``rising_edges`` answers 17: it agrees with the other two within one
        step, so the consensus is 17, which k = 1..32 does not cover twice."""
        measured = stub_sweep(lambda k: 100 * (16 - (k - 1) % 16))
        monkeypatch.setattr(SawtoothAnalyzer, "period_rising_edges", lambda analyzer: 17)
        monkeypatch.setattr("repro.methodology.ubd.MAX_K_LIMIT", 32)
        return measured

    def test_period_not_covered_twice_at_the_search_limit_is_refused(
        self, rising_edges_one_step_long
    ):
        estimator = UbdEstimator(small_config(), k_max=8, iterations=5)
        with pytest.raises(AnalysisError) as refusal:
            estimator.run()
        assert str(refusal.value) == (
            "the sweep reached the search limit of 32 at k = 1..32, where the period of "
            "17 k-steps is not covered twice; no bound is reported"
        )
        assert rising_edges_one_step_long == list(range(1, 33))

    @pytest.mark.usefixtures("sweep_capped_before_two_periods")
    def test_budgeted_sweep_without_consensus_is_refused(self):
        """With ``auto_extend=False`` the sweep is a fixed budget (the audit's
        standalone sweep, Figures 7(a)/7(b)); one with no consensus is
        refused with the estimators' answers."""
        estimator = UbdEstimator(small_config(), k_max=24, iterations=5, auto_extend=False)
        with pytest.raises(AnalysisError) as refusal:
            estimator.run()
        assert str(refusal.value) == (
            "the sweep reached its budget at k = 1..24, where no two saw-tooth estimators "
            "agree within one step on a period of at least two steps (autocorrelation=None, "
            "exact=None, rising_edges=None); no bound is reported"
        )

    def test_budgeted_sweep_reports_an_uncovered_period_as_failed_coverage(
        self, rising_edges_one_step_long
    ):
        """A consensus the budget does not cover twice is reported, and the
        confidence checks flag it instead of a refusal."""
        result = UbdEstimator(small_config(), k_max=32, iterations=5, auto_extend=False).run()
        assert result.ubdm == 17
        assert result.period.agreement == 1.0
        assert [check.name for check in result.confidence.failed_checks()] == ["sweep_coverage"]

    def test_bound_below_an_observed_bus_wait_fails_the_observed_floor(self, stub_sweep):
        """A saw-tooth of period 16 whose contended runs saw a 20-cycle bus
        wait prints ubdm 16 with the observed floor failing."""
        stub_sweep(lambda k: 100 * (16 - (k - 1) % 16), bus_max_wait=20)
        result = UbdEstimator(small_config(), k_max=40, iterations=5).run()
        assert result.ubdm == 16
        assert [check.name for check in result.confidence.failed_checks()] == ["observed_floor"]

    def test_sweep_settled_at_zero_is_refused_before_extending(self, stub_sweep):
        """The store-buffer shape of Figure 7(b): a falling flank, then zero
        for good.  Extending only adds zeros, so the sweep refuses with the
        first zero k instead of running to the search limit."""
        measured = stub_sweep(lambda k: max(0, 400 * (9 - k)))
        estimator = UbdEstimator(small_config(), k_max=12, iterations=5)
        with pytest.raises(AnalysisError, match=r"0 from k = 9 on: .*Figure 7\(b\)"):
            estimator.run()
        assert max(measured) == 12

    def test_single_zero_at_the_sweep_end_still_extends(self, stub_sweep):
        """One zero is not a settled tail: a saw-tooth touches zero once per
        period and rises right after."""
        measured = stub_sweep(lambda k: max(0, 400 * (12 - k)))
        estimator = UbdEstimator(small_config(), k_max=12, iterations=5)
        with pytest.raises(AnalysisError, match="0 from k = 12 on"):
            estimator.run()
        assert max(measured) == 24

    def test_only_a_flank_ending_in_two_zeros_has_settled(self):
        from repro.methodology.ubd import settled_at_zero

        def points(values):
            return [
                SweepPoint(
                    k=k,
                    isolation_time=1,
                    contended_time=1 + dbus,
                    dbus=dbus,
                    bus_utilisation=1.0,
                    requests=1,
                    bus_max_wait=0,
                )
                for k, dbus in enumerate(values, 1)
            ]

        assert settled_at_zero(points([49, 0, 1274, 0, 0])) is None
        assert settled_at_zero(points([5, 3, 0])) is None
        assert settled_at_zero(points([5, 5, 0, 0])) == 3
        assert settled_at_zero(points([0, 0])) == 1

    def test_tdma_bus_is_refused_before_any_simulation(self, monkeypatch):
        """No sweep can find a fair round on a TDMA bus, so the estimator
        refuses up front instead of sweeping to the search limit."""
        runs = []
        monkeypatch.setattr(System, "run", lambda *args, **kwargs: runs.append(args))
        config = small_config(bus=BusConfig(arbitration="tdma", transfer_latency=1))
        with pytest.raises(MethodologyError, match="no fair round"):
            UbdEstimator(config, k_max=4, iterations=10).run()
        assert runs == []

    def test_fixed_priority_bus_is_refused_before_any_simulation(self, monkeypatch):
        """A fixed-priority bus serves each core by its priority, not in fair
        rounds: a sweep there finds a period below ubd with every confidence
        check passing, so the estimator refuses up front instead."""

        def simulate(*args, **kwargs):
            raise AssertionError("the estimator simulated a fixed-priority platform")

        monkeypatch.setattr(System, "run", simulate)
        config = small_config(bus=BusConfig(arbitration="fixed_priority", transfer_latency=1))
        with pytest.raises(MethodologyError, match="fixed-priority bus has no fair round"):
            UbdEstimator(config, k_max=4, iterations=10).run()

    @pytest.mark.parametrize("preset", ["ref", "var", "small", "split_bus"])
    def test_fixed_priority_refusal_names_the_platform(self, preset, monkeypatch):
        """The refusal reads the bus policy alone: each preset's platform on
        a fixed-priority bus is refused under its own name, with the
        estimator's default sweep, before any simulation."""

        def simulate(*args, **kwargs):
            raise AssertionError(f"the estimator simulated {preset} on a fixed-priority bus")

        monkeypatch.setattr(System, "run", simulate)
        config = get_preset(preset)
        config = replace(config, bus=replace(config.bus, arbitration="fixed_priority"))
        with pytest.raises(MethodologyError) as refusal:
            UbdEstimator(config).run()
        assert str(refusal.value) == f"{config.name}: {admissibility(config)[SAWTOOTH]}"
        assert "fixed-priority bus has no fair round" in str(refusal.value)

    @pytest.mark.parametrize("preset", ["ref", "var", "small", "split_bus"])
    def test_fifo_bus_is_refused_before_any_simulation(self, preset, monkeypatch):
        """A FIFO bus serves in ready order, so dbus(k) repeats with one bus
        occupancy (ubdm 9 against ubd 27 on ref): the estimator refuses each
        preset up front and names the command that measures that bus."""

        def simulate(*args, **kwargs):
            raise AssertionError(f"the estimator simulated {preset} on a FIFO bus")

        monkeypatch.setattr(System, "run", simulate)
        config = get_preset(preset)
        config = replace(config, bus=replace(config.bus, arbitration="fifo"))
        with pytest.raises(MethodologyError) as refusal:
            UbdEstimator(config).run()
        assert str(refusal.value) == f"{config.name}: {admissibility(config)[SAWTOOTH]}"
        assert "not round-robin" in str(refusal.value)
        assert "derive-ubd --per-resource" in str(refusal.value)

    def test_round_robin_bus_reaches_the_sweep(self, monkeypatch):
        """Only a round-robin bus is admitted: there the estimator goes on
        to measure delta_nop, its first simulation."""

        class Measured(Exception):
            pass

        def derive_delta_nop(config, **kwargs):
            raise Measured(config.bus.arbitration)

        monkeypatch.setattr(ubd_module, "derive_delta_nop", derive_delta_nop)
        config = small_config(bus=BusConfig(arbitration="round_robin", transfer_latency=1))
        with pytest.raises(Measured, match="round_robin"):
            UbdEstimator(config, k_max=4, iterations=10).run()

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


class TestIl1Wall:
    """From k = 85 the rsk-nop body (3 (k + 1) instructions of 4 B) outgrows
    small's 1 KB IL1 of 32 lines: its fetches would reach the bus every
    iteration, so no sweep or extension reaching such a k is simulated."""

    def test_a_sweep_past_the_il1_is_refused_before_any_simulation(self, monkeypatch):
        def simulate(*args, **kwargs):
            raise AssertionError("the estimator simulated a sweep past the IL1")

        monkeypatch.setattr(System, "run", simulate)
        with pytest.raises(MethodologyError) as refusal:
            UbdEstimator(small_config(), k_max=100, iterations=3).run()
        assert str(refusal.value) == (
            "small: the sweep reaches k = 100, where the rsk-nop's 38 code lines do "
            "not fit the scua core's IL1 of 32 lines (2 per set): every iteration "
            "would fetch its code over the bus, and dbus(k) would measure those "
            "fetches; lower --k-max"
        )

    def test_an_explicit_sweep_past_the_il1_names_its_largest_k(self, stub_sweep):
        measured = stub_sweep(lambda k: 0)
        with pytest.raises(MethodologyError) as refusal:
            UbdEstimator(small_config(), k_values=[1, 2, 3, 90], iterations=3).run()
        assert str(refusal.value).endswith(
            "; drop k = 90 and every other k value the IL1 cannot hold from k_values"
        )
        assert measured == []

    @pytest.mark.parametrize("k_max, refused", [(84, False), (85, True)])
    def test_the_wall_is_where_the_code_outgrows_the_il1(self, stub_sweep, k_max, refused):
        measured = stub_sweep(lambda k: 100 * (6 - (k - 1) % 6))
        estimator = UbdEstimator(small_config(), k_max=k_max, iterations=3)
        if refused:
            with pytest.raises(MethodologyError, match="k = 85, where the rsk-nop's 33 code"):
                estimator.run()
        else:
            assert estimator.run().ubdm == 6
        assert measured == ([] if refused else list(range(1, 85)))

    def test_an_extension_past_the_il1_is_refused_before_simulating_it(self, stub_sweep):
        """A period of 40 k-steps, not covered twice by k = 1..60, asks for
        k = 61..120, past the wall."""
        measured = stub_sweep(lambda k: 100 * (40 - (k - 1) % 40))
        with pytest.raises(MethodologyError, match="auto-extension reaches k = 120, where"):
            UbdEstimator(small_config(), k_max=60, iterations=3).run()
        assert measured == list(range(1, 61))

    @pytest.mark.parametrize("preset", ["ref", "var", "split_bus", "multi_resource"])
    def test_a_16_kb_il1_holds_every_k_up_to_the_search_limit(self, preset):
        config = get_preset(preset)
        for kind in ("load", "store"):
            estimator = UbdEstimator(config, instruction_type=kind)
            estimator._require_il1_fit(ubd_module.MAX_K_LIMIT, "the sweep", "")


class TestExplicitSweep:
    """An explicit sweep steps k by 1.  A larger step measures the period
    only when it divides ubd, the unknown the sweep is there to find, so any
    other sweep is refused before anything is simulated."""

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def simulate(*args, **kwargs):
            raise AssertionError("the estimator simulated a non-consecutive sweep")

        monkeypatch.setattr(System, "run", simulate)

    @pytest.mark.parametrize(
        "preset, k_values, gap",
        [
            # Extended in unit steps, the mixed series reads as step 2: ubdm 12, ubd 6.
            ("small", range(2, 14, 2), "k = 2 to k = 4"),
            # Uniform, but step 2 does not divide ubd 27: ubdm 26.
            ("ref", range(2, 62, 2), "k = 2 to k = 4"),
            # No period before the search limit, after 386 simulated points.
            ("ref", [1, 2, 3, 5, 8, 13, 21], "k = 3 to k = 5"),
            ("small", [4, 3, 2, 1], "k = 4 to k = 3"),
        ],
    )
    def test_a_gap_is_refused_before_any_simulation(self, no_simulation, preset, k_values, gap):
        estimator = UbdEstimator(get_preset(preset), k_values=k_values, iterations=3)
        with pytest.raises(MethodologyError, match=f"^{preset}: k_values jumps from {gap}: "):
            estimator.run()

    def test_the_pipeline_refuses_the_same_sweep(self, no_simulation):
        pipeline = MeasuredBoundPipeline(small_config(), k_values=range(2, 14, 2), iterations=3)
        with pytest.raises(MethodologyError, match="k_values jumps from k = 2 to k = 4"):
            pipeline.run()

    def test_a_consecutive_sweep_is_measured_as_given(self, stub_sweep):
        measured = stub_sweep(lambda k: 100 * (6 - (k - 1) % 6))
        result = UbdEstimator(small_config(), k_values=range(3, 20), iterations=3).run()
        assert result.ubdm == 6
        assert measured == list(range(3, 20))


class TestStoreVariant:
    def test_store_sweep_is_refused_once_settled_at_zero(self, tiny_config):
        estimator = UbdEstimator(tiny_config, instruction_type="store", k_max=12, iterations=5)
        with pytest.raises(AnalysisError, match="never rises over k = 1..12"):
            estimator.run()

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
