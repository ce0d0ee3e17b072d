"""Unit tests for the saw-tooth period detectors."""

from __future__ import annotations

import itertools
import math
import random
import statistics
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.model import ContentionModel, gamma_of_delta
from repro.analysis.sawtooth import SawtoothAnalyzer, _median
from repro.config import CacheConfig, L2Config, reference_config
from repro.errors import AnalysisError
from repro.methodology.ubd import UbdEstimator


def synthetic_dbus(ks, ubd, delta_rsk=1, requests=200, noise=0.0, seed=0):
    """Build the dbus(k) series Equation 2 predicts, optionally with noise."""
    rng = np.random.default_rng(seed)
    values = []
    for k in ks:
        value = gamma_of_delta(delta_rsk + k, ubd) * requests
        if noise:
            value += rng.normal(0.0, noise * requests)
        values.append(value)
    return values


class TestConstruction:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            SawtoothAnalyzer([1, 2, 3], [1.0, 2.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(AnalysisError):
            SawtoothAnalyzer([1, 2, 3], [1.0, 2.0, 3.0])

    def test_non_increasing_ks_rejected(self):
        with pytest.raises(AnalysisError):
            SawtoothAnalyzer([1, 3, 2, 4], [1.0, 2.0, 3.0, 4.0])

    def test_non_uniform_spacing_rejected(self):
        with pytest.raises(AnalysisError):
            SawtoothAnalyzer([1, 2, 4, 5], [1.0, 2.0, 3.0, 4.0])
        # The first step is the largest: every step must equal it.
        with pytest.raises(AnalysisError, match="uniformly spaced"):
            SawtoothAnalyzer([2, 4, 5, 6], [1.0, 2.0, 3.0, 4.0])

    def test_every_estimator_scales_by_the_k_spacing(self):
        """Periods are reported in k units: a sweep every third k triples them."""
        values = synthetic_dbus(list(range(1, 40)), ubd=9)
        unit = SawtoothAnalyzer(list(range(1, 40)), values)
        spaced = SawtoothAnalyzer(list(range(3, 120, 3)), values)
        assert spaced.spacing == 3
        assert per_method(spaced) == {name: 3 * period for name, period in per_method(unit).items()}

    def test_integer_values_analysed_like_floats(self):
        """Simulated dbus values are integer cycle counts."""
        ks = list(range(1, 60))
        floats = synthetic_dbus(ks, ubd=27)
        integers = [int(value) for value in floats]
        assert integers == floats
        assert per_method(SawtoothAnalyzer(ks, integers)) == per_method(SawtoothAnalyzer(ks, floats))


class TestExactDetector:
    def test_recovers_ubd_27(self):
        ks = list(range(1, 60))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        assert analyzer.period_exact() == 27

    @pytest.mark.parametrize("ubd", [3, 5, 9, 12, 27, 33])
    def test_recovers_arbitrary_periods(self, ubd):
        ks = list(range(1, 3 * ubd))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=ubd))
        assert analyzer.period_exact() == ubd

    def test_independent_of_delta_rsk(self):
        """The paper's key robustness claim: the period does not depend on delta_rsk."""
        ks = list(range(1, 70))
        for delta_rsk in (1, 2, 4, 7):
            analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27, delta_rsk=delta_rsk))
            assert analyzer.period_exact() == 27

    def test_returns_none_when_sweep_too_short(self):
        ks = list(range(1, 15))  # shorter than one ubd=27 period
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        assert analyzer.period_exact() is None

    def test_tolerates_small_noise(self):
        ks = list(range(1, 60))
        values = synthetic_dbus(ks, ubd=27, noise=0.002)
        analyzer = SawtoothAnalyzer(ks, values, relative_tolerance=0.05)
        assert analyzer.period_exact() == 27


class TestRobustDetectors:
    def test_rising_edges_recovers_period(self):
        ks = list(range(1, 85))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        assert analyzer.period_rising_edges() == 27

    def test_autocorrelation_recovers_period(self):
        ks = list(range(1, 85))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        assert analyzer.period_autocorrelation() == 27

    def test_constant_series_yields_no_period(self):
        ks = list(range(1, 20))
        analyzer = SawtoothAnalyzer(ks, [100.0] * len(ks))
        assert analyzer.period_rising_edges() is None
        assert analyzer.period_autocorrelation() is None

    def test_robust_detectors_survive_moderate_noise(self):
        ks = list(range(1, 110))
        values = synthetic_dbus(ks, ubd=27, noise=0.05, seed=3)
        analyzer = SawtoothAnalyzer(ks, values)
        assert analyzer.period_rising_edges() == 27

    def test_pure_tone_period_recovered_exactly(self):
        ks = list(range(1, 61))
        tone = [math.cos(2 * math.pi * t / 10) for t in range(60)]
        analyzer = SawtoothAnalyzer(ks, tone)
        assert analyzer.period_autocorrelation() == 10

    def test_single_step_has_no_repetition(self):
        """One upward jump is not a saw-tooth: no re-arming edge to pair it with."""
        ks = list(range(1, 21))
        analyzer = SawtoothAnalyzer(ks, [0] * 10 + [5] * 10)
        assert analyzer.period_exact() is None
        assert analyzer.period_rising_edges() is None
        assert analyzer.period_autocorrelation() is None

    def test_monotone_ramp_has_no_repetition(self):
        ks = list(range(1, 31))
        analyzer = SawtoothAnalyzer(ks, list(range(30)))
        assert analyzer.period_exact() is None
        assert analyzer.period_rising_edges() is None
        assert analyzer.period_autocorrelation() is None


class TestConsensus:
    def test_unanimous_estimators_give_the_period(self):
        ks = list(range(1, 60))
        estimate = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27)).estimate()
        assert estimate.period_k == 27
        assert estimate.per_method == {"exact": 27, "rising_edges": 27, "autocorrelation": 27}
        assert estimate.agreement == 1.0

    def test_estimate_converts_to_cycles_with_delta_nop(self):
        ks = list(range(1, 30))
        estimate = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=9)).estimate(delta_nop=2)
        assert estimate.period_k == 9
        assert estimate.period_cycles == 18

    def test_estimate_raises_when_nothing_found(self):
        ks = list(range(1, 10))
        analyzer = SawtoothAnalyzer(ks, [5.0] * 9)
        with pytest.raises(AnalysisError):
            analyzer.estimate()

    def test_estimate_rejects_bad_delta_nop(self):
        ks = list(range(1, 60))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        with pytest.raises(AnalysisError):
            analyzer.estimate(delta_nop=0)

    def test_summary_mentions_period_and_agreement(self):
        ks = list(range(1, 60))
        estimate = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27)).estimate()
        assert estimate.summary() == (
            "period=27 k-steps (27 cycles), agreement=100% "
            "[autocorrelation=27, exact=27, rising_edges=27]"
        )

    def test_estimate_on_small_platform_period(self):
        ks = list(range(1, 13))
        estimate = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=3)).estimate()
        assert estimate.period_k == 3

    def test_two_robust_estimators_carry_the_period_without_exact(self):
        ks = list(range(1, 110))
        values = synthetic_dbus(ks, ubd=27)
        values[4] += 0.05 * max(values)  # one outlier breaks every Equation 3 shift
        estimate = SawtoothAnalyzer(ks, values).estimate()
        assert estimate.per_method["exact"] is None
        assert estimate.period_k == 27
        # The failed exact estimator counts against agreement.
        assert estimate.agreement == pytest.approx(2 / 3)

    def test_a_single_answering_estimator_is_refused(self, monkeypatch):
        """One estimator alone never gives a period; the refusal names all
        three answers."""
        ks = list(range(1, 110))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        for method in ("period_exact", "period_rising_edges"):
            monkeypatch.setattr(analyzer, method, lambda: None)
        with pytest.raises(AnalysisError) as refusal:
            analyzer.estimate()
        assert str(refusal.value) == (
            "no two saw-tooth estimators agree within one step on a period of at least "
            "two steps (autocorrelation=27, exact=None, rising_edges=None)"
        )

    def test_two_estimators_outvote_exact(self):
        """Equation 3 gets no casting vote: where the other two agree on a
        period, its dissent only lowers agreement."""
        ks = list(range(1, 110))
        values = synthetic_dbus(ks, ubd=27)
        # A step beyond the tolerance that alternates every 27 k: the series
        # repeats exactly only every 54 k, the saw-tooth still every 27.
        bump = 0.05 * max(values)
        values = [value + (bump if (k - 1) % 54 < 27 else 0.0) for k, value in zip(ks, values)]
        estimate = SawtoothAnalyzer(ks, values).estimate()
        assert estimate.per_method == {"exact": 54, "rising_edges": 27, "autocorrelation": 27}
        assert estimate.period_k == 27
        assert estimate.agreement == pytest.approx(2 / 3)

    @pytest.mark.parametrize(
        "answers, period, agreement",
        [
            # Of two values one step apart the larger, which covers the other.
            ((27, 28, None), 28, 2 / 3),
            ((26, 27, 28), 28, 2 / 3),
            ((27, 27, 28), 28, 1.0),
            # Two agreeing pairs: the larger period.
            ((9, 10, 30), 10, 2 / 3),
            # Two steps apart is no agreement.
            ((25, 27, None), None, None),
            ((25, 27, 29), None, None),
            # A period of one step is never reported: Equation 3 returns it
            # on a monotone ramp.
            ((1, 1, None), None, None),
            ((1, 2, 2), 2, 1.0),
            ((None, None, None), None, None),
        ],
    )
    def test_the_largest_value_two_estimators_back(self, monkeypatch, answers, period, agreement):
        ks = list(range(1, 110))
        analyzer = SawtoothAnalyzer(ks, synthetic_dbus(ks, ubd=27))
        methods = ("period_exact", "period_rising_edges", "period_autocorrelation")
        for method, answer in zip(methods, answers):
            monkeypatch.setattr(analyzer, method, lambda answer=answer: answer)
        if period is None:
            with pytest.raises(AnalysisError, match="no two saw-tooth estimators agree"):
                analyzer.estimate()
        else:
            estimate = analyzer.estimate()
            assert estimate.period_k == period
            assert estimate.agreement == pytest.approx(agreement)

    def test_one_step_means_one_sweep_step(self, monkeypatch):
        """On a sweep every third k the estimators answer in k: 3 is one
        step, so never a period, and agrees within one step with 6."""
        analyzer = SawtoothAnalyzer(list(range(3, 300, 3)), [0.0, 1.0] * 49 + [0.0])
        for method, answer in (("period_exact", 3), ("period_rising_edges", 3)):
            monkeypatch.setattr(analyzer, method, lambda answer=answer: answer)
        monkeypatch.setattr(analyzer, "period_autocorrelation", lambda: 6)
        estimate = analyzer.estimate()
        assert estimate.period_k == 6
        assert estimate.agreement == pytest.approx(1.0)

    def test_a_monotone_ramp_is_refused(self):
        """k = 1..60 on eight cores is one falling flank: Equation 3 alone
        answers, with one step."""
        ks = list(range(1, 61))
        analyzer = SawtoothAnalyzer(ks, [4000 - 63 * k for k in ks])
        with pytest.raises(AnalysisError, match=r"\(autocorrelation=None, exact=1, "):
            analyzer.estimate()


# --------------------------------------------------------------------------- #
# The rule under measurement noise, on real sweeps.
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def real_sweeps() -> Dict[str, Tuple[int, List[int]]]:
    """Clean dbus(k) of ``ref`` (k = 1..80, ubd 27) and of ``ref`` with six
    cores (k = 1..120, ubd 45), at 10 iterations, with each platform's ubd."""
    six_cores = reference_config(
        num_cores=6,
        l2=L2Config(cache=CacheConfig(size_bytes=256 * 1024, ways=8, line_size=32, hit_latency=6)),
    )
    sweeps = {}
    for name, config, k_max in (("ref", reference_config(), 80), ("six_cores", six_cores, 120)):
        points = UbdEstimator(config, iterations=10).sweep(range(1, k_max + 1))
        sweeps[name] = (config.ubd, [point.dbus for point in points])
    return sweeps


def outcomes(ubd: int, series: Sequence[Sequence[float]]) -> Counter:
    """How many of ``series`` give ubd within one step, refuse, or give any
    other period (keyed ``"other <period>"``)."""
    counts: Counter = Counter()
    for values in series:
        try:
            period = SawtoothAnalyzer(range(1, len(values) + 1), values).estimate().period_k
        except AnalysisError:
            counts["refused"] += 1
            continue
        counts["ubd" if abs(period - ubd) <= 1 else f"other {period}"] += 1
    return counts


@pytest.mark.parametrize("name", ["ref", "six_cores"])
class TestNoise:
    """Perturbed copies of a real sweep give the platform's ubd within one
    step or a refusal, never another period.  Sigma and amplitudes are
    shares of the clean series' range.

    A spike every few k as tall as the whole saw-tooth is a saw-tooth of
    its own: there ``rising_edges`` and ``autocorrelation`` both follow the
    spike, so the spikes here stay at half the range."""

    @pytest.mark.parametrize("sigma", [0.02, 0.05, 0.1, 0.2, 0.3])
    def test_gaussian_noise(self, real_sweeps, name, sigma):
        ubd, clean = real_sweeps[name]
        spread = sigma * (max(clean) - min(clean))
        noisy = []
        for seed in range(60):
            rng = random.Random(seed)
            noisy.append([value + rng.gauss(0.0, spread) for value in clean])
        counts = outcomes(ubd, noisy)
        assert set(counts) <= {"ubd", "refused"}, counts
        if sigma <= 0.05:
            assert counts == {"ubd": 60}

    def test_one_outlier(self, real_sweeps, name):
        ubd, clean = real_sweeps[name]
        height = 1.5 * (max(clean) - min(clean))
        noisy = []
        for seed in range(60):
            rng = random.Random(seed)
            values = list(clean)
            values[rng.randrange(len(values))] += rng.choice((-height, height))
            noisy.append(values)
        assert set(outcomes(ubd, noisy)) <= {"ubd", "refused"}

    @pytest.mark.parametrize("every", [7, 10, 16, 30])
    def test_periodic_spike(self, real_sweeps, name, every):
        ubd, clean = real_sweeps[name]
        height = 0.5 * (max(clean) - min(clean))
        noisy = [
            [value + height * (index % every == offset) for index, value in enumerate(clean)]
            for offset in range(every)
        ]
        counts = outcomes(ubd, noisy)
        assert set(counts) <= {"ubd", "refused"}, counts


# --------------------------------------------------------------------------- #
# Differential check against the numpy estimators the module replaced.
# --------------------------------------------------------------------------- #


class NumpySawtoothAnalyzer:
    """The numpy implementation of the three estimators (reference oracle)."""

    def __init__(
        self,
        ks: Sequence[int],
        values: Sequence[float],
        relative_tolerance: float = 0.02,
    ) -> None:
        if len(ks) != len(values):
            raise AnalysisError(
                f"ks and values have different lengths ({len(ks)} vs {len(values)})"
            )
        if len(ks) < 4:
            raise AnalysisError("need at least four sweep points to detect a period")
        k_array = np.asarray(ks, dtype=np.int64)
        spacing = np.diff(k_array)
        if np.any(spacing <= 0):
            raise AnalysisError("ks must be strictly increasing")
        if np.any(spacing != spacing[0]):
            raise AnalysisError("ks must be uniformly spaced")
        self.ks = k_array
        self.spacing = int(spacing[0])
        self.values = np.asarray(values, dtype=np.float64)
        self.relative_tolerance = relative_tolerance

    def period_exact(self) -> Optional[int]:
        """Equation 3: smallest shift that leaves the series unchanged."""
        n = len(self.values)
        scale = max(1.0, float(np.max(np.abs(self.values))))
        tolerance = self.relative_tolerance * scale
        span = float(np.max(self.values) - np.min(self.values))
        if span <= tolerance:
            # A (nearly) constant series carries no saw-tooth information: the
            # sweep did not modulate the contention at all.
            return None
        for lag in range(1, n // 2 + 1):
            left = self.values[: n - lag]
            right = self.values[lag:]
            if np.all(np.abs(left - right) <= tolerance):
                return lag * self.spacing
        return None

    def period_rising_edges(self) -> Optional[int]:
        """Median spacing between the saw-tooth's upward re-arming jumps."""
        diffs = np.diff(self.values)
        if len(diffs) == 0:
            return None
        span = float(np.max(self.values) - np.min(self.values))
        if span <= 0:
            return None
        threshold = 0.5 * span
        edges = np.nonzero(diffs > threshold)[0]
        if len(edges) < 2:
            return None
        spacings = np.diff(edges)
        return int(round(float(np.median(spacings)))) * self.spacing

    def period_autocorrelation(self) -> Optional[int]:
        """Lag of the first dominant autocorrelation peak of the detrended series."""
        series = self.values - np.mean(self.values)
        if np.allclose(series, 0.0):
            return None
        n = len(series)
        correlation = np.correlate(series, series, mode="full")[n - 1 :]
        if correlation[0] <= 0:
            return None
        correlation = correlation / correlation[0]
        best_lag: Optional[int] = None
        best_value = 0.35  # minimum correlation considered a real repetition
        for lag in range(2, n // 2 + 1):
            value = correlation[lag]
            is_peak = (
                correlation[lag - 1] < value
                and (lag + 1 >= len(correlation) or value >= correlation[lag + 1])
            )
            if is_peak and value > best_value:
                best_lag = lag
                best_value = value
                break
        if best_lag is None:
            return None
        return best_lag * self.spacing


def per_method(analyzer) -> Dict[str, Optional[int]]:
    return {
        "exact": analyzer.period_exact(),
        "rising_edges": analyzer.period_rising_edges(),
        "autocorrelation": analyzer.period_autocorrelation(),
    }


def reference_periods(values: Sequence[float]) -> Dict[str, Optional[int]]:
    """The numpy reference's periods, where numpy's answer is not rounding noise.

    When a peak test the autocorrelation estimator evaluates compares equal
    quantities (neighbouring lags, or a lag and the 0.35 threshold), numpy's
    decision follows the rounding of BLAS rather than the data.  Either
    answer is then a valid reading, so that method is left out.
    """
    reference = NumpySawtoothAnalyzer(list(range(1, len(values) + 1)), values)
    periods = per_method(reference)
    series = reference.values - np.mean(reference.values)
    if np.allclose(series, 0.0):
        return periods
    correlation = np.correlate(series, series, mode="full")[len(series) - 1 :]
    correlation = correlation / correlation[0]
    lags = np.arange(2, (periods["autocorrelation"] or len(series) // 2) + 1)
    margins = np.abs(
        np.concatenate(
            [
                correlation[lags] - 0.35,
                correlation[lags] - correlation[lags - 1],
                correlation[lags] - correlation[lags + 1],
            ]
        )
    )
    if margins.min() < 1e-12:
        del periods["autocorrelation"]
    return periods


def assert_matches_reference(values: Sequence[float]) -> None:
    expected = reference_periods(values)
    actual = per_method(SawtoothAnalyzer(list(range(1, len(values) + 1)), values))
    assert {name: actual[name] for name in expected} == expected


def model_sweeps() -> List[List[int]]:
    """Load and store dbus(k) sweeps of the analytical model.

    The platforms take turns at the sweep lengths the CLI analyses (the
    CI audit's 14 points, then 60 doubling up to the 400-point cap).  Store
    sweeps of the smallest platforms are a single impulse.
    """
    lengths = itertools.cycle((14, 60, 120, 240, 400))
    sweeps = []
    for num_cores in range(2, 9):
        for lbus in range(2, 12):
            for delta_rsk in range(0, 5):
                model = ContentionModel(num_cores, lbus, delta_rsk=delta_rsk)
                ks = list(range(1, next(lengths) + 1))
                sweeps.append(model.dbus_curve(ks, requests=40))
                sweeps.append(model.store_dbus_curve(ks, requests=1 + delta_rsk))
    return sweeps


class TestNumpyReference:
    def test_contention_model_sweeps(self):
        for values in model_sweeps():
            assert_matches_reference(values)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(-(10**6), 10**6), min_size=4, max_size=400))
    def test_integer_series(self, values):
        assert_matches_reference(values)

    @settings(max_examples=200, deadline=None)
    @given(
        # Bounded like measured cycle counts; the estimators do not promise
        # numpy's inf/nan results on overflowing sums.
        values=st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=4, max_size=400)
    )
    def test_float_series(self, values):
        assert_matches_reference(values)

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.integers(-50, 50),
        steps=st.lists(st.integers(1, 6), min_size=3, max_size=60).filter(
            lambda steps: len(set(steps)) > 1
        ),
        largest_first=st.booleans(),
    )
    def test_non_uniform_spacing_refused_like_the_reference(self, start, steps, largest_first):
        """Both analyzers refuse a k series with two different steps, also
        when its first step is the largest."""
        if largest_first:
            steps.insert(0, steps.pop(steps.index(max(steps))))
        ks = list(itertools.accumulate(steps, initial=start))
        values = [float(k % 7) for k in ks]
        for analyzer in (SawtoothAnalyzer, NumpySawtoothAnalyzer):
            with pytest.raises(AnalysisError, match="uniformly spaced"):
                analyzer(ks, values)


class TestStatisticsEquivalents:
    """The analyzer's median and mean are those of :mod:`statistics`, which
    it does not import."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=60))
    @example(values=[3])
    @example(values=[1, 2])
    def test_median_of_integers(self, values):
        assert _median(values) == statistics.median(values)
        assert type(_median(values)) is type(statistics.median(values))

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=60))
    @example(values=[0.5])
    @example(values=[0.1, 0.2])
    def test_median_of_floats(self, values):
        assert _median(values) == statistics.median(values)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.integers(-(10**6), 10**6), min_size=4, max_size=60),
            st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=4, max_size=60),
        )
    )
    @example(values=[0.1, 0.2, 0.3, 0.4, 0.5])
    def test_detrending_subtracts_the_fmean(self, values):
        mean = statistics.fmean(values)
        series = [float(value) - mean for value in values]
        expected = None if all(abs(value) <= 1e-8 for value in series) else series
        ks = list(range(1, len(values) + 1))
        assert SawtoothAnalyzer(ks, values)._detrended() == expected
