"""Property-based tests (hypothesis) for the analytical contention model."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.model import (
    gamma_of_delta,
    predicted_store_slowdown_per_request,
    synchrony_timeline,
    ubd_analytical,
)
from repro.analysis.sawtooth import SawtoothAnalyzer

ubds = st.integers(min_value=1, max_value=200)
deltas = st.integers(min_value=0, max_value=2000)
cores = st.integers(min_value=2, max_value=8)
lbuses = st.integers(min_value=1, max_value=20)


class TestGammaInvariants:
    @given(delta=deltas, ubd=ubds)
    def test_gamma_is_bounded_by_ubd(self, delta, ubd):
        assert 0 <= gamma_of_delta(delta, ubd) <= ubd

    @given(delta=deltas, ubd=ubds)
    def test_gamma_is_periodic_with_period_ubd(self, delta, ubd):
        assert gamma_of_delta(delta + ubd, ubd) == gamma_of_delta(max(delta, 1), ubd) or (
            # delta = 0 is the special saturated case: gamma(0) = ubd while
            # gamma(ubd) = 0, so periodicity only holds for delta >= 1.
            delta == 0
        )

    @given(delta=st.integers(min_value=1, max_value=2000), ubd=ubds)
    def test_gamma_never_reaches_ubd_for_positive_delta(self, delta, ubd):
        assert gamma_of_delta(delta, ubd) <= ubd - 1 or ubd == 1

    @given(ubd=ubds)
    def test_gamma_zero_delta_is_ubd(self, ubd):
        assert gamma_of_delta(0, ubd) == ubd

    @given(
        delta=st.integers(min_value=1, max_value=500),
        ubd=st.integers(min_value=2, max_value=100),
    )
    def test_gamma_plus_delta_offset_is_multiple_of_ubd(self, delta, ubd):
        """Within one round, waiting gamma cycles lands exactly on the next
        grant opportunity: (delta + gamma) is always a multiple of ubd."""
        gamma = gamma_of_delta(delta, ubd)
        assert (delta + gamma) % ubd == 0

    @given(cores=cores, lbus=lbuses)
    def test_equation1_scales_linearly(self, cores, lbus):
        assert ubd_analytical(cores, lbus) == (cores - 1) * lbus
        assert ubd_analytical(cores + 1, lbus) - ubd_analytical(cores, lbus) == lbus


class TestTimelineAgreesWithEquation2:
    @settings(max_examples=60, deadline=None)
    @given(
        cores=st.integers(min_value=2, max_value=6),
        lbus=st.integers(min_value=1, max_value=12),
        delta=st.integers(min_value=0, max_value=150),
    )
    def test_schedule_derivation_matches_closed_form(self, cores, lbus, delta):
        ubd = ubd_analytical(cores, lbus)
        timeline = synchrony_timeline(cores, lbus, delta, rounds=4)
        assert timeline["contention"] == gamma_of_delta(delta, ubd)


class TestStoreModelInvariants:
    @given(
        k=st.integers(min_value=0, max_value=200),
        cores=st.integers(min_value=2, max_value=6),
        lbus=lbuses,
        delta_rsk=st.integers(min_value=0, max_value=8),
    )
    def test_store_slowdown_nonnegative_and_bounded(self, k, cores, lbus, delta_rsk):
        ubd = ubd_analytical(cores, lbus)
        value = predicted_store_slowdown_per_request(k, ubd, lbus, delta_rsk)
        assert 0 <= value <= ubd

    @given(
        cores=st.integers(min_value=2, max_value=6),
        lbus=lbuses,
        delta_rsk=st.integers(min_value=0, max_value=8),
    )
    def test_store_slowdown_is_non_increasing_in_k(self, cores, lbus, delta_rsk):
        ubd = ubd_analytical(cores, lbus)
        # Sweep past the contended drain interval so the curve must reach zero.
        k_limit = ubd + lbus + 2
        values = [
            predicted_store_slowdown_per_request(k, ubd, lbus, delta_rsk)
            for k in range(0, k_limit)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0


class TestSawtoothDetectionRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        ubd=st.integers(min_value=2, max_value=40),
        delta_rsk=st.integers(min_value=1, max_value=6),
        requests=st.integers(min_value=10, max_value=500),
    )
    def test_detector_recovers_the_period_that_generated_the_series(self, ubd, delta_rsk, requests):
        """Generate dbus(k) from Equation 2 and check the analyzer recovers ubd
        regardless of the (hidden) injection time and scaling."""
        ks = list(range(1, 3 * ubd + 2))
        values = [gamma_of_delta(delta_rsk + k, ubd) * requests for k in ks]
        estimate = SawtoothAnalyzer(ks, values).estimate()
        assert estimate.period_k == ubd

    @settings(max_examples=25, deadline=None)
    @given(
        ubd=st.integers(min_value=3, max_value=40),
        delta_nop=st.integers(min_value=1, max_value=4),
    )
    def test_period_cycles_scale_with_delta_nop(self, ubd, delta_nop):
        """With a slower nop the sweep samples the saw-tooth coarsely; the
        period in k shrinks accordingly but converts back to the same cycles
        when ubd is a multiple of delta_nop (Section 4.2)."""
        effective_ubd = ubd * delta_nop
        ks = list(range(1, 3 * ubd + 2))
        values = [gamma_of_delta(1 + k * delta_nop, effective_ubd) * 100 for k in ks]
        estimate = SawtoothAnalyzer(ks, values).estimate(delta_nop=delta_nop)
        assert estimate.period_cycles == effective_ubd
