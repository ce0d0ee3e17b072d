"""Saw-tooth period detection: recovering ``ubd`` from ``dbus(k)``.

The heart of the methodology (Section 4.2): the execution-time increase
``dbus(t, k)`` of ``rsk-nop(t, k)`` run against ``Nc - 1`` rsk contenders is
periodic in ``k`` and its period — converted to cycles through ``delta_nop``
— *is* the upper-bound delay ``ubd``, independently of the unknown baseline
injection time ``delta_rsk``.

Equation 3 defines the period through exact equality of ``dbus`` values.  On
a simulator that works verbatim; on noisy measurements it does not, so this
module implements several estimators and a consensus wrapper:

* :meth:`SawtoothAnalyzer.period_exact` — Equation 3 with a tolerance;
* :meth:`SawtoothAnalyzer.period_rising_edges` — the saw-tooth re-arms with a
  large upward jump once per period; the median spacing of those jumps is the
  period;
* :meth:`SawtoothAnalyzer.period_autocorrelation` — lag of the first dominant
  peak of the autocorrelation of the detrended series;
* :meth:`SawtoothAnalyzer.period_fft` — inverse of the dominant non-DC
  frequency of the detrended series.

A sweep holds at most a few hundred points, so the estimators work on plain
Python numbers with :mod:`math` and :mod:`cmath`: the autocorrelation is a
direct sum per lag and the spectrum a direct DFT over the non-DC bins.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Optional, Sequence, TypeVar

from ..errors import AnalysisError

#: Spectrum magnitudes within this relative distance of the largest one tie
#: and the lowest tied frequency is dominant, so a flat spectrum (a single
#: impulse in the sweep) resolves to the full span, not to rounding noise.
_FFT_TIE_TOLERANCE = 1e-9

_Number = TypeVar("_Number", int, float)


@dataclass(frozen=True)
class PeriodEstimate:
    """Result of the saw-tooth analysis.

    Attributes:
        period_k: consensus period expressed in nop-count steps.
        period_cycles: the period converted to cycles (``period_k *
            delta_nop``) — this is ``ubdm``.
        per_method: period (in ``k`` steps) reported by each estimator;
            ``None`` when an estimator could not produce a value.
        agreement: fraction of *all* estimators that agree with the
            consensus (1.0 means unanimous); an estimator that found no
            period counts against it.
        delta_nop: cycles per nop used for the conversion.
    """

    period_k: int
    period_cycles: int
    per_method: Dict[str, Optional[int]]
    agreement: float
    delta_nop: int = 1

    def summary(self) -> str:
        """One-line human readable summary."""
        methods = ", ".join(f"{name}={value}" for name, value in sorted(self.per_method.items()))
        return (
            f"period={self.period_k} k-steps ({self.period_cycles} cycles), "
            f"agreement={self.agreement:.0%} [{methods}]"
        )


class SawtoothAnalyzer:
    """Analyses one ``dbus(k)`` series.

    Args:
        ks: the swept nop counts (must be strictly increasing with every
            step equal; a step larger than 1 is allowed and accounted for).
        values: measured ``dbus`` for each ``k`` (same length as ``ks``).
        relative_tolerance: tolerance used when comparing two ``dbus`` values
            for "equality" in the Equation 3 estimator.
    """

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
        self.ks = [int(k) for k in ks]
        spacing = _diff(self.ks)
        if min(spacing) <= 0:
            raise AnalysisError("ks must be strictly increasing")
        if min(spacing) != max(spacing):
            raise AnalysisError("ks must be uniformly spaced")
        self.spacing = spacing[0]
        self.values = [float(value) for value in values]
        self.relative_tolerance = relative_tolerance

    # ------------------------------------------------------------------ #
    # Individual estimators (periods returned in k units, not samples).
    # ------------------------------------------------------------------ #
    def period_exact(self) -> Optional[int]:
        """Equation 3: smallest shift that leaves the series unchanged."""
        values = self.values
        tolerance = self.relative_tolerance * max(1.0, max(map(abs, values)))
        if max(values) - min(values) <= tolerance:
            # A (nearly) constant series carries no saw-tooth information: the
            # sweep did not modulate the contention at all.
            return None
        for lag in range(1, len(values) // 2 + 1):
            if all(abs(left - right) <= tolerance for left, right in zip(values, values[lag:])):
                return lag * self.spacing
        return None

    def period_rising_edges(self) -> Optional[int]:
        """Median spacing between the saw-tooth's upward re-arming jumps."""
        span = max(self.values) - min(self.values)
        if span <= 0:
            return None
        threshold = 0.5 * span
        edges = [index for index, step in enumerate(_diff(self.values)) if step > threshold]
        if len(edges) < 2:
            return None
        return int(round(_median(_diff(edges)))) * self.spacing

    def period_autocorrelation(self) -> Optional[int]:
        """Lag of the first dominant autocorrelation peak of the detrended series."""
        series = self._detrended()
        if series is None:
            return None
        # fsum rounds each lag's sum once, so neighbouring lags compare the
        # same on every interpreter.
        energy = math.fsum(map(mul, series, series))
        if energy <= 0:
            return None

        def correlation(lag: int) -> float:
            return math.fsum(map(mul, series, series[lag:])) / energy

        previous, value = correlation(1), correlation(2)
        for lag in range(2, len(series) // 2 + 1):
            following = correlation(lag + 1)
            # 0.35 is the minimum correlation considered a real repetition.
            if previous < value >= following and value > 0.35:
                return lag * self.spacing
            previous, value = value, following
        return None

    def period_fft(self) -> Optional[int]:
        """Period derived from the dominant non-DC Fourier component."""
        series = self._detrended()
        if series is None:
            return None
        n = len(series)
        # Bin f sums series[t] * w**(f * t) with w = exp(-2 pi i / n), so
        # multiplying the previous bin's terms by w**t steps to the next bin.
        twiddles = [cmath.exp(-2j * math.pi * t / n) for t in range(n)]
        terms: Sequence[complex] = series
        magnitudes = []
        for _ in range(n // 2):
            terms = list(map(mul, terms, twiddles))
            magnitudes.append(abs(sum(terms)))
        # Rounding (summation order, the twiddle walk) moves a magnitude by
        # far less than the tie band, which resolves to the lowest frequency.
        floor = max(magnitudes) * (1.0 - _FFT_TIE_TOLERANCE)
        dominant = next(
            frequency
            for frequency, magnitude in enumerate(magnitudes, start=1)
            if magnitude >= floor
        )
        return int(round(n / dominant)) * self.spacing

    def _detrended(self) -> Optional[List[float]]:
        """The series minus its mean; ``None`` when it is (nearly) constant."""
        mean = math.fsum(self.values) / len(self.values)
        series = [value - mean for value in self.values]
        if all(abs(value) <= 1e-8 for value in series):
            return None
        return series

    # ------------------------------------------------------------------ #
    # Consensus.
    # ------------------------------------------------------------------ #
    def estimate(self, delta_nop: int = 1) -> PeriodEstimate:
        """Combine the estimators into one consensus period.

        The Equation 3 estimator is used as the consensus when it succeeds
        (it is the paper's definition); otherwise the median of the
        successful robust estimators is used.  ``agreement`` reports the
        share of the four estimators that land within one sweep step of the
        consensus; one that returned ``None`` counts as disagreeing.
        """
        if delta_nop < 1:
            raise AnalysisError(f"delta_nop must be >= 1, got {delta_nop}")
        per_method: Dict[str, Optional[int]] = {
            "exact": self.period_exact(),
            "rising_edges": self.period_rising_edges(),
            "autocorrelation": self.period_autocorrelation(),
            "fft": self.period_fft(),
        }
        successful = [value for value in per_method.values() if value is not None]
        if not successful:
            raise AnalysisError(
                "no estimator could find a saw-tooth period; the k sweep probably "
                "does not cover a full period — extend the sweep range"
            )
        exact = per_method["exact"]
        consensus = exact if exact is not None else int(_median(successful))
        agreeing = sum(1 for value in successful if abs(value - consensus) <= self.spacing)
        agreement = agreeing / len(per_method)
        return PeriodEstimate(
            period_k=consensus,
            period_cycles=consensus * delta_nop,
            per_method=per_method,
            agreement=agreement,
            delta_nop=delta_nop,
        )


def _diff(values: Sequence[_Number]) -> List[_Number]:
    """Differences of consecutive elements."""
    return [right - left for left, right in zip(values, values[1:])]


def _median(values: Sequence[_Number]) -> float:
    """The median of a non-empty sequence, as :func:`statistics.median`
    computes it: the middle element, or the mean of the two middle ones."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2
