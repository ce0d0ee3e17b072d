"""Saw-tooth period detection: recovering ``ubd`` from ``dbus(k)``.

The heart of the methodology (Section 4.2): the execution-time increase
``dbus(t, k)`` of ``rsk-nop(t, k)`` run against ``Nc - 1`` rsk contenders is
periodic in ``k`` and its period — converted to cycles through ``delta_nop``
— *is* the upper-bound delay ``ubd``, independently of the unknown baseline
injection time ``delta_rsk``.

Equation 3 defines the period through exact equality of ``dbus`` values.  On
a simulator that works verbatim; on noisy measurements it does not, so this
module implements three estimators and one rule that combines them:

* :meth:`SawtoothAnalyzer.period_exact` — Equation 3 with a tolerance;
* :meth:`SawtoothAnalyzer.period_rising_edges` — the saw-tooth re-arms with a
  large upward jump once per period; the median spacing of those jumps is the
  period;
* :meth:`SawtoothAnalyzer.period_autocorrelation` — lag of the first dominant
  peak of the autocorrelation of the detrended series.

:meth:`SawtoothAnalyzer.estimate` reports the largest value of at least two
sweep steps on which two of the three agree within one step, and refuses
otherwise.  No estimator has a casting vote: each can answer alone with a
wrong period (``exact`` answers one step on a monotone ramp).

A sweep holds at most a few hundred points, so the estimators work on plain
Python numbers with :mod:`math`: the autocorrelation is a direct sum per lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Optional, Sequence, TypeVar

from ..errors import AnalysisError

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
        agreement: share of the three estimators within one sweep step of
            the period (at least two of three by the rule that chose it);
            an estimator that found no period counts against it.
        delta_nop: cycles per nop used for the conversion.
    """

    period_k: int
    period_cycles: int
    per_method: Dict[str, Optional[int]]
    agreement: float
    delta_nop: int = 1

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"period={self.period_k} k-steps ({self.period_cycles} cycles), "
            f"agreement={self.agreement:.0%} [{_answers(self.per_method)}]"
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
        """The saw-tooth period: the largest value of at least two sweep
        steps on which at least two of the three estimators agree within one
        step.

        Of two agreeing values one step apart the larger is taken, which
        keeps ``ubdm`` on the covering side.  Raises
        :class:`~repro.errors.AnalysisError`, naming each estimator's answer,
        when no value has two backers.
        """
        if delta_nop < 1:
            raise AnalysisError(f"delta_nop must be >= 1, got {delta_nop}")
        per_method: Dict[str, Optional[int]] = {
            "exact": self.period_exact(),
            "rising_edges": self.period_rising_edges(),
            "autocorrelation": self.period_autocorrelation(),
        }
        answers = [value for value in per_method.values() if value is not None]

        def backers(value: int) -> int:
            return sum(1 for other in answers if abs(other - value) <= self.spacing)

        agreed = [value for value in answers if value >= 2 * self.spacing and backers(value) >= 2]
        if not agreed:
            raise AnalysisError(
                "no two saw-tooth estimators agree within one step on a period of at "
                f"least two steps ({_answers(per_method)})"
            )
        period = max(agreed)
        return PeriodEstimate(
            period_k=period,
            period_cycles=period * delta_nop,
            per_method=per_method,
            agreement=backers(period) / len(per_method),
            delta_nop=delta_nop,
        )


def _answers(per_method: Dict[str, Optional[int]]) -> str:
    """Each estimator's answer, as ``name=value`` in name order."""
    return ", ".join(f"{name}={value}" for name, value in sorted(per_method.items()))


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
