"""Confidence checks for the measurement-based bound (Section 4.3).

The paper names two elements as "central to confidence on the obtained
``ubdm``":

1. ``Nc - 1`` cores running rsk must be enough to drive the bus to (close
   to) 100% utilisation, which can be verified with the platform's
   performance monitoring counters (NGMP counters 0x17/0x18 — modelled by
   :class:`repro.sim.pmc.PerformanceCounters`);
2. ``delta_nop`` must be derived reliably, because it converts the saw-tooth
   period from nop counts into cycles.

:func:`assess_confidence` bundles both checks, plus sanity checks on the
saw-tooth itself (estimator agreement, sweep coverage, and an observed floor:
no bus wait the sweep saw may exceed the bound), into a single report the
methodology attaches to every estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from .injection import DeltaNopEstimate
from .sawtooth import PeriodEstimate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config is layer 0)
    from ..config import ArchConfig
    from ..sim.pmc import PerformanceCounters

#: Bus utilisation below this threshold means the contenders did not saturate
#: the bus and the synchrony effect cannot be relied upon.
DEFAULT_UTILISATION_THRESHOLD = 0.90

#: Maximum tolerated relative rounding error on delta_nop.
DEFAULT_DELTA_NOP_TOLERANCE = 0.05


@dataclass(frozen=True)
class ConfidenceCheck:
    """One named check with its outcome and a human-readable explanation."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ConfidenceReport:
    """Aggregated confidence assessment attached to a ``ubdm`` estimate."""

    checks: List[ConfidenceCheck]

    @property
    def passed(self) -> bool:
        """True only if every individual check passed."""
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> List[ConfidenceCheck]:
        """The checks that did not pass."""
        return [check for check in self.checks if not check.passed]

    def summary(self) -> str:
        """Multi-line human readable report."""
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"[{status}] {check.name}: {check.detail}")
        return "\n".join(lines)


def assess_confidence(
    bus_utilisation: float,
    delta_nop: Optional[DeltaNopEstimate] = None,
    period: Optional[PeriodEstimate] = None,
    sweep_span_k: Optional[int] = None,
    observed_wait: Optional[int] = None,
    utilisation_threshold: float = DEFAULT_UTILISATION_THRESHOLD,
    delta_nop_tolerance: float = DEFAULT_DELTA_NOP_TOLERANCE,
) -> ConfidenceReport:
    """Evaluate the methodology's confidence conditions.

    Args:
        bus_utilisation: overall bus utilisation measured (via the PMCs)
            during the contended runs, in [0, 1].
        delta_nop: the measured per-nop latency, if available.
        period: the saw-tooth period estimate, if available.
        sweep_span_k: width of the swept ``k`` range; it must cover at least
            two periods for Equation 3 to be applicable.
        observed_wait: the largest bus grant wait the sweep's contended runs
            recorded (PMC ``max_wait``); a bound below a wait the bus really
            imposed is unsound, whatever the saw-tooth says.
        utilisation_threshold: minimum acceptable bus utilisation.
        delta_nop_tolerance: maximum acceptable relative rounding error of
            ``delta_nop``.
    """
    checks: List[ConfidenceCheck] = []

    checks.append(
        ConfidenceCheck(
            name="bus_saturation",
            passed=bus_utilisation >= utilisation_threshold,
            detail=(
                f"measured bus utilisation {bus_utilisation:.1%} "
                f"(threshold {utilisation_threshold:.0%})"
            ),
        )
    )

    if delta_nop is not None:
        error = delta_nop.relative_rounding_error
        checks.append(
            ConfidenceCheck(
                name="delta_nop",
                passed=error <= delta_nop_tolerance,
                detail=(
                    f"delta_nop = {delta_nop.cycles_per_nop:.3f} cycles/nop, rounded to "
                    f"{delta_nop.rounded} (relative error {error:.1%})"
                ),
            )
        )

    if period is not None:
        checks.append(
            ConfidenceCheck(
                name="estimator_agreement",
                passed=period.agreement >= 0.5,
                detail=(
                    f"{period.agreement:.0%} of period estimators agree on "
                    f"{period.period_k} k-steps"
                ),
            )
        )
        if sweep_span_k is not None:
            covers_two_periods = sweep_span_k >= 2 * period.period_k
            checks.append(
                ConfidenceCheck(
                    name="sweep_coverage",
                    passed=covers_two_periods,
                    detail=(
                        f"sweep spans {sweep_span_k} k-steps versus a detected period of "
                        f"{period.period_k} (two periods required)"
                    ),
                )
            )
        if observed_wait is not None:
            checks.append(
                ConfidenceCheck(
                    name="observed_floor",
                    passed=observed_wait <= period.period_cycles,
                    detail=(
                        "largest bus wait in the sweep's contended runs is "
                        f"{observed_wait} cycles versus ubdm {period.period_cycles} "
                        "(ubdm must cover it)"
                    ),
                )
            )

    return ConfidenceReport(checks=checks)


def assess_write_burst(
    config: "ArchConfig", pmc: "PerformanceCounters"
) -> ConfidenceCheck:
    """Flag configurations where store-buffer write bursts can break the
    ``memory`` term's queueing assumption.

    The analytical ``memory`` term of :attr:`repro.config.ArchConfig.ubd_terms`
    assumes **at most one outstanding demand request per core**, which caps a
    bank queue at ``Nc - 1`` competing accesses.  Demand loads and ifetches
    satisfy this by construction (an in-order core blocks on them), but
    write-through stores drain *asynchronously* from the store buffer: a core
    with a deep buffer can have several writes in flight, and if they land on
    one DRAM bank faster than the bank drains, more than ``Nc - 1`` accesses
    queue up and the term silently under-bounds.

    The check is a conservative PMC gate, not a bound.  With arbitrated
    memory queues and a store buffer deeper than one entry, it flags the run
    when either counter witnesses a pileup:

    * ``store_buffer_full_stalls > 0`` — a core filled its buffer, so at
      least ``entries`` writes were outstanding at once (the direct
      witness; a bank-saturated store run always trips it even though its
      *throughput* collapses);
    * ``rate * row_miss_latency > 1`` — the observed per-core store rate
      refills a bank faster than a worst-case (row-miss) service drains it,
      so writes accumulate even before the buffer fills.

    Flagged configurations should bound the pileup explicitly (store-buffer
    depth x cores) instead of trusting the composed terms.
    """
    cycles = pmc.cycles
    store_rate = 0.0
    if cycles > 0:
        store_rate = max((core.stores / cycles for core in pmc.core), default=0.0)
    full_stalls = max((core.store_buffer_full_stalls for core in pmc.core), default=0)
    depth = config.store_buffer.entries
    service = config.dram.row_miss_latency
    if not config.topology.has_memory_queues:
        return ConfidenceCheck(
            name="write_burst",
            passed=True,
            detail=(
                "no arbitrated memory stage on topology "
                f"{config.topology.name!r}; the memory term does not apply"
            ),
        )
    burst_possible = depth > 1 and (full_stalls > 0 or store_rate * service > 1.0)
    detail = (
        f"worst per-core store rate {store_rate:.3f}/cycle x row-miss service "
        f"{service} cycles = {store_rate * service:.2f} writes per bank service, "
        f"{full_stalls} buffer-full stall(s) (store buffer holds {depth})"
    )
    if burst_possible:
        detail += (
            "; write bursts can queue more than Nc - 1 accesses on one bank — "
            "the analytical memory term under-bounds this traffic"
        )
    else:
        detail += "; at most one outstanding write per core per bank service"
    return ConfidenceCheck(name="write_burst", passed=not burst_possible, detail=detail)
