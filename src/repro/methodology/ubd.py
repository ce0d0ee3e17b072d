"""The measured-bound pipeline: deriving per-resource ``ubdm`` from
measurements alone.

The paper's contribution (Section 4) is the *bus* instance of a more general
recipe: pair a worst-case **resource stressing kernel** with a unit-of-
analysis kernel, measure the rsk-vs-nop differential, and read the resource's
measured upper-bound delay off the result.  This module implements both the
paper's instance and the resource-generic pipeline built on top of it:

* :class:`UbdEstimator` — the rsk-nop saw-tooth methodology for one
  arbitrated channel (Section 4):

  1. measure ``delta_nop`` with the nop-only kernel (Section 4.2);
  2. for every ``k`` in a sweep, build ``rsk-nop(t, k)`` as the software
     under analysis, measure its execution time in isolation and against
     ``Nc - 1`` rsk contenders, and form ``dbus(t, k)`` — the slowdown;
  3. detect the saw-tooth period of ``dbus(t, k)`` (Equation 3 plus the
     robust estimators of :mod:`repro.analysis.sawtooth`); the period,
     converted to cycles through ``delta_nop``, is ``ubdm``;
  4. evaluate the confidence checks of Section 4.3 (bus saturation via the
     PMCs, ``delta_nop`` reliability, estimator agreement, sweep coverage).

* :class:`MeasuredBoundPipeline` — the resource-generic pipeline.  For each
  resource contributing a term to the platform's analytical decomposition
  (:attr:`repro.config.ArchConfig.ubd_terms`), it selects the matching
  worst-case stressing kernel from the rsk registry
  (:data:`repro.kernels.rsk.RSK_REGISTRY`), runs the stressor against the
  unit-of-analysis kernel, reads that resource's PMC section (channel
  ``max_wait``, memory-queue ``max_queue_wait``) and per-request trace
  decomposition, and emits a measured :class:`ResourceUbdm` term.  The terms
  compose into an end-to-end measured bound the MBTA way
  (:mod:`repro.methodology.composition`) and are sandwich-checked per stage
  against the analytical terms (observed worst case <= ``ubdm`` <=
  analytical envelope, via
  :func:`repro.analysis.contention.cross_check_stage_bounds`).

On the paper's single-bus platform the pipeline degenerates to exactly the
legacy estimator: the only term is ``bus``, its stressing kernel is the
plain rsk, and its ``ubdm`` is the saw-tooth period — the differential
oracle in ``tests/test_measured_bounds.py`` pins this reproduction.

Nothing in either procedure uses the bus latency, the L2 latency or the
arbitration timing — only the knowledge that arbitration is fair (round
robin / FIFO) on every stage and which instruction types exercise which
resource, exactly as the paper requires.

The saw-tooth sweep can optionally auto-extend: if no period is detected
within the initial ``k`` range (because the range does not cover two
periods), the range is doubled up to a limit.  This is the "applicability to
a COTS multicore" mode of Section 5.3, where ``ubd`` is genuinely unknown
beforehand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..analysis.confidence import (
    ConfidenceCheck,
    ConfidenceReport,
    assess_confidence,
    assess_write_burst,
)
from ..analysis.contention import (
    BoundCrossCheck,
    LatencyDecomposition,
    MemoryTermSplit,
    StageBoundCheck,
    latency_decomposition,
    memory_term_split,
)
from ..analysis.injection import DeltaNopEstimate, derive_delta_nop
from ..analysis.sawtooth import PeriodEstimate, SawtoothAnalyzer
from ..config import ArchConfig
from ..errors import AnalysisError, ConfigurationError, MethodologyError
from ..kernels.rsk import (
    build_rsk_nop,
    build_stress_contender_set,
    rsk_for_resource,
    rsk_request_count,
)
from .composition import ComposedEtbReport, compose_etb
from .experiment import ContendedMeasurement, ExperimentRunner

#: Largest ``k`` the saw-tooth sweep's auto-extension reaches.
MAX_K_LIMIT = 400

#: Why :meth:`UbdEstimator.run` refuses a TDMA bus before its first sweep
#: point: ``dbus(k)`` there follows the slot frame, so sweeping would only
#: run up to :data:`MAX_K_LIMIT` and blame the search limit.
TDMA_HAS_NO_FAIR_ROUND = (
    "a TDMA bus has no fair round for the rsk-nop saw-tooth to find: each "
    "core waits for its own slot whatever the others do, so the saw-tooth "
    "period does not measure ubd"
)


@dataclass(frozen=True)
class SweepPoint:
    """Measurements taken for one value of ``k``."""

    k: int
    isolation_time: int
    contended_time: int
    dbus: int
    bus_utilisation: float
    requests: int


@dataclass(frozen=True)
class UbdMethodologyResult:
    """Full outcome of the rsk-nop methodology on one platform.

    Attributes:
        arch_name: name of the measured platform configuration.
        instruction_type: bus access type used (``"load"`` or ``"store"``).
        points: one :class:`SweepPoint` per swept ``k``.
        delta_nop: measured per-nop latency.
        period: detected saw-tooth period.
        ubdm: the measurement-based upper-bound delay, in cycles.
        confidence: outcome of the Section 4.3 confidence checks.
    """

    arch_name: str
    instruction_type: str
    points: List[SweepPoint]
    delta_nop: DeltaNopEstimate
    period: PeriodEstimate
    ubdm: int
    confidence: ConfidenceReport

    @property
    def ks(self) -> List[int]:
        """The swept nop counts."""
        return [point.k for point in self.points]

    @property
    def dbus_values(self) -> List[int]:
        """The measured slowdowns ``dbus(t, k)``."""
        return [point.dbus for point in self.points]

    def summary(self) -> str:
        """Short human readable result line."""
        return (
            f"{self.arch_name}/{self.instruction_type}: ubdm = {self.ubdm} cycles "
            f"({self.period.summary()}); confidence "
            f"{'OK' if self.confidence.passed else 'NOT met'}"
        )


class UbdEstimator:
    """Runs the complete rsk-nop methodology on one platform.

    Args:
        config: the platform to measure.
        instruction_type: bus access type of both the scua and the
            contenders (``"load"`` is the paper's default; ``"store"``
            exercises the store-buffer behaviour of Figure 7(b)).
        k_values: explicit sweep of nop counts; by default ``1..k_max``.
        k_max: upper end of the default sweep.
        iterations: loop iterations of every rsk-nop kernel (more iterations
            sharpen the saw-tooth at the cost of simulation time).
        scua_core: core hosting the kernel under analysis.
        auto_extend: extend the sweep (doubling ``k_max``) when no period is
            found, up to :data:`MAX_K_LIMIT`.
    """

    def __init__(
        self,
        config: ArchConfig,
        instruction_type: str = "load",
        k_values: Optional[Sequence[int]] = None,
        k_max: int = 60,
        iterations: int = 80,
        scua_core: int = 0,
        auto_extend: bool = True,
    ) -> None:
        if instruction_type not in ("load", "store"):
            raise MethodologyError(
                f"instruction type must be 'load' or 'store', got {instruction_type!r}"
            )
        if k_values is not None and len(k_values) < 4:
            raise MethodologyError("an explicit k sweep needs at least four points")
        if k_max < 1:
            raise MethodologyError(f"k_max must be >= 1, got {k_max}")
        if iterations < 1:
            raise MethodologyError("iterations must be >= 1")
        self.config = config
        self.instruction_type = instruction_type
        self.explicit_k_values = list(k_values) if k_values is not None else None
        self.k_max = k_max
        self.iterations = iterations
        self.scua_core = scua_core
        self.auto_extend = auto_extend
        self.runner = ExperimentRunner(config)

    # ------------------------------------------------------------------ #
    # Measurement of one sweep point.
    # ------------------------------------------------------------------ #
    def measure_point(self, k: int) -> SweepPoint:
        """Measure ``dbus(t, k)`` for a single nop count ``k``."""
        scua = build_rsk_nop(
            self.config,
            self.scua_core,
            kind=self.instruction_type,
            k=k,
            iterations=self.iterations,
        )
        isolation = self.runner.run_isolation(scua, self.scua_core)
        contended = self.runner.run_against_rsk(scua, self.scua_core, kind=self.instruction_type)
        return SweepPoint(
            k=k,
            isolation_time=isolation.execution_time,
            contended_time=contended.execution_time,
            dbus=contended.slowdown_versus(isolation),
            bus_utilisation=contended.bus_utilisation,
            requests=rsk_request_count(scua),
        )

    def sweep(self, k_values: Sequence[int]) -> List[SweepPoint]:
        """Measure every ``k`` in ``k_values``."""
        return [self.measure_point(k) for k in k_values]

    # ------------------------------------------------------------------ #
    # Full methodology.
    # ------------------------------------------------------------------ #
    def run(self) -> UbdMethodologyResult:
        """Execute the full methodology and return its result.

        Raises :class:`~repro.errors.MethodologyError` on a TDMA bus
        (:data:`TDMA_HAS_NO_FAIR_ROUND`) before simulating anything, and
        :class:`~repro.errors.AnalysisError` when auto-extension reaches
        :data:`MAX_K_LIMIT` without covering the detected period twice.
        """
        if self.config.bus.arbitration == "tdma":
            raise MethodologyError(f"{self.config.name}: {TDMA_HAS_NO_FAIR_ROUND}")
        delta_nop = derive_delta_nop(self.config, core_id=self.scua_core)

        if self.explicit_k_values is not None:
            k_values = list(self.explicit_k_values)
        else:
            k_values = list(range(1, self.k_max + 1))
        points = self.sweep(k_values)

        period = self._detect_period(points, delta_nop)
        while self._needs_extension(period, k_values):
            if not self.auto_extend:
                if period is not None:
                    break
                raise AnalysisError(
                    "no saw-tooth period detected and auto_extend is disabled; "
                    "widen the k sweep"
                )
            next_start = k_values[-1] + 1
            next_end = min(MAX_K_LIMIT, k_values[-1] * 2)
            if next_start > next_end:
                if period is not None:
                    break
                raise AnalysisError(
                    f"no saw-tooth period detected for k up to {k_values[-1]}; "
                    f"the platform's ubd exceeds the search limit of {MAX_K_LIMIT}"
                )
            extension = list(range(next_start, next_end + 1))
            points.extend(self.sweep(extension))
            k_values.extend(extension)
            period = self._detect_period(points, delta_nop)
        if period is None:
            raise AnalysisError("no saw-tooth period detected; widen the k sweep")
        span = k_values[-1] - k_values[0] + 1
        if self.auto_extend and span < 2 * period.period_k:
            # The extension stopped at the search limit, not because the
            # period is covered twice: the period is inconclusive by the
            # sweep's own rule, so it is not reported as a bound.
            raise AnalysisError(
                f"the sweep reached the search limit MAX_K_LIMIT = {MAX_K_LIMIT} with a "
                f"saw-tooth period of {period.period_k} k-steps that k = "
                f"{k_values[0]}..{k_values[-1]} does not cover twice; no bound is reported"
            )

        ubdm = period.period_cycles
        mean_utilisation = sum(point.bus_utilisation for point in points) / len(points)
        confidence = assess_confidence(
            bus_utilisation=mean_utilisation,
            delta_nop=delta_nop,
            period=period,
            sweep_span_k=span,
        )
        return UbdMethodologyResult(
            arch_name=self.config.name,
            instruction_type=self.instruction_type,
            points=points,
            delta_nop=delta_nop,
            period=period,
            ubdm=ubdm,
            confidence=confidence,
        )

    def _needs_extension(
        self, period: Optional[PeriodEstimate], k_values: Sequence[int]
    ) -> bool:
        """Decide whether the sweep must grow before the estimate is trusted.

        The sweep is extended while no period is found, or while the detected
        period is not covered at least twice (Equation 3 needs pairs of equal
        values one period apart, so a single period is never conclusive).
        """
        if period is None:
            return True
        span = k_values[-1] - k_values[0] + 1
        return span < 2 * period.period_k and k_values[-1] < MAX_K_LIMIT

    @staticmethod
    def _detect_period(
        points: Sequence[SweepPoint], delta_nop: DeltaNopEstimate
    ) -> Optional[PeriodEstimate]:
        ks = [point.k for point in points]
        values = [point.dbus for point in points]
        try:
            analyzer = SawtoothAnalyzer(ks, values)
            return analyzer.estimate(delta_nop=delta_nop.rounded)
        except AnalysisError:
            return None


# --------------------------------------------------------------------------- #
# The resource-generic measured-bound pipeline.
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ResourceUbdm:
    """One measured per-resource upper-bound delay term.

    Attributes:
        resource: the ``ArchConfig.ubd_terms`` key this term bounds.
        ubdm: the measured bound (cycles per request visiting the resource).
        observed_worst_case: worst per-request delay the observed core
            suffered at the resource across the pipeline's traced runs.
        analytical: the matching analytical term.
        method: how the bound was measured (``"rsk-nop saw-tooth"`` for
            arbitrated channels anchored by the paper's methodology,
            ``"stress-run PMC"`` for resources read off their own PMC
            section, ``"stress-run trace"`` for trace-only resources such as
            the shared-bus response envelope).
        requests: observed-core requests that visited the resource during
            its stressing run.
        pmc: raw snapshot of the resource's PMC section during the
            stressing run (shape varies per resource kind).
    """

    resource: str
    ubdm: int
    observed_worst_case: int
    analytical: int
    method: str
    requests: int
    pmc: Dict[str, int] = field(default_factory=dict)

    @property
    def sandwich(self) -> StageBoundCheck:
        """This term's sandwich check (the single predicate implementation;
        the report's :class:`~repro.analysis.contention.BoundCrossCheck` is
        assembled from exactly these)."""
        return StageBoundCheck(
            resource=self.resource,
            observed_worst_case=self.observed_worst_case,
            ubdm=self.ubdm,
            analytical=self.analytical,
        )

    @property
    def covers_observation(self) -> bool:
        """True when the measured bound covers the observed worst case."""
        return self.sandwich.covers_observation

    @property
    def within_envelope(self) -> bool:
        """True when the measured bound stays below the analytical term."""
        return self.sandwich.within_envelope

    def as_record(self) -> Dict[str, object]:
        """JSON-serialisable view (the shape campaign artifacts embed)."""
        return {
            "resource": self.resource,
            "ubdm": self.ubdm,
            "observed_worst_case": self.observed_worst_case,
            "analytical": self.analytical,
            "method": self.method,
            "requests": self.requests,
            "pmc": dict(self.pmc),
        }

    def summary(self) -> str:
        """One-line human readable report."""
        return (
            f"{self.resource}: ubdm = {self.ubdm} cycles "
            f"(observed {self.observed_worst_case}, analytical {self.analytical}, "
            f"{self.method})"
        )


@dataclass(frozen=True)
class MeasuredBoundReport:
    """Outcome of the resource-generic measured-bound pipeline.

    Attributes:
        arch_name: the measured platform configuration.
        topology: its shared-resource topology name.
        instruction_type: access type of the unit-of-analysis kernels.
        analytical_terms: the platform's analytical per-resource terms.
        terms: measured :class:`ResourceUbdm` per resource, in term order.
        bus_methodology: the saw-tooth methodology result anchoring the
            ``bus`` term (the paper's Section 4 output, unchanged).
        cross_check: per-stage sandwich checks (observed <= ubdm <=
            analytical).
        memory_split: queue-wait vs DRAM-service split of the measured
            memory stage (None on single-resource topologies).
        write_burst: the store-buffer write-burst gate of the ``memory``
            term's queueing assumption.
    """

    arch_name: str
    topology: str
    instruction_type: str
    analytical_terms: Dict[str, int]
    terms: Dict[str, ResourceUbdm]
    bus_methodology: UbdMethodologyResult
    cross_check: BoundCrossCheck
    memory_split: Optional[MemoryTermSplit] = None
    write_burst: Optional[ConfidenceCheck] = None

    @property
    def measured_terms(self) -> Dict[str, int]:
        """Per-resource measured bounds, keyed like ``ubd_terms``."""
        return {resource: term.ubdm for resource, term in self.terms.items()}

    @property
    def end_to_end_ubdm(self) -> int:
        """Sum of the measured terms: the end-to-end measured bound."""
        return sum(term.ubdm for term in self.terms.values())

    @property
    def end_to_end_analytical(self) -> int:
        """Sum of the analytical terms (the envelope the measurement tightens)."""
        return sum(self.analytical_terms.values())

    @property
    def passed(self) -> bool:
        """True when every check holds: the saw-tooth confidence report, the
        per-stage sandwiches, and the write-burst gate."""
        checks = [self.bus_methodology.confidence.passed, self.cross_check.passed]
        if self.write_burst is not None:
            checks.append(self.write_burst.passed)
        return all(checks)

    def compose(
        self,
        task_name: str,
        isolation_time: int,
        bus_requests: int,
        memory_requests: int,
        observed_contended_time: Optional[int] = None,
    ) -> ComposedEtbReport:
        """Compose the measured terms into an execution-time bound.

        The measured analogue of
        :func:`repro.methodology.composition.compose_etb_for_config`: the
        same MBTA padding rules, applied to the *measured* per-resource
        bounds instead of the analytical ones.
        """
        return compose_etb(
            task_name=task_name,
            isolation_time=isolation_time,
            bus_requests=bus_requests,
            memory_requests=memory_requests,
            terms=self.measured_terms,
            observed_contended_time=observed_contended_time,
        )

    def as_record(self) -> Dict[str, object]:
        """JSON-serialisable summary of the measured decomposition."""
        return {
            "arch_name": self.arch_name,
            "topology": self.topology,
            "instruction_type": self.instruction_type,
            "analytical_terms": dict(self.analytical_terms),
            "terms": {resource: term.as_record() for resource, term in self.terms.items()},
            "end_to_end_ubdm": self.end_to_end_ubdm,
            "end_to_end_analytical": self.end_to_end_analytical,
            "passed": self.passed,
        }

    def summary(self) -> str:
        """Multi-line human readable report."""
        lines = [
            f"{self.arch_name}/{self.topology}: end-to-end measured bound "
            f"{self.end_to_end_ubdm} cycles (analytical {self.end_to_end_analytical})"
        ]
        lines.extend(term.summary() for term in self.terms.values())
        if self.memory_split is not None:
            lines.append(self.memory_split.summary())
        return "\n".join(lines)


class MeasuredBoundPipeline:
    """Derives a measured ``ubdm`` term for every resource of a topology.

    The pipeline mirrors the engine's resource-generic shape one layer up:
    which terms exist is read from the platform's analytical decomposition
    (:attr:`~repro.config.ArchConfig.ubd_terms`), which stressing kernel
    drives each resource to its worst case is read from the rsk registry
    (:data:`repro.kernels.rsk.RSK_REGISTRY`), and each term's measurement is
    read from that resource's own PMC section and per-request trace.  A new
    topology whose terms name registered resources therefore gets measured
    bounds without any pipeline change.

    Stages:

    1. **Saw-tooth anchor.**  The legacy :class:`UbdEstimator` derives the
       ``bus`` term exactly as the paper does (rsk-nop sweep, period
       detection, confidence checks).  On ``bus_only`` this is the whole
       pipeline — the output reproduces the legacy estimator bit for bit.
    2. **Traced anchor run.**  The plain bus stressor runs traced against
       its contender set on the warmed platform, providing the per-request
       observation the ``bus`` term is sandwich-checked against.
    3. **Per-resource stress runs.**  For every other term, the registry's
       stressing kernel runs (cold L2, so every access reaches the memory
       stage) as both scua and contenders; the resource's measured bound is
       the worst case its PMC section recorded, and the traced decomposition
       (:func:`repro.analysis.contention.latency_decomposition`) provides
       the per-stage observations.
    4. **Cross-check and gates.**  Every measured term must cover its
       observed worst case and stay within its analytical envelope; the
       write-burst gate flags configurations whose store traffic can break
       the memory term's queueing assumption.

    Args:
        config: the platform to measure.
        instruction_type: access type of the kernels (only ``"load"`` —
            store traffic drains asynchronously through the store buffer, so
            its per-request stage waits are not observable the same way; the
            write-burst gate covers the store-side soundness question).
        k_values / k_max / iterations / auto_extend: forwarded to the
            saw-tooth :class:`UbdEstimator`.
        scua_core: core hosting the unit-of-analysis kernels.
        stress_iterations: loop iterations of each finite stressing scua.
    """

    def __init__(
        self,
        config: ArchConfig,
        instruction_type: str = "load",
        k_values: Optional[Sequence[int]] = None,
        k_max: int = 60,
        iterations: int = 80,
        scua_core: int = 0,
        auto_extend: bool = True,
        stress_iterations: int = 40,
    ) -> None:
        if instruction_type != "load":
            raise MethodologyError(
                "the measured-bound pipeline analyses demand (load) traffic; "
                "store traffic drains asynchronously through the store buffer "
                "and is gated by the write-burst check instead"
            )
        if stress_iterations < 1:
            raise MethodologyError("stress_iterations must be >= 1")
        self.config = config
        self.instruction_type = instruction_type
        self.scua_core = scua_core
        self.iterations = iterations
        self.stress_iterations = stress_iterations
        self.bus_estimator = UbdEstimator(
            config,
            instruction_type=instruction_type,
            k_values=k_values,
            k_max=k_max,
            iterations=iterations,
            scua_core=scua_core,
            auto_extend=auto_extend,
        )
        #: Stress runs must reach the memory stage, so the L2 stays cold.
        self.stress_runner = ExperimentRunner(config, preload_l2=False, preload_il1=True)

    # ------------------------------------------------------------------ #
    # Individual measurement stages.
    # ------------------------------------------------------------------ #
    def run_stress(self, resource: str) -> ContendedMeasurement:
        """Run ``resource``'s registered stressing kernel, traced, against
        ``Nc - 1`` contenders built from the same kernel."""
        entry = rsk_for_resource(resource)
        scua = entry.build(
            self.config,
            self.scua_core,
            kind=self.instruction_type,
            iterations=self.stress_iterations,
        )
        contenders = build_stress_contender_set(
            self.config, resource, self.scua_core, kind=self.instruction_type
        )
        return self.stress_runner.run_contended(
            scua, contenders, scua_core=self.scua_core, trace=True
        )

    def _anchor_run(self) -> ContendedMeasurement:
        """The traced synchrony run anchoring the ``bus`` observation."""
        scua = rsk_for_resource("bus").build(
            self.config,
            self.scua_core,
            kind=self.instruction_type,
            iterations=self.iterations,
        )
        return self.bus_estimator.runner.run_against_rsk(
            scua, self.scua_core, kind=self.instruction_type, trace=True
        )

    @staticmethod
    def _decompose(
        contended: ContendedMeasurement, scua_core: int
    ) -> LatencyDecomposition:
        if contended.trace is None:  # pragma: no cover - trace=True everywhere
            raise MethodologyError("stress runs must be traced")
        return latency_decomposition(contended.trace, scua_core, skip_first=1)

    @staticmethod
    def _pmc_measurement(
        resource: str, contended: ContendedMeasurement
    ) -> Optional[Dict[str, int]]:
        """The resource's own PMC section during its stressing run, if it
        has one (channels report through ``PerformanceCounters.resources``,
        the memory stage through ``MemCtrlStats``)."""
        result = contended.result
        if resource == "memory":
            stats = result.memctrl_stats
            if stats is None:
                return None
            return stats.as_dict()
        channel = result.pmc.resources.get(resource)
        if channel is None:
            return None
        return channel.as_dict()

    @staticmethod
    def _pmc_worst_case(resource: str, section: Mapping[str, int]) -> int:
        """The worst per-request wait the resource's PMC section recorded."""
        if resource == "memory":
            return int(section.get("max_queue_wait", 0))
        return int(section.get("max_wait", 0))

    # ------------------------------------------------------------------ #
    # Full pipeline.
    # ------------------------------------------------------------------ #
    def run(self) -> MeasuredBoundReport:
        """Execute the pipeline and return the measured decomposition."""
        config = self.config
        try:
            analytical = dict(config.ubd_terms)
        except ConfigurationError as exc:
            raise MethodologyError(
                f"no measured per-resource bound for this platform: {exc}"
            ) from exc

        # Stage 1: the paper's saw-tooth methodology anchors the bus term.
        bus_methodology = self.bus_estimator.run()

        # Stage 2 + 3: traced runs.  Every run's decomposition feeds the
        # per-stage observations; each non-bus resource additionally gets
        # its own PMC reading from its dedicated stressing run.
        observed: Dict[str, int] = {}
        requests: Dict[str, int] = {}
        pmc_sections: Dict[str, Dict[str, int]] = {}
        pmc_worst: Dict[str, int] = {}
        memory_split: Optional[MemoryTermSplit] = None
        write_burst: Optional[ConfidenceCheck] = None

        anchor = self._anchor_run()
        anchor_decomposition = self._decompose(anchor, self.scua_core)
        self._fold_observations(observed, anchor_decomposition, analytical)
        requests["bus"] = anchor_decomposition.total_requests
        bus_section = self._pmc_measurement("bus", anchor)
        if bus_section is not None:
            pmc_sections["bus"] = bus_section
            if config.bus.arbitration != "round_robin":
                # The saw-tooth period equals ubd only under round-robin
                # arbitration — the paper's stated assumption (a FIFO bus
                # serves in ready order, so dbus(k) repeats with the bus
                # occupancy, not the fair round).  Other fair policies read
                # the bus term from the channel's own PMC section, exactly
                # like the downstream resources.
                pmc_worst["bus"] = self._pmc_worst_case("bus", bus_section)

        for resource in analytical:
            if resource == "bus":
                continue
            contended = self.run_stress(resource)
            decomposition = self._decompose(contended, self.scua_core)
            self._fold_observations(observed, decomposition, analytical)
            requests[resource] = decomposition.memory_requests
            section = self._pmc_measurement(resource, contended)
            if section is not None:
                pmc_sections[resource] = section
                pmc_worst[resource] = self._pmc_worst_case(resource, section)
            if resource == "memory":
                memory_split = memory_term_split(decomposition)
            burst = assess_write_burst(config, contended.result.pmc)
            if write_burst is None or not burst.passed:
                write_burst = burst
        if write_burst is None:
            # Single-resource platform: gate on the anchor run (vacuous for
            # load traffic, but keeps the report shape uniform).
            write_burst = assess_write_burst(config, anchor.result.pmc)

        # Stage 4: assemble the terms and sandwich-check them.  The measured
        # value is reported exactly as measured — never inflated to cover
        # the observations — so the covers_observation direction of the
        # sandwich is a *genuine* check: a stressing methodology that
        # under-measures its resource fails the cross-check (and
        # ``report.passed``) instead of being silently patched over.  The
        # one necessarily-trivial case is a resource with no PMC section of
        # its own (method "stress-run trace"), whose measurement *is* the
        # observation.
        terms: Dict[str, ResourceUbdm] = {}
        for resource, bound in analytical.items():
            seen = observed.get(resource, 0)
            if resource == "bus" and resource not in pmc_worst:
                ubdm = bus_methodology.ubdm
                method = "rsk-nop saw-tooth"
            elif resource in pmc_worst:
                ubdm = pmc_worst[resource]
                method = "stress-run PMC"
            else:
                ubdm = seen
                method = "stress-run trace"
            terms[resource] = ResourceUbdm(
                resource=resource,
                ubdm=ubdm,
                observed_worst_case=seen,
                analytical=bound,
                method=method,
                requests=requests.get(resource, 0),
                pmc=pmc_sections.get(resource, {}),
            )
        cross_check = BoundCrossCheck(checks=[term.sandwich for term in terms.values()])
        return MeasuredBoundReport(
            arch_name=config.name,
            topology=config.topology.name,
            instruction_type=self.instruction_type,
            analytical_terms=analytical,
            terms=terms,
            bus_methodology=bus_methodology,
            cross_check=cross_check,
            memory_split=memory_split,
            write_burst=write_burst,
        )

    @staticmethod
    def _fold_observations(
        observed: Dict[str, int],
        decomposition: LatencyDecomposition,
        analytical: Mapping[str, int],
    ) -> None:
        """Merge a run's per-stage worst cases into the running observations."""
        for stage in analytical:
            worst = decomposition.max_observed(stage)
            if worst > observed.get(stage, 0):
                observed[stage] = worst
