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
  3. detect the saw-tooth period of ``dbus(t, k)``: two of Equation 3 and
     the robust estimators of :mod:`repro.analysis.sawtooth` must agree on
     it; the period, converted to cycles through ``delta_nop``, is ``ubdm``;
  4. evaluate the confidence checks of Section 4.3 (bus saturation via the
     PMCs, ``delta_nop`` reliability, estimator agreement, sweep coverage)
     and the observed floor (no bus wait the sweep saw exceeds ``ubdm``).

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
arbitration timing — only which bound methods the arbitration admits
(:func:`repro.config.admissibility`) and which instruction types exercise
which resource, exactly as the paper requires.

The saw-tooth sweep auto-extends by default: while the estimators reach no
consensus, or the range does not cover the consensus period twice, the range
is doubled up to a limit, where the sweep is refused.  This is the
"applicability to a COTS multicore" mode of Section 5.3, where ``ubd`` is
genuinely unknown beforehand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from ..analysis.confidence import (
    ConfidenceCheck,
    ConfidenceReport,
    assess_confidence,
    assess_write_burst,
)
from ..analysis.injection import DeltaNopEstimate, derive_delta_nop
from ..analysis.sawtooth import PeriodEstimate, SawtoothAnalyzer
from ..config import PER_RESOURCE, SAWTOOTH, ArchConfig, admissibility
from ..errors import AnalysisError, MethodologyError
from ..kernels.rsk import (
    build_rsk_nop,
    build_stress_contender_set,
    rsk_for_resource,
    rsk_request_count,
)
from .experiment import ContendedMeasurement, ExperimentRunner

if TYPE_CHECKING:
    # The saw-tooth alone runs none of these; the per-resource pipeline
    # imports them where it calls them (DESIGN.md Section 2).
    from ..analysis.contention import (
        BoundCrossCheck,
        LatencyDecomposition,
        MemoryTermSplit,
        StageBoundCheck,
    )
    from .composition import ComposedEtbReport

#: Largest ``k`` the saw-tooth sweep's auto-extension reaches.
MAX_K_LIMIT = 400


@dataclass(frozen=True)
class SweepPoint:
    """Measurements taken for one value of ``k``; ``bus_max_wait`` is the bus
    PMC's ``max_wait`` over the contended run, a real wait ``ubdm`` must cover."""

    k: int
    isolation_time: int
    contended_time: int
    dbus: int
    bus_utilisation: float
    requests: int
    bus_max_wait: int


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
        k_values: explicit sweep of consecutive nop counts (every step 1);
            by default ``1..k_max``.  A larger step measures the period only
            when it divides ``ubd``, the unknown, so :meth:`run` refuses it.
        k_max: upper end of the default sweep.
        iterations: loop iterations of every rsk-nop kernel (more iterations
            sharpen the saw-tooth at the cost of simulation time).
        scua_core: core hosting the kernel under analysis.
        auto_extend: extend the sweep (doubling ``k_max``) until the
            estimators agree on a period it covers twice, up to
            :data:`MAX_K_LIMIT`; otherwise the sweep is a fixed budget.
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
            bus_max_wait=contended.result.pmc.resources["bus"].max_wait,
        )

    def sweep(self, k_values: Sequence[int]) -> List[SweepPoint]:
        """Measure every ``k`` in ``k_values``."""
        return [self.measure_point(k) for k in k_values]

    # ------------------------------------------------------------------ #
    # Full methodology.
    # ------------------------------------------------------------------ #
    def run(self) -> UbdMethodologyResult:
        """Execute the full methodology and return its result.

        Raises :class:`~repro.errors.MethodologyError` before simulating
        anything on a bus whose :func:`~repro.config.admissibility` refuses
        the saw-tooth (any bus but round robin), before simulating a sweep
        or an auto-extension whose largest ``k`` gives an rsk-nop whose code
        does not fit the scua core's IL1, and before simulating explicit
        ``k_values`` that are not consecutive (it names the first gap).

        The sweep doubles its largest ``k`` on one condition: the saw-tooth
        estimators reach no consensus
        (:meth:`~repro.analysis.sawtooth.SawtoothAnalyzer.estimate`), or the
        span does not cover it twice.  Where that still holds at
        :data:`MAX_K_LIMIT` (or, without ``auto_extend``, at once) it raises
        :class:`~repro.errors.AnalysisError` in one place, naming which part
        held; a budgeted sweep reports a consensus it does not cover twice
        through the ``sweep_coverage`` check instead.  A sweep settled at
        zero (:func:`settled_at_zero`) is refused before extending.
        """
        refusal = admissibility(self.config)[SAWTOOTH]
        if refusal is not None:
            raise MethodologyError(f"{self.config.name}: {refusal}")
        if self.explicit_k_values is not None:
            k_values = list(self.explicit_k_values)
            remedy = (
                f"drop k = {max(k_values)} and every other k value the IL1 cannot hold "
                "from k_values"
            )
        else:
            k_values = list(range(1, self.k_max + 1))
            remedy = "lower --k-max"
        self._require_il1_fit(max(k_values), "the sweep", remedy)
        for previous, k in zip(k_values, k_values[1:]):
            if k != previous + 1:
                raise MethodologyError(
                    f"{self.config.name}: k_values jumps from k = {previous} to k = {k}: "
                    "the saw-tooth's period is counted in steps of k, and a step other "
                    "than 1 measures it only when the step divides ubd, which the sweep "
                    "is there to find; sweep consecutive k values"
                )
        delta_nop = derive_delta_nop(self.config, core_id=self.scua_core)
        points = self.sweep(k_values)
        while True:
            span = k_values[-1] - k_values[0] + 1
            try:
                analyzer = SawtoothAnalyzer(k_values, [point.dbus for point in points])
                period = analyzer.estimate(delta_nop=delta_nop.rounded)
            except AnalysisError as exc:
                shortfall = str(exc)
            else:
                # Equation 3 needs pairs of equal values one period apart.
                # Without auto-extension the sweep is a fixed budget, and the
                # sweep_coverage check fails a period it does not cover twice.
                if span >= 2 * period.period_k or not self.auto_extend:
                    break
                shortfall = f"the period of {period.period_k} k-steps is not covered twice"
            first_zero = settled_at_zero(points)
            if first_zero is not None:
                raise AnalysisError(
                    f"dbus(k) never rises over k = {k_values[0]}..{k_values[-1]} and is 0 "
                    f"from k = {first_zero} on: the store buffer hides every bus wait once "
                    "the nops between two stores cover a drain (the store-side shape of "
                    "the paper's Figure 7(b)), so no saw-tooth period measures ubd and no "
                    "bound is reported"
                )
            if not self.auto_extend or k_values[-1] >= MAX_K_LIMIT:
                limit = f"the search limit of {MAX_K_LIMIT}" if self.auto_extend else "its budget"
                raise AnalysisError(
                    f"the sweep reached {limit} at k = {k_values[0]}..{k_values[-1]}, where "
                    f"{shortfall}; no bound is reported"
                )
            next_end = min(MAX_K_LIMIT, k_values[-1] * 2)
            self._require_il1_fit(next_end, "the sweep's auto-extension", "no bound is reported")
            extension = list(range(k_values[-1] + 1, next_end + 1))
            points.extend(self.sweep(extension))
            k_values.extend(extension)

        ubdm = period.period_cycles
        mean_utilisation = sum(point.bus_utilisation for point in points) / len(points)
        confidence = assess_confidence(
            bus_utilisation=mean_utilisation,
            delta_nop=delta_nop,
            period=period,
            sweep_span_k=span,
            observed_wait=max(point.bus_max_wait for point in points),
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

    def _require_il1_fit(self, k: int, what: str, remedy: str) -> None:
        """Refuse ``what`` before simulating it when the rsk-nop code at
        ``k`` does not fit the scua core's IL1 (more than ``ways`` of its
        lines in one set): from there on every iteration fetches its code
        over the bus, and ``dbus(k)`` would measure those fetches."""
        il1 = self.config.il1
        scua = build_rsk_nop(self.config, self.scua_core, kind=self.instruction_type, k=k)
        lines = scua.footprint(il1.line_size)[1]
        per_set = Counter(line // il1.line_size % il1.num_sets for line in lines)
        if max(per_set.values()) > il1.ways:
            raise MethodologyError(
                f"{self.config.name}: {what} reaches k = {k}, where the rsk-nop's "
                f"{len(lines)} code lines do not fit the scua core's IL1 of "
                f"{il1.num_sets * il1.ways} lines ({il1.ways} per set): every iteration "
                "would fetch its code over the bus, and dbus(k) would measure those "
                f"fetches; {remedy}"
            )


def settled_at_zero(points: Sequence[SweepPoint]) -> Optional[int]:
    """The first ``k`` of a sweep whose ``dbus`` never rises and ends in at
    least two zeros, or ``None``.

    A store sweep has this shape: one non-increasing flank, then zero for
    good once the store buffer hides the bus.  Extending such a sweep only
    adds zeros.  A load saw-tooth never matches: ``dbus`` rises right after
    each of its zeros.
    """
    values = [point.dbus for point in points]
    if len(values) < 2 or values[-1] or values[-2]:
        return None
    if any(later > earlier for earlier, later in zip(values, values[1:])):
        return None
    return points[values.index(0)].k


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
        from ..analysis.contention import StageBoundCheck

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
            ``bus`` term (the paper's Section 4 output, unchanged), or
            ``None`` where :func:`~repro.config.admissibility` refuses the
            saw-tooth and the bus term is read from the channel PMC.
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
    bus_methodology: Optional[UbdMethodologyResult]
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
    def end_to_end_refusal(self) -> Optional[str]:
        """Why no end-to-end bound is composed from the terms, or ``None``:
        a term below the worst case its own resource was observed to impose
        is disproved by the pipeline's own measurement."""
        uncovered = [
            f"the {term.resource} term of {term.ubdm} cycles is NOT COVERING its "
            f"observed worst case of {term.observed_worst_case}"
            for term in self.terms.values()
            if not term.covers_observation
        ]
        if not uncovered:
            return None
        return f"{self.arch_name}: {'; '.join(uncovered)}; no end-to-end bound is composed"

    @property
    def passed(self) -> bool:
        """True when every check holds: the saw-tooth confidence report
        (where the saw-tooth ran), the per-stage sandwiches, and the
        write-burst gate."""
        checks = [self.cross_check.passed]
        if self.bus_methodology is not None:
            checks.append(self.bus_methodology.confidence.passed)
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
        bounds instead of the analytical ones.  Raises
        :class:`~repro.errors.MethodologyError` with
        :attr:`end_to_end_refusal` where a term does not cover its
        observation.
        """
        from .composition import compose_etb

        refusal = self.end_to_end_refusal
        if refusal is not None:
            raise MethodologyError(refusal)
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

    1. **Saw-tooth anchor.**  Where the saw-tooth is admitted (a round-robin
       bus), the legacy :class:`UbdEstimator` derives the ``bus`` term as the
       paper does (rsk-nop sweep, period detection, confidence checks);
       elsewhere stage 2's channel PMC gives it.  On ``bus_only`` this is the
       whole pipeline — the output reproduces the legacy estimator bit for bit.
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
            saw-tooth :class:`UbdEstimator` (which refuses explicit
            ``k_values`` that are not consecutive).
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
        from ..analysis.contention import latency_decomposition

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
        from ..analysis.contention import BoundCrossCheck, memory_term_split

        config = self.config
        table = admissibility(config)
        refusal = table[PER_RESOURCE]
        if refusal is not None:
            raise MethodologyError(f"no measured per-resource bound for this platform: {refusal}")
        analytical = dict(config.ubd_terms)

        # Stage 1: the paper's saw-tooth methodology anchors the bus term
        # where it is admitted; elsewhere the bus term is read from the
        # channel's own PMC section, like the downstream resources.
        bus_methodology = self.bus_estimator.run() if table[SAWTOOTH] is None else None

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
            if bus_methodology is None:
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
            if resource == "bus" and bus_methodology is not None:
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
