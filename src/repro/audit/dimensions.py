"""Config-mode audit dimensions: one platform, every methodology check.

Each dimension is a named, registered evaluation over a
:class:`ConfigAuditContext` — the shared measurement state of one audited
platform (the measured-bound pipeline run, the traced synchrony run, the
store-side probe).  The registry (:data:`CONFIG_DIMENSIONS`) makes new
dimensions pure additions: register a callable and it appears in the
``flags.json``, the HTML report and the CLI verdict with no orchestrator
change — the same growth pattern as the arbiter/engine/topology registries.

The dimension contract (see ``DESIGN.md``, "Audit dimensions"):

* **name** — machine-stable registry key (the ``flags.json`` identity);
* **inputs** — everything is read from the shared context, so expensive
  measurements (the saw-tooth sweep, the stress runs) happen at most once
  per audit however many dimensions consume them;
* **verdict semantics** — ``fail`` only on an *observed contradiction*
  (a bound not covering an observation, diverging engines, a failed
  Section 4.3 confidence criterion); ``warn`` when a property cannot be
  established (no analytical envelope to sandwich against, a gated
  assumption flagged by a probe); ``pass`` otherwise;
* **evidence payload** — JSON-serialisable, carrying the numbers behind the
  verdict (observed vs ``ubdm`` vs analytical per resource, engine cycle
  counts and fallback reasons, store-burst rates).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Generic, List, Optional, Tuple, TypeVar

from ..analysis.confidence import assess_write_burst
from ..analysis.contention import ContentionHistogram, contention_histogram
from ..config import EQUATION_1, PER_RESOURCE, SAWTOOTH, ArchConfig, admissibility
from ..errors import ConfigurationError, ReproError
from ..kernels.rsk import build_rsk
from ..methodology.experiment import ContendedMeasurement, ExperimentRunner
from ..methodology.ubd import (
    MeasuredBoundPipeline,
    MeasuredBoundReport,
    UbdEstimator,
    UbdMethodologyResult,
)
from ..registry import Registry
from ..sim.isa import Program
from ..sim.scheduler import registered_engines
from ..sim.system import System, SystemResult
from .core import (
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_WARN,
    DimensionResult,
    Finding,
)


@dataclass(frozen=True)
class AuditOptions:
    """Measurement knobs forwarded to the audit's underlying experiments.

    The defaults match the CLI defaults of ``derive-ubd``/``synchrony``;
    tests and CI lower them to keep a full audit in the seconds range.
    Every knob must be >= 1: a zero would turn its check vacuous (a
    one-cycle engine cross-check passes trivially) or into a misleading
    error.  Each field is the ``repro-bounds audit`` flag of the same name,
    and the refusal names that flag.
    """

    k_max: int = 60
    iterations: int = 40
    stress_iterations: int = 40
    synchrony_iterations: int = 150
    equivalence_iterations: int = 40

    def __post_init__(self) -> None:
        for knob in fields(self):
            value = getattr(self, knob.name)
            if value < 1:
                flag = "--" + knob.name.replace("_", "-")
                raise ConfigurationError(f"{flag} must be >= 1, got {value}")


class ConfigAuditContext:
    """Shared measurement state for one audited platform configuration.

    Every expensive measurement is computed lazily and cached, so the
    dimensions can be written independently while the audit still runs the
    saw-tooth sweep, the stress runs and the synchrony trace exactly once.
    A measurement the methodology refuses (no composable bounds, no
    detectable period) is cached as its *reason* instead — dimensions
    surface it as a ``warn`` finding with the fallback reason as evidence.
    """

    def __init__(self, config: ArchConfig, options: Optional[AuditOptions] = None) -> None:
        self.config = config
        self.options = options or AuditOptions()
        self._measured: Optional[Tuple[Optional[MeasuredBoundReport], Optional[str]]] = None
        self._methodology: Optional[
            Tuple[Optional[UbdMethodologyResult], Optional[str]]
        ] = None
        self._synchrony: Optional[Tuple[Optional[ContendedMeasurement], Optional[str]]] = None
        self._store_probe: Optional[
            Tuple[Optional[ContendedMeasurement], Optional[str]]
        ] = None

    # ------------------------------------------------------------------ #
    # Cached measurements.
    # ------------------------------------------------------------------ #
    def measured_report(self) -> Tuple[Optional[MeasuredBoundReport], Optional[str]]:
        """The measured-bound pipeline's report, or the reason it refused."""
        if self._measured is None:
            options = self.options
            try:
                pipeline = MeasuredBoundPipeline(
                    self.config,
                    k_max=options.k_max,
                    iterations=options.iterations,
                    stress_iterations=options.stress_iterations,
                )
                self._measured = (pipeline.run(), None)
            except ReproError as exc:
                self._measured = (None, str(exc))
        return self._measured

    def bus_methodology(self) -> Tuple[Optional[UbdMethodologyResult], Optional[str]]:
        """The saw-tooth methodology result, or the reason there is none.

        Where the pipeline runs the saw-tooth (it admits both the saw-tooth
        and the per-resource terms), its result or its refusal is taken as
        it stands: the sweep is never run twice.  Elsewhere the estimator
        runs standalone, and refuses up front where the saw-tooth is not
        admitted."""
        if self._methodology is None:
            table = admissibility(self.config)
            if table[SAWTOOTH] is None and table[PER_RESOURCE] is None:
                report, reason = self.measured_report()
                methodology = report.bus_methodology if report is not None else None
                self._methodology = (methodology, reason)
            else:
                options = self.options
                try:
                    # No auto-extension: an audit's standalone sweep stays
                    # within the configured budget — if no period shows up
                    # in options.k_max steps the dimension warns with the
                    # reason instead of hunting for one.
                    estimator = UbdEstimator(
                        self.config,
                        k_max=options.k_max,
                        iterations=options.iterations,
                        auto_extend=False,
                    )
                    self._methodology = (estimator.run(), None)
                except ReproError as exc:
                    self._methodology = (None, str(exc))
        return self._methodology

    def synchrony_run(self) -> Tuple[Optional[ContendedMeasurement], Optional[str]]:
        """A traced load rsk vs ``Nc - 1`` rsk run (the Figure 6(b) setup)."""
        if self._synchrony is None:
            try:
                runner = ExperimentRunner(self.config)
                scua = build_rsk(self.config, 0, iterations=self.options.synchrony_iterations)
                self._synchrony = (
                    runner.run_against_rsk(scua, 0, trace=True),
                    None,
                )
            except ReproError as exc:
                self._synchrony = (None, str(exc))
        return self._synchrony

    def store_probe(self) -> Tuple[Optional[ContendedMeasurement], Optional[str]]:
        """A store rsk vs store rsk run probing the write-burst assumption."""
        if self._store_probe is None:
            try:
                runner = ExperimentRunner(self.config)
                scua = build_rsk(
                    self.config,
                    0,
                    kind="store",
                    iterations=self.options.synchrony_iterations,
                )
                self._store_probe = (
                    runner.run_against_rsk(scua, 0, kind="store", trace=False),
                    None,
                )
            except ReproError as exc:
                self._store_probe = (None, str(exc))
        return self._store_probe


ContextT = TypeVar("ContextT")


@dataclass(frozen=True)
class AuditDimension(Generic[ContextT]):
    """One registered audit dimension (see the module docstring contract)."""

    name: str
    title: str
    description: str
    run: Callable[[ContextT], DimensionResult]


#: Registry of config-mode dimensions, evaluated in registration order.
CONFIG_DIMENSIONS: Registry[AuditDimension[ConfigAuditContext]] = Registry("audit dimension")

_ConfigRunner = Callable[[ConfigAuditContext], DimensionResult]


def register_dimension(
    name: str, title: str, description: str
) -> Callable[[_ConfigRunner], _ConfigRunner]:
    """Class-less registration decorator for config-mode dimensions."""

    def decorator(run: _ConfigRunner) -> _ConfigRunner:
        CONFIG_DIMENSIONS.register(
            name, AuditDimension(name=name, title=title, description=description, run=run)
        )
        return run

    return decorator


def _unavailable(name: str, title: str, check: str, reason: str) -> DimensionResult:
    """A single-warning dimension result for a measurement that refused."""
    return DimensionResult(
        name=name,
        title=title,
        findings=(
            Finding(
                check=check,
                verdict=VERDICT_WARN,
                detail=f"not established: {reason}",
                evidence={"fallback_reason": reason},
            ),
        ),
    )


# --------------------------------------------------------------------------- #
# Dimension: the measured-bound pipeline (per-resource ubdm terms).
# --------------------------------------------------------------------------- #
@register_dimension(
    "measured_bounds",
    "Measured per-resource bounds",
    "Runs the resource-generic measured-bound pipeline and reports one "
    "measured ubdm term per shared resource next to its analytical envelope.",
)
def _measured_bounds(context: ConfigAuditContext) -> DimensionResult:
    report, reason = context.measured_report()
    if report is None:
        assert reason is not None
        return _unavailable(
            "measured_bounds",
            "Measured per-resource bounds",
            "pipeline",
            reason,
        )
    findings: List[Finding] = []
    rows: List[Tuple[str, ...]] = []
    for term in report.terms.values():
        findings.append(
            Finding(
                check=f"term_{term.resource}",
                verdict=VERDICT_PASS if term.sandwich.passed else VERDICT_FAIL,
                detail=term.summary(),
                evidence={
                    "resource": term.resource,
                    "observed_worst_case": term.observed_worst_case,
                    "ubdm": term.ubdm,
                    "analytical": term.analytical,
                    "method": term.method,
                    "requests": term.requests,
                },
            )
        )
        rows.append(
            (
                term.resource,
                str(term.observed_worst_case),
                str(term.ubdm),
                str(term.analytical),
                term.method,
                term.sandwich.status,
            )
        )
    refusal = report.end_to_end_refusal
    within = report.end_to_end_ubdm <= report.end_to_end_analytical
    detail = (
        f"end-to-end measured bound {report.end_to_end_ubdm} cycles "
        f"(analytical envelope {report.end_to_end_analytical})"
    )
    findings.append(
        Finding(
            check="end_to_end",
            verdict=VERDICT_PASS if within and refusal is None else VERDICT_FAIL,
            detail=refusal or detail,
            evidence={
                "end_to_end_ubdm": report.end_to_end_ubdm,
                "end_to_end_analytical": report.end_to_end_analytical,
                "terms": {r: t.ubdm for r, t in report.terms.items()},
                "analytical_terms": dict(report.analytical_terms),
            },
        )
    )
    if report.memory_split is not None:
        split = report.memory_split
        findings.append(
            Finding(
                check="memory_split",
                verdict=VERDICT_PASS,
                detail=split.summary(),
                evidence={
                    "memory_requests": split.memory_requests,
                    "queue_wait_max": split.queue_wait_max,
                    "queue_wait_mean": split.queue_wait_mean,
                    "service_max": split.service_max,
                    "service_mean": split.service_mean,
                },
            )
        )
    return DimensionResult(
        name="measured_bounds",
        title="Measured per-resource bounds",
        findings=tuple(findings),
        tables=(
            (
                f"{report.arch_name}/{report.topology}: observed <= ubdm <= analytical",
                ("resource", "observed", "ubdm", "analytical", "method", "check"),
                tuple(rows),
            ),
        ),
    )


# --------------------------------------------------------------------------- #
# Dimension: the per-stage sandwich cross-check.
# --------------------------------------------------------------------------- #
@register_dimension(
    "sandwich",
    "Per-stage sandwich cross-check",
    "Checks every measured term against both sides of its sandwich: it must "
    "cover the observed worst case and stay within the analytical envelope.",
)
def _sandwich(context: ConfigAuditContext) -> DimensionResult:
    report, reason = context.measured_report()
    if report is None:
        assert reason is not None
        return _unavailable("sandwich", "Per-stage sandwich cross-check", "cross_check", reason)
    findings = tuple(
        Finding(
            check=f"sandwich_{check.resource}",
            verdict=VERDICT_PASS if check.passed else VERDICT_FAIL,
            detail=check.summary(),
            evidence={
                "resource": check.resource,
                "observed_worst_case": check.observed_worst_case,
                "ubdm": check.ubdm,
                "analytical": check.analytical,
                "covers_observation": check.covers_observation,
                "within_envelope": check.within_envelope,
                "status": check.status,
            },
        )
        for check in report.cross_check.checks
    )
    return DimensionResult(
        name="sandwich",
        title="Per-stage sandwich cross-check",
        findings=findings,
    )


# --------------------------------------------------------------------------- #
# Dimension: Section 4.3 confidence criteria.
# --------------------------------------------------------------------------- #
@register_dimension(
    "confidence",
    "Saw-tooth confidence criteria",
    "Evaluates the Section 4.3 criteria attached to the ubdm estimate: bus "
    "saturation, delta_nop reliability, estimator agreement, sweep coverage "
    "and the observed floor (no bus wait the sweep saw exceeds ubdm).",
)
def _confidence(context: ConfigAuditContext) -> DimensionResult:
    methodology, reason = context.bus_methodology()
    if methodology is None:
        assert reason is not None
        return _unavailable("confidence", "Saw-tooth confidence criteria", "methodology", reason)
    findings = [
        Finding(
            check=check.name,
            verdict=VERDICT_PASS if check.passed else VERDICT_FAIL,
            detail=check.detail,
        )
        for check in methodology.confidence.checks
    ]
    findings.append(
        Finding(
            check="ubdm",
            verdict=VERDICT_PASS,
            detail=methodology.summary(),
            evidence={
                "ubdm": methodology.ubdm,
                "period_k": methodology.period.period_k,
                "delta_nop": methodology.delta_nop.cycles_per_nop,
            },
        )
    )
    return DimensionResult(
        name="confidence",
        title="Saw-tooth confidence criteria",
        findings=tuple(findings),
    )


# --------------------------------------------------------------------------- #
# Dimension: the write-burst PMC gate.
# --------------------------------------------------------------------------- #
def _burst_evidence(config: ArchConfig, result: SystemResult) -> Dict[str, object]:
    """The burst-rate numbers behind a write-burst verdict (the same
    quantities :func:`repro.analysis.confidence.assess_write_burst` gates
    on, exported for the flags payload)."""
    pmc = result.pmc
    cycles = pmc.cycles
    store_rate = 0.0
    if cycles > 0:
        store_rate = max((core.stores / cycles for core in pmc.core), default=0.0)
    service = config.dram.row_miss_latency
    return {
        "store_rate_per_cycle": store_rate,
        "row_miss_service": service,
        "writes_per_bank_service": store_rate * service,
        "store_buffer_full_stalls": max(
            (core.store_buffer_full_stalls for core in pmc.core), default=0
        ),
        "store_buffer_entries": config.store_buffer.entries,
    }


@register_dimension(
    "write_burst",
    "Write-burst queueing gate",
    "Gates the memory term's 'at most Nc - 1 queued accesses' assumption: "
    "on the audited demand traffic (fail if flagged) and under a store-rsk "
    "probe (warn if flagged — store-heavy tasks need a store-side bound).",
)
def _write_burst(context: ConfigAuditContext) -> DimensionResult:
    findings: List[Finding] = []
    report, _ = context.measured_report()
    if report is not None and report.write_burst is not None:
        check = report.write_burst
        findings.append(
            Finding(
                check="demand_traffic",
                verdict=VERDICT_PASS if check.passed else VERDICT_FAIL,
                detail=check.detail,
            )
        )
    else:
        contended, reason = context.synchrony_run()
        if contended is None:
            assert reason is not None
            return _unavailable(
                "write_burst", "Write-burst queueing gate", "demand_traffic", reason
            )
        check = assess_write_burst(context.config, contended.result.pmc)
        findings.append(
            Finding(
                check="demand_traffic",
                verdict=VERDICT_PASS if check.passed else VERDICT_FAIL,
                detail=check.detail,
                evidence=_burst_evidence(context.config, contended.result),
            )
        )
    probe, reason = context.store_probe()
    if probe is None:
        assert reason is not None
        findings.append(
            Finding(
                check="store_probe",
                verdict=VERDICT_WARN,
                detail=f"store probe could not run: {reason}",
                evidence={"fallback_reason": reason},
            )
        )
    else:
        probe_check = assess_write_burst(context.config, probe.result.pmc)
        findings.append(
            Finding(
                check="store_probe",
                verdict=VERDICT_PASS if probe_check.passed else VERDICT_WARN,
                detail=probe_check.detail,
                evidence=_burst_evidence(context.config, probe.result),
            )
        )
    return DimensionResult(
        name="write_burst",
        title="Write-burst queueing gate",
        findings=tuple(findings),
    )


# --------------------------------------------------------------------------- #
# Dimension: engine equivalence.
# --------------------------------------------------------------------------- #
def _trace_tuples(result: SystemResult) -> Optional[List[Tuple[object, ...]]]:
    if result.trace is None:
        return None
    return [
        (
            record.port,
            record.kind,
            record.addr,
            record.resource,
            record.origin_core,
            record.ready_cycle,
            record.grant_cycle,
            record.complete_cycle,
            record.service_cycles,
            record.contenders_at_ready,
            record.bus_busy_at_ready,
            record.mem_ready_cycle,
            record.mem_grant_cycle,
            record.mem_complete_cycle,
            record.response_ready_cycle,
            record.response_grant_cycle,
            record.response_complete_cycle,
        )
        for record in result.trace.records
    ]


def _observable_state(result: SystemResult) -> Dict[str, object]:
    return {
        "cycles": result.cycles,
        "done_cycles": list(result.done_cycles),
        "instructions": list(result.instructions),
        "timed_out": result.timed_out,
        "pmc": result.pmc.as_dict(),
        "trace": _trace_tuples(result),
    }


def _equivalence_run(context: ConfigAuditContext, engine: str) -> Tuple[SystemResult, Any]:
    """One contended rsk run on ``engine``: the result and the engine that ran."""
    config = context.config.with_overrides(engine=engine)
    programs: List[Optional[Program]] = [None] * config.num_cores
    programs[0] = build_rsk(config, 0, iterations=context.options.equivalence_iterations)
    for core in range(1, config.num_cores):
        programs[core] = build_rsk(config, core, iterations=None)
    system = System(config, programs, trace=True)
    return system.run(observed_cores=[0]), system.engine


_EQUIVALENCE_TITLE = "Engine cross-check (every engine vs the stepped oracle)"


@register_dimension(
    "engine_equivalence",
    _EQUIVALENCE_TITLE,
    "Replays one contended rsk run on every registered engine and compares "
    "the full observable state (times, PMCs, every trace stamp) against the "
    "stepped oracle; an engine that memoises across runs (replay) runs twice "
    "and both runs must match.",
)
def _engine_equivalence(context: ConfigAuditContext) -> DimensionResult:
    engines = registered_engines()
    if "stepped" not in engines:  # pragma: no cover - built-in engine
        return _unavailable(
            "engine_equivalence",
            _EQUIVALENCE_TITLE,
            "oracle",
            "the stepped oracle engine is not registered",
        )
    oracle, _ = _equivalence_run(context, "stepped")
    oracle_state = _observable_state(oracle)
    findings: List[Finding] = []
    for engine in engines:
        if engine == "stepped":
            continue
        result, ran = _equivalence_run(context, engine)
        states = [_observable_state(result)]
        evidence: Dict[str, object] = {
            "engine": engine,
            "cycles": result.cycles,
            "oracle_cycles": oracle.cycles,
            "traced_requests": (len(result.trace.records) if result.trace is not None else 0),
        }
        if hasattr(ran, "fallback_reason"):
            evidence["fallback_reason"] = ran.fallback_reason
        if hasattr(ran, "captured_cores"):
            # The engine memoises across runs: the first run may only have
            # captured, so a second run is what exercises the replay path.
            warm_result, warm = _equivalence_run(context, engine)
            states.append(_observable_state(warm_result))
            evidence["replayed_cores"] = list(warm.replayed_cores)
        matches = all(state == oracle_state for state in states)
        if not matches:
            diverged = [
                key
                for key in oracle_state
                if any(state.get(key) != oracle_state[key] for state in states)
            ]
            evidence["diverged_fields"] = diverged
        findings.append(
            Finding(
                check=f"{engine}_vs_stepped",
                verdict=VERDICT_PASS if matches else VERDICT_FAIL,
                detail=(
                    f"{engine} engine reproduces the stepped oracle's observable "
                    f"state over {oracle.cycles} cycles"
                    if matches
                    else f"{engine} engine diverged from the stepped oracle"
                ),
                evidence=evidence,
            )
        )
    return DimensionResult(
        name="engine_equivalence",
        title=_EQUIVALENCE_TITLE,
        findings=tuple(findings),
    )


# --------------------------------------------------------------------------- #
# Dimension: the synchrony effect and the observed bound.
# --------------------------------------------------------------------------- #
@register_dimension(
    "synchrony",
    "Synchrony and observed bound",
    "Histograms the contention delay of a contended load rsk: every observed "
    "delay must respect the analytical bound, and most requests should sit "
    "on the synchrony plateau.",
)
def _synchrony(context: ConfigAuditContext) -> DimensionResult:
    contended, reason = context.synchrony_run()
    if contended is None:
        assert reason is not None
        return _unavailable("synchrony", "Synchrony and observed bound", "histogram", reason)
    assert contended.trace is not None
    histogram: ContentionHistogram = contention_histogram(contended.trace, 0)
    findings: List[Finding] = []
    refusal = admissibility(context.config)[EQUATION_1]
    if refusal is None:
        ubd = context.config.ubd
        respected = histogram.max_observed <= ubd
        findings.append(
            Finding(
                check="bound_respected",
                verdict=VERDICT_PASS if respected else VERDICT_FAIL,
                detail=(
                    f"worst observed contention delay {histogram.max_observed} "
                    f"cycles versus analytical ubd {ubd}"
                ),
                evidence={
                    "max_observed": histogram.max_observed,
                    "analytical_ubd": ubd,
                    "total_requests": histogram.total_requests,
                },
            )
        )
    else:
        findings.append(
            Finding(
                check="bound_respected",
                verdict=VERDICT_WARN,
                detail=refusal,
                evidence={"fallback_reason": refusal, "max_observed": histogram.max_observed},
            )
        )
    plateau = histogram.fraction_at_mode()
    findings.append(
        Finding(
            check="synchrony_plateau",
            verdict=VERDICT_PASS if plateau >= 0.5 else VERDICT_WARN,
            detail=(
                f"{plateau:.0%} of requests sit on the modal delay of "
                f"{histogram.mode} cycles (bus utilisation "
                f"{contended.bus_utilisation:.0%})"
            ),
            evidence={
                "mode": histogram.mode,
                "fraction_at_mode": plateau,
                "bus_utilisation": contended.bus_utilisation,
            },
        )
    )
    return DimensionResult(
        name="synchrony",
        title="Synchrony and observed bound",
        findings=tuple(findings),
        histograms=(
            (
                "Contention delay per rsk request",
                "gamma",
                dict(histogram.counts),
            ),
        ),
    )


def audit_config(
    config: ArchConfig, options: Optional[AuditOptions] = None
) -> Tuple[DimensionResult, ...]:
    """Evaluate every registered config-mode dimension over ``config``."""
    context = ConfigAuditContext(config, options)
    return tuple(entry.run(context) for entry in CONFIG_DIMENSIONS.values())
