"""Span recorder that wraps ``repro`` entry points from outside the package.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces a
fixed list of public entry points (:data:`TARGETS`) with timing wrappers for
the duration of a ``with`` block and restores the originals on exit:

* a method is wrapped on its class object (``System.run`` is patched on
  ``repro.sim.system.System``), so every instance and subclass sees it;
* a module-level function is wrapped in *every* ``repro`` module that holds
  it under some name, because ``from .rsk import build_rsk_nop`` copies the
  function object into the importing module's namespace.

Every target is called O(simulation runs) times at most; nothing per cycle
or per bus request is wrapped, so tracing does not change what it measures
by more than the reported ``trace.overhead_frac``.

The spans are written as a Chrome trace-event JSON file (opens in Perfetto
or ``chrome://tracing``) and turned into per-layer metrics by
:func:`layer_metrics`, which works on the file contents alone.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Marker attribute set on every wrapper; :func:`installed_wrappers` looks for it.
WRAPPED_MARK = "__perfbench_wrapped__"

#: Layers whose self time the benchmark reports, in call-graph order.
LAYERS = ("kernels", "sim", "methodology", "analysis", "campaign", "audit", "report")


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module`` + ``qualname`` in ``layer``."""

    layer: str
    module: str
    qualname: str


def _targets(layer: str, module: str, *qualnames: str) -> List[Target]:
    return [Target(layer, module, name) for name in qualnames]


#: The public entry points the traced run wraps, one group per layer.
TARGETS: Tuple[Target, ...] = tuple(
    _targets(
        "kernels",
        "repro.kernels.rsk",
        "build_rsk",
        "build_rsk_nop",
        "build_bank_conflict_rsk",
        "build_response_conflict_rsk",
        "build_nop_kernel",
        "build_stress_contender_set",
    )
    + _targets("kernels", "repro.kernels.synthetic", "build_synthetic_kernel")
    + _targets("sim", "repro.sim.system", "System.__init__", "System.run")
    + _targets("sim", "repro.sim.scheduler", "make_engine")
    + _targets(
        "methodology",
        "repro.methodology.experiment",
        "ExperimentRunner.run_isolation",
        "ExperimentRunner.run_contended",
        "ExperimentRunner.run_against_rsk",
        "ExperimentRunner.run_pair",
    )
    + _targets(
        "methodology",
        "repro.methodology.ubd",
        "UbdEstimator.run",
        "UbdEstimator.measure_point",
        "MeasuredBoundPipeline.run",
        "MeasuredBoundPipeline.run_stress",
    )
    + _targets("analysis", "repro.analysis.sawtooth", "SawtoothAnalyzer.estimate")
    + _targets("analysis", "repro.analysis.injection", "derive_delta_nop")
    + _targets(
        "analysis", "repro.analysis.confidence", "assess_confidence", "assess_write_burst"
    )
    + _targets(
        "analysis",
        "repro.analysis.contention",
        "latency_decomposition",
        "contention_histogram",
        "contender_histogram",
        "cross_check_stage_bounds",
        "memory_term_split",
    )
    + _targets("campaign", "repro.campaign.spec", "CampaignSpec.expand")
    + _targets(
        "campaign", "repro.campaign.store", "ResultStore.get_many", "ResultStore.put_many"
    )
    + _targets(
        "campaign",
        "repro.campaign.artifacts",
        "CampaignStreamWriter.begin",
        "CampaignStreamWriter.append",
        "CampaignStreamWriter.checkpoint",
        "CampaignStreamWriter.finalize",
        "CampaignStreamWriter.abandon",
    )
    + _targets(
        "campaign", "repro.campaign.runner", "ParallelRunner.run", "summarize_records"
    )
    + _targets("audit", "repro.audit.runner", "run_audit", "write_artifacts")
    + _targets("audit", "repro.audit.dimensions", "audit_config")
    + _targets("report", "repro.audit.html", "render_html")
    + _targets("report", "repro.report.tables", "render_table", "render_series")
    + _targets("report", "repro.report.histogram", "render_histogram")
    + _targets("report", "repro.report.campaign", "render_campaign_summary")
)

#: Modules imported before wrapping so that lazily imported ones (the CLI
#: imports ``repro.audit`` inside the audit command) already hold the
#: wrapped objects when the command reaches them.
PRELOAD_MODULES = ("repro.cli", "repro.audit")


@dataclass
class Span:
    """One completed call of a wrapped entry point (times in nanoseconds)."""

    name: str
    layer: str
    start: int
    end: int
    tid: int
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


def _engine_args(engine: Any) -> Dict[str, Any]:
    """Which engine ran a ``System.run`` and whether (and why) it fell back."""
    name = getattr(engine, "name", type(engine).__name__)
    args: Dict[str, Any] = {"engine": name, "engine_class": type(engine).__name__}
    reason = getattr(engine, "fallback_reason", None)
    reasons = getattr(engine, "fallback_reasons", None)
    if reason:
        args["fallback_reason"] = str(reason)
    if reasons:
        args["fallback_reasons"] = {str(core): str(why) for core, why in reasons.items()}
    for attribute in ("replayed_cores", "captured_cores"):
        cores = getattr(engine, attribute, None)
        if cores is not None:
            args[attribute] = list(cores)
    args["fallback"] = bool(reason or reasons)
    return args


class Tracer:
    """Installs timing wrappers on :data:`TARGETS` inside a ``with`` block."""

    def __init__(
        self, targets: Sequence[Target] = TARGETS, worker_dir: Optional[str] = None
    ) -> None:
        self.targets = tuple(targets)
        #: Where forked pool workers write their own spans, if anywhere.
        self.worker_dir = worker_dir
        self.spans: List[Span] = []
        self.origin = time.perf_counter_ns()
        self._restore: List[Tuple[Any, str, Any]] = []
        self._last_engine: Any = None
        #: Per-target hooks that copy counts out of a call's result.
        self._hooks: Dict[str, Callable[[Span, Any], None]] = {
            "System.run": self._on_system_run,
            "make_engine": self._on_make_engine,
            "UbdEstimator.measure_point": self._on_measure_point,
            "ParallelRunner.run": self._on_parallel_run,
        }

    # -- hooks ------------------------------------------------------------ #
    def _on_make_engine(self, span: Span, result: Any) -> None:
        self._last_engine = result
        span.args["engine"] = getattr(result, "name", type(result).__name__)

    def _on_system_run(self, span: Span, result: Any) -> None:
        span.args.update(
            cycles=result.cycles,
            instructions=sum(result.instructions),
            bus_requests=result.pmc.total_requests(),
            dram_accesses=result.pmc.dram_accesses,
        )
        if self._last_engine is not None:
            span.args.update(_engine_args(self._last_engine))
            self._last_engine = None

    def _on_measure_point(self, span: Span, result: Any) -> None:
        span.args["k"] = result.k

    def _on_parallel_run(self, span: Span, result: Any) -> None:
        for key in ("runs", "simulated", "cached", "jobs", "shards"):
            if key in result.stats:
                span.args[key] = result.stats[key]

    # -- pool workers ----------------------------------------------------- #
    def _in_worker(self) -> None:
        """Run in a forked ``multiprocessing`` child: keep only the child's
        own spans and write them when it exits (the pool joins its workers
        before the campaign returns, so the files exist by then)."""
        self.spans.clear()
        multiprocessing.util.Finalize(None, self._write_worker_spans, exitpriority=100)

    def _write_worker_spans(self) -> None:
        assert self.worker_dir is not None
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        write_json(path, self.chrome_trace({"worker": True}))

    # -- wrapping --------------------------------------------------------- #
    def _wrap(self, target: Target, function: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        hook = self._hooks.get(target.qualname)
        name, layer = target.qualname, target.layer
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span = Span(name, layer, start, clock(), threading.get_native_id())
                spans.append(span)
            if hook is not None:
                hook(span, result)
            return result

        wrapper.__name__ = getattr(function, "__name__", name)
        wrapper.__qualname__ = getattr(function, "__qualname__", name)
        wrapper.__doc__ = function.__doc__
        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def install(self) -> None:
        """Import the target modules and swap every target for its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name in PRELOAD_MODULES + tuple(t.module for t in self.targets):
            importlib.import_module(module_name)
        for target in self.targets:
            module = sys.modules[target.module]
            if "." in target.qualname:
                class_name, attribute = target.qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                wrapped = self._wrap(target, raw)
                self._restore.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
                continue
            original = getattr(module, target.qualname)
            wrapped = self._wrap(target, original)
            for holder in _repro_modules():
                for attribute, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, attribute, original))
                        setattr(holder, attribute, wrapped)
        if self.worker_dir is not None:
            multiprocessing.util.register_after_fork(self, Tracer._in_worker)

    def uninstall(self) -> None:
        """Put every original object back, newest replacement first."""
        while self._restore:
            holder, attribute, original = self._restore.pop()
            setattr(holder, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------- #
    def chrome_trace(self, other: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The spans as a Chrome trace-event JSON object (``ph: X`` events)."""
        pid = os.getpid()
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": "repro-bounds"}}
        ]
        for span in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start - self.origin) / 1000.0,
                    "dur": span.duration / 1000.0,
                    "pid": pid,
                    "tid": span.tid,
                    "args": span.args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other or {}}


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def installed_wrappers() -> List[str]:
    """Names of wrappers still reachable from a ``repro`` module or class."""
    found = []
    for module in _repro_modules():
        for attribute, value in list(vars(module).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module.__name__}.{attribute}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, raw in vars(value).items():
                    if getattr(raw, WRAPPED_MARK, False):
                        found.append(f"{module.__name__}.{attribute}.{member}")
    return found


# --------------------------------------------------------------------------- #
# Reading a trace back: self times and per-layer metrics.
# --------------------------------------------------------------------------- #


def spans_from_chrome(trace: Dict[str, Any]) -> List[Span]:
    """The ``ph: X`` events of a Chrome trace as spans (nanoseconds)."""
    spans = []
    for event in trace["traceEvents"]:
        if event.get("ph") != "X":
            continue
        start = round(event["ts"] * 1000)
        spans.append(
            Span(
                name=event["name"],
                layer=event["cat"],
                start=start,
                end=start + round(event["dur"] * 1000),
                tid=event["tid"],
                args=event.get("args", {}),
            )
        )
    return spans


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part of it its child spans cover.

    Spans of one thread nest like the calls that made them; a span's
    children are the spans that start inside it and are not inside one of
    its other children.  Returned in the order of ``spans``.
    """
    result = [span.duration for span in spans]
    by_thread: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        by_thread.setdefault(span.tid, []).append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: List[int] = []
        for index in indices:
            span = spans[index]
            while stack and spans[stack[-1]].end <= span.start:
                stack.pop()
            if stack:
                parent = spans[stack[-1]]
                covered = min(span.end, parent.end) - span.start
                result[stack[-1]] -= covered
            stack.append(index)
    return result


def _outermost(spans: Sequence[Span], layer: str) -> int:
    """Calls into ``layer`` that were not made from inside that layer."""
    count = 0
    by_thread: Dict[int, List[Span]] = {}
    for span in spans:
        by_thread.setdefault(span.tid, []).append(span)
    for thread_spans in by_thread.values():
        open_until = -1
        for span in sorted(thread_spans, key=lambda s: (s.start, -s.end)):
            if span.layer != layer:
                continue
            if span.start >= open_until:
                count += 1
                open_until = span.end
    return count


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per layer, in seconds."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own / 1e9
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced invocation (see the README glossary)."""
    spans = spans_from_chrome(trace)
    own = self_times(spans)

    def seconds(*names: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name in names) / 1e9

    def calls(name: str) -> List[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str, key: str) -> int:
        return sum(int(s.args.get(key, 0)) for s in calls(name))

    layers = layer_self_seconds(spans)
    runs = calls("System.run")
    run_s = seconds("System.run", "make_engine")
    cycles = total("System.run", "cycles")
    instructions = total("System.run", "instructions")
    cache = trace.get("otherData", {}).get("trace_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    simulated = total("ParallelRunner.run", "simulated")
    cached = total("ParallelRunner.run", "cached")
    return {
        "kernels.build_s": layers["kernels"],
        "kernels.builds": _outermost(spans, "kernels"),
        "sim.build_s": seconds("System.__init__"),
        "sim.builds": len(calls("System.__init__")),
        "sim.run_s": run_s,
        "sim.runs": len(runs),
        "sim.cycles": cycles,
        "sim.instructions": instructions,
        "sim.cycles_per_s": _ratio(cycles, run_s),
        "sim.instructions_per_s": _ratio(instructions, run_s),
        "sim.bus_requests": total("System.run", "bus_requests"),
        "sim.dram_accesses": total("System.run", "dram_accesses"),
        "sim.fallback_runs": sum(1 for s in runs if s.args.get("fallback")),
        "sim.replay.captures": cache.get("captures", 0),
        "sim.replay.hit_ratio": _ratio(cache.get("hits", 0), lookups),
        "methodology.self_s": layers["methodology"],
        "methodology.sweep_points": len(calls("UbdEstimator.measure_point")),
        "methodology.stress_runs": len(calls("MeasuredBoundPipeline.run_stress")),
        "analysis.self_s": layers["analysis"],
        "analysis.period_detect_s": sum(s.duration for s in calls("SawtoothAnalyzer.estimate"))
        / 1e9,
        "analysis.period_detect_calls": len(calls("SawtoothAnalyzer.estimate")),
        "analysis.decompose_s": sum(s.duration for s in calls("latency_decomposition")) / 1e9,
        "campaign.expand_s": seconds("CampaignSpec.expand"),
        "campaign.store_read_s": seconds("ResultStore.get_many"),
        "campaign.store_write_s": seconds("ResultStore.put_many"),
        "campaign.artifacts_s": sum(
            t for s, t in zip(spans, own) if s.name.startswith("CampaignStreamWriter.")
        )
        / 1e9,
        "campaign.dispatch_wait_s": seconds("ParallelRunner.run"),
        "campaign.summary_s": seconds("summarize_records"),
        "campaign.simulated": simulated,
        "campaign.cached": cached,
        "campaign.hit_ratio": _ratio(cached, simulated + cached),
        "audit.self_s": seconds("run_audit", "audit_config"),
        "audit.artifacts_s": seconds("write_artifacts"),
        "report.render_s": layers["report"],
    }


def layer_table(trace: Dict[str, Any], wall_s: float) -> str:
    """A plain-text per-layer self-time table for one traced invocation.

    ``wall_s`` is that invocation's wall time.  Pool workers run in
    parallel with the main process, so the layers can sum past it.
    """
    spans = spans_from_chrome(trace)
    totals = layer_self_seconds(spans)
    lines = [f"{'layer':<12} {'self_s':>9} {'spans':>7}"]
    for layer, seconds in totals.items():
        count = sum(1 for span in spans if span.layer == layer)
        lines.append(f"{layer:<12} {seconds:>9.3f} {count:>7}")
    lines.append(f"{'wall':<12} {wall_s:>9.3f}")
    return "\n".join(lines)


def write_json(path: "os.PathLike[str] | str", payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_json(path: "os.PathLike[str] | str") -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        data: Dict[str, Any] = json.load(handle)
    return data
