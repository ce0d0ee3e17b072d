"""Self-tests of the benchmark itself (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The smoke tests run every workload once at a tiny size (about a minute in
all, most of it the store sweep, which has no smaller setting).
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
from run import Bench, declared_metrics  # noqa: E402
from workloads import AuditSplitBus, Campaign, DeriveLoad, DeriveStore  # noqa: E402


def _span(name: str, layer: str, start: int, end: int, tid: int = 1) -> tracer.Span:
    return tracer.Span(name, layer, start, end, tid)


def test_self_time_subtracts_only_direct_children() -> None:
    spans = [
        _span("outer", "methodology", 0, 100),
        _span("middle", "sim", 10, 40),
        _span("inner", "kernels", 20, 30),
        _span("second", "sim", 50, 70),
        _span("other-thread", "sim", 0, 50, tid=2),
    ]
    assert tracer.self_times(spans) == [50, 20, 10, 20, 50]
    layers = tracer.layer_self_seconds(spans)
    assert layers["methodology"] == 50e-9
    assert layers["sim"] == 90e-9
    assert layers["kernels"] == 10e-9


def test_self_time_of_same_layer_nesting_and_back_to_back_calls() -> None:
    spans = [
        _span("build_stress_contender_set", "kernels", 0, 50),
        _span("build_rsk", "kernels", 5, 20),
        _span("build_rsk", "kernels", 20, 45),
        _span("build_rsk", "kernels", 60, 70),
    ]
    assert tracer.self_times(spans) == [10, 15, 25, 10]
    # Nested calls inside the layer are one build; the later call another.
    assert tracer._outermost(spans, "kernels") == 2


def test_chrome_round_trip_keeps_nanosecond_spans() -> None:
    recorder = tracer.Tracer(targets=())
    origin = recorder.origin
    recorder.spans = [_span("System.run", "sim", origin + 1_234_567, origin + 2_000_001)]
    events = recorder.chrome_trace()
    (span,) = tracer.spans_from_chrome(events)
    assert (span.start, span.duration) == (1_234_567, 765_434)


def test_wrappers_are_installed_then_removed(capsys: pytest.CaptureFixture[str]) -> None:
    from repro.cli import main
    from repro.kernels import rsk
    from repro.methodology import ubd
    from repro.sim.system import System

    originals = (System.__dict__["run"], rsk.build_rsk_nop, ubd.build_rsk_nop)
    with tracer.Tracer() as recorder:
        assert "repro.methodology.ubd.build_rsk_nop" in tracer.installed_wrappers()
        assert "repro.sim.system.System.run" in tracer.installed_wrappers()
        main(["--preset", "small", "derive-ubd", "--iterations", "2", "--k-max", "12"])
    capsys.readouterr()
    assert tracer.installed_wrappers() == []
    assert (System.__dict__["run"], rsk.build_rsk_nop, ubd.build_rsk_nop) == originals
    runs = [span for span in recorder.spans if span.name == "System.run"]
    assert runs and all(span.args["engine"] == "event" for span in runs)
    assert any(span.name == "UbdEstimator.measure_point" for span in recorder.spans)


TINY = {
    "derive-load": DeriveLoad(iterations=4),
    "derive-store": DeriveStore(iterations=1),
    "campaign": Campaign(workloads=2, iterations=5),
    "audit-split-bus": AuditSplitBus(iterations=4, synchrony_iterations=20),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_every_workload_at_tiny_size(name: str) -> None:
    bench = Bench(TINY[name])
    try:
        metrics = bench.timed(seed=7, seconds=0)
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
    assert bench.problems == []
    assert set(metrics) == {metric for metric, _ in declared_metrics(trace=False)}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", ["derive-load", "campaign"])
def test_smoke_traced_run_emits_every_per_layer_metric(name: str) -> None:
    bench = Bench(TINY[name])
    try:
        metrics = bench.traced(seed=7)
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
    assert bench.problems == []
    assert set(metrics) == {metric for metric, _ in declared_metrics(trace=True)}
    # The campaign simulates in forked pool workers; their spans count too.
    assert metrics["sim.runs"] == metrics["sim.builds"] > 0
    if name == "derive-load":
        assert metrics["methodology.sweep_points"] == 60
    else:
        assert metrics["campaign.simulated"] > 0
