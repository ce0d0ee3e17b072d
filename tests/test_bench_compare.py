"""Tests for the perf-regression compare gate on hand-built BENCH payloads.

``benchmarks/perf/test_bench_harness.py`` drives the gate with payloads
measured by the real harness; these tests pin the gate's own semantics —
which field each metric reads, the tolerance boundary, the argument checks
and the multi-file wrapper — without running a single simulation.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import BENCH_SCHEMA_VERSION, compare_payloads
from repro.bench.__main__ import main as bench_main
from repro.bench.compare import METRICS, compare_files

#: Where each gated metric lives in a payload: (section, path to the value).
METRIC_FIELDS = {
    "speedup": ("workloads", ("speedups", "event")),
    "codegen_speedup": ("workloads", ("speedups", "codegen")),
    "replay_speedup": ("workloads", ("speedups", "replay")),
    "cycles_per_sec": ("workloads", ("engines", "event", "cycles_per_sec")),
    "campaign_warm_speedup": ("campaigns", ("warm_speedup",)),
    "campaign_replay_speedup": ("campaigns", ("campaign_replay_speedup",)),
}


def _payload(rev: str = "old", quick: bool = True) -> dict:
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "rev": rev,
        "quick": quick,
        "workloads": [
            {
                "name": "small/round_robin/load",
                "speedups": {"event": 4.0, "codegen": 8.0, "replay": 12.0},
                "engines": {"event": {"cycles_per_sec": 1000.0}},
            }
        ],
        "campaigns": [
            {"name": "small/grid", "warm_speedup": 20.0, "campaign_replay_speedup": 2.0},
        ],
    }


def _scaled(payload: dict, metric: str, factor: float) -> dict:
    """A copy of ``payload`` with ``metric`` multiplied by ``factor``."""
    scaled = copy.deepcopy(payload)
    section, path = METRIC_FIELDS[metric]
    entry = scaled[section][0]
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] *= factor
    return scaled


def test_every_metric_has_a_known_field():
    assert set(METRIC_FIELDS) == set(METRICS)


@pytest.mark.parametrize("metric", METRICS)
def test_each_metric_gates_its_own_field(metric):
    """Halving a metric fails its own gate and no other one."""
    old = _payload()
    halved = _scaled(old, metric, 0.5)
    result = compare_payloads(old, halved, metric=metric)
    assert result.ok is False
    assert len(result.regressions) == 1
    assert "REGRESSED" in result.render()
    for other in METRICS:
        if other != metric:
            assert compare_payloads(old, halved, metric=other).ok


def test_drop_exactly_at_the_tolerance_passes():
    old = _payload()
    assert compare_payloads(old, _scaled(old, "speedup", 0.75), max_regression=0.25).ok
    assert not compare_payloads(old, _scaled(old, "speedup", 0.74), max_regression=0.25).ok


def test_improvements_always_pass():
    old = _payload()
    faster = _scaled(old, "speedup", 3.0)
    result = compare_payloads(old, faster, max_regression=0.0)
    assert result.ok
    assert result.render().splitlines()[-1].startswith("PASS: 0 regression(s)")


@pytest.mark.parametrize("tolerance", [-0.01, 1.0], ids=["negative", "one"])
def test_tolerance_outside_the_unit_interval_is_refused(tolerance):
    with pytest.raises(ValueError, match="max_regression"):
        compare_payloads(_payload(), _payload(), max_regression=tolerance)


def test_unknown_metric_is_refused():
    with pytest.raises(ValueError, match="unknown metric"):
        compare_payloads(_payload(), _payload(), metric="latency")


def test_different_measurement_sizes_warn_but_still_gate():
    old = _payload(quick=True)
    new = _scaled(_payload(quick=False), "speedup", 0.5)
    result = compare_payloads(old, new)
    assert "measured at different sizes" in result.render()
    assert result.ok is False


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_compare_files_gates_every_candidate(tmp_path):
    old = _payload()
    baseline = _write(tmp_path / "BENCH_old.json", old)
    same = _write(tmp_path / "BENCH_same.json", _payload(rev="same"))
    slower = _write(tmp_path / "BENCH_slower.json", _scaled(_payload(rev="slower"), "speedup", 0.5))
    result = compare_files(baseline, [same, slower])
    assert result.ok is False
    assert result.regressions == ["small/round_robin/load"]
    # One report per candidate, in argument order.
    headers = [line for line in result.lines if line.startswith("comparing")]
    assert len(headers) == 2
    assert "new rev same" in headers[0] and "new rev slower" in headers[1]
    assert compare_files(baseline, [same]).ok


@pytest.mark.parametrize("factor, code", [(1.0, 0), (0.5, 2)], ids=["pass", "regressed"])
def test_compare_cli_exit_code_follows_the_gate(tmp_path, capsys, factor, code):
    baseline = _write(tmp_path / "BENCH_old.json", _payload())
    candidate = _write(tmp_path / "BENCH_new.json", _scaled(_payload(rev="new"), "speedup", factor))
    assert bench_main(["compare", str(baseline), str(candidate)]) == code
    assert ("FAIL" if code else "PASS") in capsys.readouterr().out
