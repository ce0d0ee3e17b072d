"""Smoke tests for the perf harness and its compare gate.

These run one tiny workload through the real measurement loop (so the
BENCH payload schema stays exercised in tier-1) and check the compare
gate's pass/fail behaviour with doctored payloads.  The actual speedup
numbers are asserted only loosely here — the CI perf job and the committed
baseline gate the real magnitudes.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BenchWorkload,
    CampaignBench,
    compare_payloads,
    load_payload,
    render_report,
    run_benchmarks,
)
from repro.bench.__main__ import main as bench_main
from repro.bench.harness import _build_system

TINY = BenchWorkload(
    name="small/round_robin/load",
    preset="small",
    arbiter="round_robin",
    iterations=120,
    quick_iterations=120,
)

TINY_CAMPAIGN = CampaignBench(
    name="small/tiny",
    preset="small",
    seeds=(7,),
    quick_seeds=(7,),
    workloads=1,
    quick_workloads=1,
    iterations=4,
    quick_iterations=4,
    rsk_iterations=8,
    quick_rsk_iterations=8,
    jobs_axis=(2,),
)


@pytest.fixture(scope="module")
def payload():
    return run_benchmarks(
        workloads=(TINY,), quick=True, repeats=1, rev="test", campaigns=(TINY_CAMPAIGN,)
    )


class TestHarness:
    def test_payload_schema(self, payload):
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["rev"] == "test"
        (entry,) = payload["workloads"]
        assert entry["name"] == TINY.name
        assert entry["cycles"] > 0
        assert entry["engines"]["stepped"]["cycles"] == entry["engines"]["event"]["cycles"]
        assert entry["engines"]["stepped"]["cycles"] == entry["engines"]["codegen"]["cycles"]
        assert "speedup" not in entry  # the event-engine mirror is gone
        assert entry["speedups"]["event"] > 0
        assert entry["speedups"]["codegen"] > 0
        assert entry["speedups"]["replay"] > 0
        summary = payload["summary"]
        assert summary["engines"]["event"]["min_speedup"] == entry["speedups"]["event"]
        assert set(summary["engines"]) == {"event", "codegen", "replay"}
        assert "min_speedup" not in summary

    def test_payload_is_json_serialisable(self, payload):
        rebuilt = json.loads(json.dumps(payload))
        assert rebuilt["workloads"][0]["name"] == TINY.name

    def test_render_report_mentions_every_workload(self, payload):
        report = render_report(payload)
        assert TINY.name in report
        assert "speedup" in report

    def test_bank_queue_workload_measures_and_stamps_topology(self):
        """The bank-contention scenario runs through the harness: a chained
        topology, no L2 preload (every miss arbitrates for its bank) and the
        cross-engine cycle check that run_benchmarks performs internally."""
        chained = BenchWorkload(
            name="small/round_robin/load-bank-queues",
            preset="small",
            arbiter="round_robin",
            topology="bus_bank_queues",
            preload_l2=False,
            iterations=80,
            quick_iterations=80,
        )
        payload = run_benchmarks(workloads=(chained,), quick=True, repeats=1, rev="t")
        (entry,) = payload["workloads"]
        assert entry["topology"] == "bus_bank_queues"
        assert entry["engines"]["stepped"]["cycles"] == entry["engines"]["event"]["cycles"]

    def test_campaign_entry_schema_and_guarantees(self, payload):
        """The campaigns section records cold/warm runs-per-sec, the bare
        artifact reads, the gated warm_speedup ratio and the
        parallel-efficiency series; the warm phase must have read each
        unique run's artifact once and written none, with zero simulations
        (violations raise inside the harness)."""
        (entry,) = payload["campaigns"]
        assert entry["name"] == TINY_CAMPAIGN.name
        assert entry["runs"] == 2  # one workload + the rsk reference
        assert entry["unique_runs"] == 2
        assert entry["cold"]["runs_per_sec"] > 0
        assert entry["warm"]["runs_per_sec"] > 0
        # A warm re-run skips every simulation, so it must beat cold.
        assert entry["warm"]["runs_per_sec"] > entry["cold"]["runs_per_sec"]
        # The gated ratio is taken over bare reads of the same artifacts.
        reads = entry["artifact_reads"]
        assert reads["runs_per_sec"] == pytest.approx(entry["runs"] / reads["seconds"])
        assert entry["warm_speedup"] == pytest.approx(
            entry["warm"]["runs_per_sec"] / reads["runs_per_sec"]
        )
        assert entry["warm_speedup"] > 0
        assert entry["warm"]["counters"]["artifact_reads"] == entry["unique_runs"]
        assert entry["warm"]["counters"]["artifact_writes"] == 0
        assert set(entry["parallel"]) == {"2"}
        series = entry["parallel"]["2"]
        assert series["runs_per_sec"] > 0
        assert series["efficiency"] == pytest.approx(series["speedup"] / 2)
        assert payload["summary"]["campaign_geomean_warm_speedup"] == pytest.approx(
            entry["warm_speedup"]
        )

    def test_campaigns_render_and_serialise(self, payload):
        report = render_report(payload)
        assert TINY_CAMPAIGN.name in report
        assert "warm" in report
        rebuilt = json.loads(json.dumps(payload))
        assert rebuilt["campaigns"][0]["name"] == TINY_CAMPAIGN.name

    def test_campaign_family_can_be_skipped(self):
        payload = run_benchmarks(
            workloads=(TINY,), quick=True, repeats=1, rev="t", campaigns=()
        )
        assert payload["campaigns"] == []
        assert payload["summary"]["campaign_geomean_warm_speedup"] is None

    def test_topology_bearing_preset_keeps_its_topology(self):
        """A workload that does not override the topology runs on the
        preset's own — multi_resource must not silently downgrade to
        bus_only — and the payload entry records the effective topology."""
        workload = BenchWorkload(
            name="multi_resource/round_robin/load",
            preset="multi_resource",
            arbiter="round_robin",
            preload_l2=False,
            iterations=60,
            quick_iterations=60,
        )
        system, _ = _build_system(workload, quick=True)
        assert system.config.topology.name == "bus_bank_queues"
        payload = run_benchmarks(workloads=(workload,), quick=True, repeats=1, rev="t")
        assert payload["workloads"][0]["topology"] == "bus_bank_queues"


class TestCompareGate:
    def test_identical_payloads_pass(self, payload):
        result = compare_payloads(payload, payload)
        assert result.ok
        assert not result.regressions

    def test_regression_fails(self, payload):
        slower = copy.deepcopy(payload)
        slower["workloads"][0]["speedups"]["event"] *= 0.5
        result = compare_payloads(payload, slower, max_regression=0.15)
        assert not result.ok
        assert result.regressions == [TINY.name]
        assert "REGRESSED" in result.render()

    def test_within_tolerance_passes(self, payload):
        slightly = copy.deepcopy(payload)
        slightly["workloads"][0]["speedups"]["event"] *= 0.9
        assert compare_payloads(payload, slightly, max_regression=0.15).ok

    def test_codegen_speedup_metric_gates_the_generated_loop(self, payload):
        """The codegen leg of the perf job gates entry["speedups"]["codegen"]
        — a regression of the generated loop must fail even when the event
        engine's speedup is untouched."""
        slower = copy.deepcopy(payload)
        slower["workloads"][0]["speedups"]["codegen"] *= 0.5
        assert compare_payloads(payload, slower, metric="codegen_speedup").ok is False
        assert compare_payloads(payload, slower, metric="speedup").ok

    def test_campaign_warm_speedup_metric_gates_the_store_path(self, payload):
        """The campaign leg of the perf job gates entry["warm_speedup"] of
        the campaigns section — a slower warm-hit path must fail even when
        every engine workload is untouched, and vice versa."""
        slower = copy.deepcopy(payload)
        slower["campaigns"][0]["warm_speedup"] *= 0.5
        assert compare_payloads(payload, slower, metric="campaign_warm_speedup").ok is False
        assert compare_payloads(payload, slower, metric="speedup").ok

    def test_missing_workload_fails(self, payload):
        empty = copy.deepcopy(payload)
        empty["workloads"] = []
        result = compare_payloads(payload, empty)
        assert not result.ok
        assert "MISSING" in result.render()

    def test_new_workloads_are_additions_warn_not_fail(self, payload):
        """Scenarios missing from the baseline are additions: reported with
        a refresh-the-baseline warning, but never gated, so adding bench
        coverage cannot break the perf gate."""
        grown = copy.deepcopy(payload)
        extra = copy.deepcopy(grown["workloads"][0])
        extra["name"] = "extra/workload"
        grown["workloads"].append(extra)
        result = compare_payloads(payload, grown)
        assert result.ok
        assert not result.regressions
        rendered = result.render()
        assert "ADDED" in rendered
        assert "warning" in rendered
        assert "extra/workload" in rendered


class TestCli:
    def test_run_and_compare_round_trip(self, tmp_path, capsys):
        code = bench_main(
            [
                "run",
                "--quick",
                "--repeats",
                "1",
                "--rev",
                "cli-test",
                "--out",
                str(tmp_path),
                "--workload",
                "ref/round_robin/load",
            ]
        )
        assert code == 0
        artifact = tmp_path / "BENCH_cli-test.json"
        assert artifact.is_file()
        payload = load_payload(artifact)
        assert payload["workloads"][0]["name"] == "ref/round_robin/load"
        code = bench_main(["compare", str(artifact), str(artifact), "--max-regression", "0.15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_compare_rejects_newer_schema_but_loads_older(self, tmp_path):
        """A payload stamped by a *newer* tool is refused (its metrics may
        have changed meaning); an *older* stamp loads fine — the section
        layout is append-only and compare warns on metrics it predates."""
        newer = tmp_path / "BENCH_newer.json"
        newer.write_text(
            json.dumps({"schema": BENCH_SCHEMA_VERSION + 1, "workloads": []}),
            encoding="utf-8",
        )
        with pytest.raises(ValueError):
            load_payload(newer)
        older = tmp_path / "BENCH_older.json"
        older.write_text(json.dumps({"schema": 1, "workloads": []}), encoding="utf-8")
        assert load_payload(older)["schema"] == 1
        not_an_int = tmp_path / "BENCH_bad.json"
        not_an_int.write_text(json.dumps({"schema": "x", "workloads": []}), encoding="utf-8")
        with pytest.raises(ValueError):
            load_payload(not_an_int)
