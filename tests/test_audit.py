"""Tests for the audit subsystem: verdicts, flags.json, dimensions, HTML.

The end-to-end audits run on the ``small`` preset with the same reduced
measurement knobs the CI audit job uses, so a full config audit (pipeline +
synchrony + store probe + three-engine cross-check) stays in the
sub-second range per topology.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.audit import (
    CAMPAIGN_DIMENSIONS,
    CONFIG_DIMENSIONS,
    FLAGS_SCHEMA_VERSION,
    AuditDimension,
    AuditOptions,
    AuditReport,
    DimensionResult,
    Finding,
    audit_campaign_dir,
    audit_config,
    audit_preset,
    exit_code_for,
    load_flags,
    render_html,
    report_from_dict,
    resolve_and_audit,
    run_audit,
    worst_verdict,
    write_flags,
)
from repro.campaign import CampaignSpec, ParallelRunner, write_campaign_artifacts
from repro.campaign.runner import summarize_records
from repro.audit.dimensions import ConfigAuditContext
from repro.config import get_preset
from repro.errors import AuditError
from repro.sim.trace import clear_trace_cache

#: Reduced measurement knobs shared by every end-to-end audit in this file
#: (mirrors the CI audit job).
FAST = AuditOptions(
    k_max=14,
    iterations=15,
    stress_iterations=30,
    synchrony_iterations=60,
    equivalence_iterations=25,
)

CONFIG_DIMENSION_NAMES = (
    "measured_bounds",
    "sandwich",
    "confidence",
    "write_burst",
    "engine_equivalence",
    "synchrony",
)

CAMPAIGN_DIMENSION_NAMES = (
    "artifact_schema",
    "summary_consistency",
    "campaign_bounds",
    "campaign_coverage",
)


def _finding(check: str, verdict: str) -> Finding:
    return Finding(check=check, verdict=verdict, detail=f"{check} is {verdict}")


def _dimension(name: str, *verdicts: str) -> DimensionResult:
    return DimensionResult(
        name=name,
        title=name.replace("_", " "),
        findings=tuple(_finding(f"check_{i}", v) for i, v in enumerate(verdicts)),
    )


# --------------------------------------------------------------------------- #
# Verdict aggregation.
# --------------------------------------------------------------------------- #


class TestVerdicts:
    def test_worst_verdict_orders_pass_warn_fail(self):
        assert worst_verdict([]) == "pass"
        assert worst_verdict(["pass", "pass"]) == "pass"
        assert worst_verdict(["pass", "warn"]) == "warn"
        assert worst_verdict(["warn", "fail", "pass"]) == "fail"

    def test_unknown_verdict_rejected(self):
        with pytest.raises(AuditError):
            worst_verdict(["pass", "maybe"])
        with pytest.raises(AuditError):
            exit_code_for("broken")
        with pytest.raises(AuditError):
            Finding(check="x", verdict="maybe", detail="")

    def test_exit_codes_are_verdict_positions(self):
        assert exit_code_for("pass") == 0
        assert exit_code_for("warn") == 1
        assert exit_code_for("fail") == 2

    def test_dimension_verdict_is_worst_finding(self):
        assert _dimension("d", "pass", "pass").verdict == "pass"
        assert _dimension("d", "pass", "warn").verdict == "warn"
        assert _dimension("d", "warn", "fail").verdict == "fail"
        assert _dimension("d").verdict == "pass"

    def test_report_verdict_and_exit_code_aggregate_dimensions(self):
        report = AuditReport(
            target={"kind": "preset", "name": "small"},
            dimensions=(_dimension("a", "pass"), _dimension("b", "warn")),
        )
        assert report.verdict == "warn"
        assert report.exit_code == 1
        assert report.dimension("b").verdict == "warn"
        with pytest.raises(AuditError):
            report.dimension("missing")

    def test_failed_findings_collects_across_dimensions(self):
        report = AuditReport(
            target={},
            dimensions=(_dimension("a", "fail", "pass"), _dimension("b", "fail")),
        )
        assert [f.check for f in report.failed_findings()] == ["check_0", "check_0"]
        assert report.exit_code == 2


# --------------------------------------------------------------------------- #
# flags.json schema round-trip.
# --------------------------------------------------------------------------- #


class TestFlagsRoundTrip:
    def _report(self) -> AuditReport:
        return AuditReport(
            target={"kind": "preset", "name": "small", "topology": "bus_only"},
            dimensions=(
                DimensionResult(
                    name="demo",
                    title="Demo dimension",
                    findings=(
                        Finding(
                            check="bound",
                            verdict="pass",
                            detail="observed 5 <= ubdm 6",
                            evidence={"observed": 5, "ubdm": 6, "analytical": 6},
                        ),
                        _finding("gate", "warn"),
                    ),
                    tables=(("t", ("a", "b"), (("1", "2"), ("3", "4"))),),
                    histograms=(("h", "gamma", {5: 40, 0: 2}),),
                ),
            ),
        )

    def test_to_dict_from_dict_round_trip_is_lossless(self):
        report = self._report()
        rebuilt = report_from_dict(report.to_dict())
        assert rebuilt == report
        assert rebuilt.to_dict() == report.to_dict()

    def test_payload_is_json_serialisable_and_versioned(self):
        payload = json.loads(json.dumps(self._report().to_dict()))
        assert payload["schema"] == FLAGS_SCHEMA_VERSION
        assert payload["verdict"] == "warn"
        assert payload["exit_code"] == 1
        assert [d["name"] for d in payload["dimensions"]] == ["demo"]
        # Histogram keys are serialised as sorted strings.
        assert payload["dimensions"][0]["histograms"][0]["counts"] == {
            "0": 2,
            "5": 40,
        }

    def test_file_round_trip(self, tmp_path):
        report = self._report()
        path = write_flags(report, tmp_path / "flags.json")
        assert load_flags(path) == report

    def test_unknown_schema_version_rejected(self):
        payload = self._report().to_dict()
        payload["schema"] = FLAGS_SCHEMA_VERSION + 1
        with pytest.raises(AuditError):
            report_from_dict(payload)

    def test_tampered_stored_verdict_rejected(self, tmp_path):
        payload = self._report().to_dict()
        payload["verdict"] = "pass"  # findings aggregate to warn
        path = tmp_path / "flags.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(AuditError):
            load_flags(path)

    def test_malformed_records_rejected(self):
        with pytest.raises(AuditError):
            report_from_dict({"schema": FLAGS_SCHEMA_VERSION})
        payload = self._report().to_dict()
        payload["dimensions"][0]["findings"][0].pop("check")
        with pytest.raises(AuditError):
            report_from_dict(payload)


# --------------------------------------------------------------------------- #
# The dimension registries.
# --------------------------------------------------------------------------- #


class TestDimensionRegistries:
    def test_builtin_dimensions_registered_in_order(self):
        assert CONFIG_DIMENSIONS.names() == CONFIG_DIMENSION_NAMES
        assert CAMPAIGN_DIMENSIONS.names() == CAMPAIGN_DIMENSION_NAMES

    def test_new_dimension_is_a_registry_addition(self):
        def run(context) -> DimensionResult:
            del context
            return _dimension("custom", "pass")

        CONFIG_DIMENSIONS.register(
            "custom",
            AuditDimension(name="custom", title="Custom", description="", run=run),
        )
        try:
            assert "custom" in CONFIG_DIMENSIONS.names()
        finally:
            CONFIG_DIMENSIONS.pop("custom")
        assert CONFIG_DIMENSIONS.names() == CONFIG_DIMENSION_NAMES

    def test_duplicate_dimension_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CONFIG_DIMENSIONS.register(
                "sandwich",
                AuditDimension(name="sandwich", title="dup", description="", run=lambda c: None),
            )


# --------------------------------------------------------------------------- #
# End-to-end config audits (one per built-in topology).
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def bus_only_audit() -> AuditReport:
    return audit_preset("small", options=FAST)


@pytest.fixture(scope="module")
def bank_queue_audit() -> AuditReport:
    return audit_preset("small", topology="bus_bank_queues", options=FAST)


@pytest.fixture(scope="module")
def split_bus_audit() -> AuditReport:
    return audit_preset("small", topology="split_bus", options=FAST)


class TestConfigAudit:
    def test_known_good_platform_passes_every_dimension(self, bus_only_audit):
        assert [d.name for d in bus_only_audit.dimensions] == list(CONFIG_DIMENSION_NAMES)
        assert bus_only_audit.verdict == "pass"
        assert bus_only_audit.exit_code == 0
        assert bus_only_audit.target["kind"] == "preset"
        assert bus_only_audit.target["topology"] == "bus_only"

    def test_measured_bounds_evidence_carries_the_sandwich(self, bus_only_audit):
        dimension = bus_only_audit.dimension("measured_bounds")
        term = next(f for f in dimension.findings if f.check == "term_bus")
        assert term.evidence["observed_worst_case"] <= term.evidence["ubdm"]
        assert term.evidence["ubdm"] <= term.evidence["analytical"]
        end_to_end = next(f for f in dimension.findings if f.check == "end_to_end")
        assert end_to_end.evidence["end_to_end_ubdm"] == 6
        assert dimension.tables  # rendered into report.html

    def test_engine_cross_check_covers_every_fast_engine(self, bus_only_audit):
        dimension = bus_only_audit.dimension("engine_equivalence")
        checks = {f.check for f in dimension.findings}
        assert checks == {"event_vs_stepped", "codegen_vs_stepped", "replay_vs_stepped"}
        assert dimension.verdict == "pass"
        codegen = next(f for f in dimension.findings if f.check == "codegen_vs_stepped")
        # The built-in chain is specialised: no fallback reason.
        assert codegen.evidence["fallback_reason"] is None

    def test_replay_cross_check_runs_a_warm_replay(self):
        """In a fresh process the replay engine's first run only captures;
        the dimension runs it a second time so a replayed run is compared
        against the oracle too, and reports which cores it replayed."""
        clear_trace_cache()
        context = ConfigAuditContext(get_preset("ref"), FAST)
        dimension = CONFIG_DIMENSIONS.require("engine_equivalence").run(context)
        assert len(dimension.findings) == 3
        replay = next(f for f in dimension.findings if f.check == "replay_vs_stepped")
        assert replay.verdict == "pass"
        assert replay.evidence["replayed_cores"]
        assert replay.evidence["fallback_reason"] is None

    def test_synchrony_dimension_histograms_the_plateau(self, bus_only_audit):
        dimension = bus_only_audit.dimension("synchrony")
        assert dimension.verdict == "pass"
        bound = next(f for f in dimension.findings if f.check == "bound_respected")
        assert bound.evidence["max_observed"] <= bound.evidence["analytical_ubd"]
        assert dimension.histograms

    def test_write_burst_flagged_platform_warns_not_fails(self, bank_queue_audit):
        """The store-side probe flags bank-queue platforms (store rate x
        row-miss service > 1 write per bank service) — a gated assumption,
        not an observed contradiction, so the audit warns and CI stays
        green while the demand-traffic gate still passes."""
        assert bank_queue_audit.verdict == "warn"
        assert bank_queue_audit.exit_code == 1
        dimension = bank_queue_audit.dimension("write_burst")
        by_check = {f.check: f for f in dimension.findings}
        assert by_check["demand_traffic"].verdict == "pass"
        probe = by_check["store_probe"]
        assert probe.verdict == "warn"
        assert probe.evidence["writes_per_bank_service"] > 1

    def test_queue_topology_still_passes_the_bound_dimensions(self, bank_queue_audit):
        for name in ("measured_bounds", "sandwich", "confidence", "synchrony"):
            assert bank_queue_audit.dimension(name).verdict == "pass", name

    def test_split_bus_audits_every_resource_term(self, split_bus_audit):
        dimension = split_bus_audit.dimension("measured_bounds")
        term_checks = {f.check for f in dimension.findings if f.check.startswith("term_")}
        assert term_checks == {"term_bus", "term_memory", "term_bus_response"}
        assert split_bus_audit.dimension("sandwich").verdict == "pass"
        assert split_bus_audit.dimension("write_burst").verdict == "warn"

    def test_unfair_arbitration_degrades_to_warnings_with_reasons(self):
        """A platform outside the methodology's analytical coverage (TDMA
        bus) is not *wrong*, just unverifiable: every bound dimension must
        degrade to ``warn`` with a fallback reason instead of crashing."""
        config = get_preset("small")
        config = replace(config, bus=replace(config.bus, arbitration="tdma"))
        report = AuditReport(
            target={"kind": "config", "name": "small-tdma"},
            dimensions=audit_config(config, FAST),
        )
        assert report.verdict == "warn"
        assert report.exit_code == 1
        for name in ("measured_bounds", "sandwich"):
            dimension = report.dimension(name)
            assert dimension.verdict == "warn", name
            assert "fallback_reason" in dimension.findings[0].evidence
        bound = next(
            f
            for f in report.dimension("synchrony").findings
            if f.check == "bound_respected"
        )
        assert bound.verdict == "warn"
        # The engines must still agree even without analytical bounds.
        assert report.dimension("engine_equivalence").verdict == "pass"


# --------------------------------------------------------------------------- #
# End-to-end campaign audits.
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    spec = CampaignSpec(presets=("small",), num_workloads=2, iterations=4, rsk_iterations=20)
    outcome = ParallelRunner(jobs=1).run(spec.expand())
    directory = tmp_path_factory.mktemp("campaign")
    write_campaign_artifacts(outcome, directory)
    return directory


def _rewrite_campaign(directory, records, summary=None):
    """Write tampered records (and a consistent summary unless given)."""
    with (directory / "results.jsonl").open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            handle.write("\n")
    payload = summarize_records(records) if summary is None else summary
    (directory / "summary.json").write_text(json.dumps(payload, sort_keys=True))


class TestCampaignAudit:
    def test_finished_campaign_passes_every_dimension(self, campaign_dir):
        report = audit_campaign_dir(campaign_dir)
        assert [d.name for d in report.dimensions] == list(CAMPAIGN_DIMENSION_NAMES)
        assert report.verdict == "pass"
        assert report.exit_code == 0
        assert report.target["kind"] == "campaign"

    def test_bound_violation_in_records_fails_only_campaign_bounds(self, campaign_dir, tmp_path):
        """An observed delay above the analytical ubd is the exact defect
        the audit exists to catch: tamper one rsk record (keeping the
        summary consistent with it) and only ``campaign_bounds`` fails."""
        from repro.campaign import load_campaign

        records, _ = load_campaign(campaign_dir)
        tampered = json.loads(json.dumps(records))  # deep copy
        rsk = next(r for r in tampered if r["kind"] == "rsk")
        rsk["metrics"]["max_contention_delay"] = 999
        rsk["metrics"]["stage_worst_case"]["bus"] = 999
        broken = tmp_path / "broken"
        broken.mkdir()
        _rewrite_campaign(broken, tampered)

        report = audit_campaign_dir(broken)
        assert report.verdict == "fail"
        assert report.exit_code == 2
        assert report.dimension("campaign_bounds").verdict == "fail"
        for name in ("artifact_schema", "summary_consistency", "campaign_coverage"):
            assert report.dimension(name).verdict == "pass", name
        failed = {f.check for f in report.failed_findings()}
        assert any(check.startswith("ubd:") for check in failed)
        assert any(check.startswith("stage:") for check in failed)

    def test_stale_schema_version_fails_artifact_schema(self, campaign_dir, tmp_path):
        from repro.campaign import load_campaign

        records, summary = load_campaign(campaign_dir)
        tampered = json.loads(json.dumps(records))
        tampered[0]["schema"] = 3
        stale = tmp_path / "stale"
        stale.mkdir()
        _rewrite_campaign(stale, tampered, summary=summary)

        report = audit_campaign_dir(stale)
        assert report.verdict == "fail"
        schema_dim = report.dimension("artifact_schema")
        by_check = {f.check: f for f in schema_dim.findings}
        assert by_check["record_schema"].verdict == "fail"
        assert by_check["run_id_unique"].verdict == "pass"

    def test_duplicate_run_id_fails_artifact_schema(self, campaign_dir, tmp_path):
        from repro.campaign import load_campaign

        records, summary = load_campaign(campaign_dir)
        tampered = json.loads(json.dumps(records))
        duplicate = tampered[0]["run_id"]
        tampered[1]["run_id"] = duplicate
        duplicated = tmp_path / "duplicated"
        duplicated.mkdir()
        _rewrite_campaign(duplicated, tampered, summary=summary)

        report = audit_campaign_dir(duplicated)
        by_check = {f.check: f for f in report.dimension("artifact_schema").findings}
        finding = by_check["run_id_unique"]
        assert finding.verdict == "fail"
        assert duplicate in finding.detail
        assert finding.evidence["duplicates"] == [duplicate]

    def test_summary_drift_fails_consistency(self, campaign_dir, tmp_path):
        from repro.campaign import load_campaign

        records, summary = load_campaign(campaign_dir)
        drifted_summary = json.loads(json.dumps(summary))
        drifted_summary["total_runs"] = 99
        drifted = tmp_path / "drifted"
        drifted.mkdir()
        _rewrite_campaign(drifted, records, summary=drifted_summary)

        report = audit_campaign_dir(drifted)
        assert report.dimension("summary_consistency").verdict == "fail"
        finding = report.dimension("summary_consistency").findings[0]
        assert "total_runs" in finding.evidence["drifted_keys"]


# --------------------------------------------------------------------------- #
# Target resolution and artifact emission.
# --------------------------------------------------------------------------- #


class TestRunner:
    def test_unresolvable_target_raises(self, tmp_path):
        with pytest.raises(AuditError):
            resolve_and_audit("no_such_preset")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(AuditError):
            resolve_and_audit(str(empty))

    def test_topology_flag_rejected_for_campaign_dirs(self, campaign_dir):
        with pytest.raises(AuditError):
            resolve_and_audit(str(campaign_dir), topology="split_bus")

    def test_config_file_target(self, tmp_path):
        config = get_preset("small")
        path = tmp_path / "platform.json"
        path.write_text(json.dumps(config.to_dict()))
        report = resolve_and_audit(str(path), options=FAST)
        assert report.target["kind"] == "config"
        assert report.verdict == "pass"

    def test_invalid_config_file_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"num_cores": "three"}')
        with pytest.raises(AuditError):
            resolve_and_audit(str(path))

    def test_run_audit_writes_both_artifacts(self, tmp_path):
        artifacts = run_audit("small", tmp_path / "out", options=FAST)
        assert artifacts.flags_path.exists()
        assert artifacts.html_path.exists()
        assert load_flags(artifacts.flags_path) == artifacts.report


# --------------------------------------------------------------------------- #
# HTML report.
# --------------------------------------------------------------------------- #


class TestHtmlReport:
    def test_report_is_self_contained_and_renders_every_dimension(self, bank_queue_audit):
        html = render_html(bank_queue_audit)
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        # Self-contained: no external fetches of any kind.
        for marker in ("http://", "https://", "<script", "<link", "@import"):
            assert marker not in html, marker
        for name in CONFIG_DIMENSION_NAMES:
            assert f'id="{name}"' in html
        # Verdict badges and the store-probe warning surface.
        assert "verdict-warn" in html
        assert "store_probe" in html

    def test_evidence_tables_reuse_the_text_renderers(self, bank_queue_audit):
        from repro.report.tables import render_table

        dimension = bank_queue_audit.dimension("measured_bounds")
        title, headers, rows = dimension.tables[0]
        expected = render_table(list(headers), [list(r) for r in rows])
        html = render_html(bank_queue_audit)
        # The pre-rendered table text is embedded verbatim (HTML-escaped
        # characters aside, the first header line survives).
        assert expected.splitlines()[0] in html


# --------------------------------------------------------------------------- #
# Manifest-aware auditing (streamed / in-flight / crashed campaigns).
# --------------------------------------------------------------------------- #


class TestManifestAudit:
    def test_completed_manifest_checks_pass(self, campaign_dir):
        """write_campaign_artifacts stamps a completed manifest; the audit
        verifies its schema, run count and recomputed campaign identity."""
        report = audit_campaign_dir(campaign_dir)
        by_check = {f.check: f for f in report.dimension("artifact_schema").findings}
        assert by_check["manifest_schema"].verdict == "pass"
        assert by_check["manifest_completed"].verdict == "pass"
        assert by_check["manifest_run_count"].verdict == "pass"
        assert by_check["manifest_campaign_id"].verdict == "pass"
        assert report.target["completed"] is True

    def test_pre_manifest_directory_is_accepted(self, campaign_dir, tmp_path):
        from repro.campaign import load_campaign

        records, summary = load_campaign(campaign_dir)
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        _rewrite_campaign(legacy, records, summary=summary)

        report = audit_campaign_dir(legacy)
        assert report.verdict == "pass"
        by_check = {f.check: f for f in report.dimension("artifact_schema").findings}
        assert by_check["manifest"].verdict == "pass"
        assert "pre-manifest" in by_check["manifest"].detail

    def test_in_flight_campaign_warns_instead_of_failing(self, tmp_path):
        """A streamed campaign caught mid-flight (or after a crash) has a
        completed:false manifest and a truncated record stream: the audit
        must report that as WARN — inspectable, not corrupt."""
        from repro.campaign import CampaignStreamWriter, campaign_digest

        spec = CampaignSpec(presets=("small",), num_workloads=2, iterations=4, rsk_iterations=20)
        descriptors = spec.expand()
        records = ParallelRunner(jobs=1).run(descriptors).records
        stream = CampaignStreamWriter(tmp_path / "inflight", checkpoint_interval=0.0)
        stream.begin(campaign_digest([d.digest() for d in descriptors]), len(descriptors))
        stream.append(records[:2])
        stream.checkpoint()
        stream.abandon()

        report = audit_campaign_dir(stream.directory)
        assert report.verdict == "warn"
        assert report.exit_code == 1
        assert report.target["completed"] is False
        by_check = {f.check: f for f in report.dimension("artifact_schema").findings}
        assert by_check["manifest_completed"].verdict == "warn"
        assert by_check["manifest_run_count"].verdict == "warn"
        assert "in-flight" in by_check["manifest_run_count"].detail

    def test_completed_manifest_with_wrong_identity_fails(self, campaign_dir, tmp_path):
        import shutil

        from repro.campaign import load_manifest, write_manifest

        forged = tmp_path / "forged"
        shutil.copytree(campaign_dir, forged)
        manifest = load_manifest(forged)
        manifest["campaign_id"] = "0" * 64
        write_manifest(forged, manifest)

        report = audit_campaign_dir(forged)
        assert report.verdict == "fail"
        by_check = {f.check: f for f in report.dimension("artifact_schema").findings}
        assert by_check["manifest_campaign_id"].verdict == "fail"

    def test_completed_manifest_with_wrong_run_count_fails(self, campaign_dir, tmp_path):
        import shutil

        from repro.campaign import load_manifest, write_manifest

        short = tmp_path / "short"
        shutil.copytree(campaign_dir, short)
        manifest = load_manifest(short)
        manifest["total_runs"] = 99
        write_manifest(short, manifest)

        report = audit_campaign_dir(short)
        assert report.verdict == "fail"
        by_check = {f.check: f for f in report.dimension("artifact_schema").findings}
        assert by_check["manifest_run_count"].verdict == "fail"
