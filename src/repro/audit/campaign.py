"""Campaign-mode audit dimensions: re-reading a finished campaign directory.

A campaign audit never simulates anything — it replays the read path over
the artifacts a finished campaign left behind (``results.jsonl`` +
``summary.json`` + the optional ``campaign.json`` manifest,
SCHEMA_VERSION 4) and checks that the million-run view is internally
consistent and respects the analytical envelopes the records themselves
embed.  The same verdict semantics as the config-mode dimensions apply:
``fail`` only on a contradiction *inside the artifacts* (schema drift, a
summary that disagrees with its records, a manifest whose campaign
identity does not match the records, an observed delay above its
analytical bound), ``warn`` where a property cannot be checked (unfair
arbitration has no Equation 1 bound; a platform without rsk reference runs
carries no bound evidence) or where the artifacts declare themselves
*in-flight* — a streaming campaign's manifest says ``completed: false``
and its checkpointed summary legitimately lags the record stream, which
downgrades the consistency contradiction to a warning (the crash/abort
signature) instead of a hard artifact corruption.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..campaign import runner as campaign_runner
from ..campaign.spec import KIND_RSK, SCHEMA_VERSION, campaign_digest
from ..errors import ReproError
from ..registry import Registry
from .core import (
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_WARN,
    DimensionResult,
    Finding,
)
from .dimensions import AuditDimension


class CampaignAuditContext:
    """Shared state for one audited campaign directory.

    Holds the loaded records/summary plus a lazily recomputed summary (one
    :func:`~repro.campaign.runner.summarize_records` call shared by however
    many dimensions need the aggregated view).
    """

    def __init__(
        self,
        records: Sequence[Dict[str, object]],
        summary: Mapping[str, object],
        manifest: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.records = list(records)
        self.summary = dict(summary)
        self.manifest = dict(manifest) if manifest is not None else None
        self._recomputed: Optional[Tuple[Optional[Dict[str, object]], Optional[str]]] = None

    @property
    def completed(self) -> bool:
        """Whether the artifacts declare a *finished* campaign.

        Pre-manifest layouts never streamed, so they are always complete;
        with a manifest, the ``completed`` flag decides (a streaming
        campaign flips it only at finalisation).
        """
        if self.manifest is None:
            return True
        return bool(self.manifest.get("completed"))

    def recomputed_summary(self) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
        """``summarize_records`` over the loaded records, or the reason not."""
        if self._recomputed is None:
            try:
                # Read at call time: this module may load after a caller
                # swapped the function (a tracer wrapping it, say).
                summary = campaign_runner.summarize_records(self.records)
                self._recomputed = (summary, None)
            except ReproError as exc:
                self._recomputed = (None, str(exc))
        return self._recomputed


#: Registry of campaign-mode dimensions, evaluated in registration order.
CAMPAIGN_DIMENSIONS: Registry[AuditDimension[CampaignAuditContext]] = Registry(
    "campaign audit dimension"
)

_CampaignRunner = Callable[[CampaignAuditContext], DimensionResult]


def register_campaign_dimension(
    name: str, title: str, description: str
) -> Callable[[_CampaignRunner], _CampaignRunner]:
    """Registration decorator for campaign-mode dimensions."""

    def decorator(run: _CampaignRunner) -> _CampaignRunner:
        CAMPAIGN_DIMENSIONS.register(
            name, AuditDimension(name=name, title=title, description=description, run=run)
        )
        return run

    return decorator


# --------------------------------------------------------------------------- #
# Dimension: artifact schema integrity.
# --------------------------------------------------------------------------- #
@register_campaign_dimension(
    "artifact_schema",
    "Artifact schema integrity",
    "Checks every result record and the summary against the supported "
    "SCHEMA_VERSION, run counts, and run_id uniqueness.",
)
def _artifact_schema(context: CampaignAuditContext) -> DimensionResult:
    findings: List[Finding] = []
    versions: Dict[object, int] = {}
    for record in context.records:
        version = record.get("schema")
        versions[version] = versions.get(version, 0) + 1
    stale = {v: n for v, n in versions.items() if v != SCHEMA_VERSION}
    findings.append(
        Finding(
            check="record_schema",
            verdict=VERDICT_PASS if not stale else VERDICT_FAIL,
            detail=(
                f"all {len(context.records)} records carry schema {SCHEMA_VERSION}"
                if not stale
                else f"{sum(stale.values())} records carry stale schema versions "
                f"{sorted(str(v) for v in stale)}"
            ),
            evidence={
                "expected_schema": SCHEMA_VERSION,
                "versions_seen": {str(v): n for v, n in sorted(versions.items(), key=str)},
            },
        )
    )
    summary_schema = context.summary.get("schema")
    findings.append(
        Finding(
            check="summary_schema",
            verdict=VERDICT_PASS if summary_schema == SCHEMA_VERSION else VERDICT_FAIL,
            detail=(f"summary carries schema {summary_schema!r} " f"(expected {SCHEMA_VERSION})"),
            evidence={"expected_schema": SCHEMA_VERSION, "summary_schema": summary_schema},
        )
    )
    total = context.summary.get("total_runs")
    count_matches = total == len(context.records)
    findings.append(
        Finding(
            check="run_count",
            # An in-flight checkpointed summary legitimately lags the
            # record stream (manifest says completed: false) — warn there,
            # fail only on a *finished* campaign's mismatch.
            verdict=(
                VERDICT_PASS
                if count_matches
                else (VERDICT_WARN if not context.completed else VERDICT_FAIL)
            ),
            detail=(
                f"summary reports {total!r} runs; results.jsonl holds "
                f"{len(context.records)} records"
                + ("" if count_matches or context.completed else " (in-flight checkpoint)")
            ),
            evidence={
                "total_runs": total,
                "records": len(context.records),
                "completed": context.completed,
            },
        )
    )
    run_ids = Counter(record.get("run_id") for record in context.records)
    duplicates = sorted({str(run_id) for run_id, count in run_ids.items() if count > 1})
    findings.append(
        Finding(
            check="run_id_unique",
            verdict=VERDICT_PASS if not duplicates else VERDICT_FAIL,
            detail=(
                "every record carries a unique run_id"
                if not duplicates
                else f"duplicate run_ids: {duplicates}"
            ),
            evidence={"duplicates": duplicates},
        )
    )
    findings.extend(_manifest_findings(context))
    return DimensionResult(
        name="artifact_schema",
        title="Artifact schema integrity",
        findings=tuple(findings),
    )


def _manifest_findings(context: CampaignAuditContext) -> List[Finding]:
    """Checks over the ``campaign.json`` manifest (store-backed layout).

    A missing manifest is the accepted pre-manifest layout; a present one
    must stamp the supported schema, a ``campaign_id`` that matches the
    digest of the records actually on disk, and — for a completed campaign
    — a ``total_runs`` equal to the record count.  An in-flight manifest
    (``completed: false``) warns: it is the signature of a streaming
    campaign that crashed or is still running.
    """
    manifest = context.manifest
    if manifest is None:
        return [
            Finding(
                check="manifest",
                verdict=VERDICT_PASS,
                detail="no campaign.json manifest (pre-manifest layout, accepted)",
                evidence={"manifest": None},
            )
        ]
    findings: List[Finding] = []
    manifest_schema = manifest.get("schema")
    findings.append(
        Finding(
            check="manifest_schema",
            verdict=VERDICT_PASS if manifest_schema == SCHEMA_VERSION else VERDICT_FAIL,
            detail=(
                f"manifest carries schema {manifest_schema!r} (expected {SCHEMA_VERSION})"
            ),
            evidence={"expected_schema": SCHEMA_VERSION, "manifest_schema": manifest_schema},
        )
    )
    completed = context.completed
    findings.append(
        Finding(
            check="manifest_completed",
            verdict=VERDICT_PASS if completed else VERDICT_WARN,
            detail=(
                "manifest declares the campaign completed"
                if completed
                else "manifest declares the campaign in-flight (completed: "
                "false) — it is still streaming, or crashed before "
                "finalisation"
            ),
            evidence={"completed": completed},
        )
    )
    total = manifest.get("total_runs")
    count_matches = total == len(context.records)
    findings.append(
        Finding(
            check="manifest_run_count",
            # An in-flight stream legitimately holds a prefix of total_runs.
            verdict=(
                VERDICT_PASS
                if count_matches
                else (VERDICT_WARN if not completed else VERDICT_FAIL)
            ),
            detail=(
                f"manifest expects {total!r} runs; results.jsonl holds "
                f"{len(context.records)} records"
                + ("" if completed or count_matches else " (in-flight prefix)")
            ),
            evidence={"total_runs": total, "records": len(context.records)},
        )
    )
    if completed:
        expected_id = campaign_digest(
            [str(record.get("digest", "")) for record in context.records]
        )
        stamped = manifest.get("campaign_id")
        findings.append(
            Finding(
                check="manifest_campaign_id",
                verdict=VERDICT_PASS if stamped == expected_id else VERDICT_FAIL,
                detail=(
                    "manifest campaign_id matches the digest of the records on disk"
                    if stamped == expected_id
                    else f"manifest campaign_id {stamped!r} does not match the "
                    f"records on disk ({expected_id})"
                ),
                evidence={"campaign_id": stamped, "recomputed": expected_id},
            )
        )
    return findings


# --------------------------------------------------------------------------- #
# Dimension: summary vs records consistency.
# --------------------------------------------------------------------------- #
@register_campaign_dimension(
    "summary_consistency",
    "Summary reproducibility",
    "Recomputes the summary from the records and compares it, key by key, "
    "against the stored summary.json (minus its non-deterministic timing).",
)
def _summary_consistency(context: CampaignAuditContext) -> DimensionResult:
    recomputed, reason = context.recomputed_summary()
    if recomputed is None:
        assert reason is not None
        return DimensionResult(
            name="summary_consistency",
            title="Summary reproducibility",
            findings=(
                Finding(
                    check="recompute",
                    verdict=VERDICT_FAIL,
                    detail=f"records cannot be summarised: {reason}",
                    evidence={"fallback_reason": reason},
                ),
            ),
        )
    stored = {key: value for key, value in context.summary.items() if key != "timing"}
    drifted = sorted(
        key
        for key in set(stored) | set(recomputed)
        if stored.get(key) != recomputed.get(key)
    )
    if drifted and not context.completed:
        # A streaming campaign checkpoints summary.json at most every few
        # seconds, so an in-flight (or crashed) directory legitimately has
        # a summary lagging results.jsonl: a warning, not corruption.
        verdict = VERDICT_WARN
        detail = (
            f"summary.json lags its records on {drifted} — consistent with "
            "the manifest's completed: false (in-flight checkpoint)"
        )
    elif drifted:
        verdict = VERDICT_FAIL
        detail = f"summary.json disagrees with its records on: {drifted}"
    else:
        verdict = VERDICT_PASS
        detail = "summary.json is exactly the deterministic aggregation of results.jsonl"
    return DimensionResult(
        name="summary_consistency",
        title="Summary reproducibility",
        findings=(
            Finding(
                check="summary_matches_records",
                verdict=verdict,
                detail=detail,
                evidence={"drifted_keys": drifted, "completed": context.completed},
            ),
        ),
    )


# --------------------------------------------------------------------------- #
# Dimension: observed delays vs analytical envelopes, per platform bucket.
# --------------------------------------------------------------------------- #
@register_campaign_dimension(
    "campaign_bounds",
    "Observed delays vs analytical bounds",
    "Checks, per platform bucket, the aggregated worst contention delay "
    "against the analytical ubd and every aggregated per-stage worst case "
    "against its ubd_terms envelope.",
)
def _campaign_bounds(context: CampaignAuditContext) -> DimensionResult:
    recomputed, reason = context.recomputed_summary()
    if recomputed is None:
        assert reason is not None
        return DimensionResult(
            name="campaign_bounds",
            title="Observed delays vs analytical bounds",
            findings=(
                Finding(
                    check="recompute",
                    verdict=VERDICT_WARN,
                    detail=f"no aggregated view to check: {reason}",
                    evidence={"fallback_reason": reason},
                ),
            ),
        )
    findings: List[Finding] = []
    rows: List[Tuple[str, ...]] = []
    per_platform = recomputed["per_platform"]
    assert isinstance(per_platform, dict)
    for key in sorted(per_platform):
        bucket = per_platform[key]
        rsk = bucket.get(KIND_RSK)
        ubd = bucket.get("analytical_ubd")
        terms = bucket.get("analytical_terms")
        if rsk is None:
            continue
        delay = rsk.get("max_contention_delay")
        if delay is not None:
            if ubd is None:
                findings.append(
                    Finding(
                        check=f"ubd:{key}",
                        verdict=VERDICT_WARN,
                        detail=(
                            f"{key}: no Equation 1 bound under "
                            f"{bucket.get('arbiter')!r} arbitration "
                            f"(worst observed delay {delay})"
                        ),
                        evidence={
                            "platform": key,
                            "max_contention_delay": delay,
                            "fallback_reason": "no analytical ubd for this arbiter",
                        },
                    )
                )
                rows.append((key, str(delay), "-", "no bound"))
            else:
                respected = delay <= ubd
                findings.append(
                    Finding(
                        check=f"ubd:{key}",
                        verdict=VERDICT_PASS if respected else VERDICT_FAIL,
                        detail=(
                            f"{key}: worst observed contention delay {delay} "
                            f"versus analytical ubd {ubd}"
                        ),
                        evidence={
                            "platform": key,
                            "max_contention_delay": delay,
                            "analytical_ubd": ubd,
                        },
                    )
                )
                rows.append((key, str(delay), str(ubd), "OK" if respected else "EXCEEDS"))
        stage_worst = rsk.get("stage_worst_case")
        if stage_worst and isinstance(terms, dict):
            for stage in sorted(set(stage_worst) & set(terms)):
                worst = stage_worst[stage]
                envelope = terms[stage]
                covered = worst <= envelope
                findings.append(
                    Finding(
                        check=f"stage:{key}:{stage}",
                        verdict=VERDICT_PASS if covered else VERDICT_FAIL,
                        detail=(
                            f"{key}: worst observed {stage} delay {worst} "
                            f"versus analytical term {envelope}"
                        ),
                        evidence={
                            "platform": key,
                            "stage": stage,
                            "observed_worst_case": worst,
                            "analytical": envelope,
                        },
                    )
                )
                rows.append(
                    (
                        f"{key} [{stage}]",
                        str(worst),
                        str(envelope),
                        "OK" if covered else "EXCEEDS",
                    )
                )
    if not findings:
        findings.append(
            Finding(
                check="no_bound_evidence",
                verdict=VERDICT_WARN,
                detail="no platform bucket carries rsk delay evidence to check",
                evidence={"fallback_reason": "no rsk runs with delay histograms"},
            )
        )
    return DimensionResult(
        name="campaign_bounds",
        title="Observed delays vs analytical bounds",
        findings=tuple(findings),
        tables=(
            (
                "Aggregated worst cases vs analytical envelopes",
                ("platform [stage]", "observed", "analytical", "check"),
                tuple(rows),
            ),
        ),
    )


# --------------------------------------------------------------------------- #
# Dimension: coverage — does every platform carry bound evidence?
# --------------------------------------------------------------------------- #
@register_campaign_dimension(
    "campaign_coverage",
    "Reference-run coverage",
    "Warns about platform buckets that ran no rsk reference workloads — "
    "their summary rows carry no worst-case delay evidence at all.",
)
def _campaign_coverage(context: CampaignAuditContext) -> DimensionResult:
    recomputed, reason = context.recomputed_summary()
    if recomputed is None:
        assert reason is not None
        return DimensionResult(
            name="campaign_coverage",
            title="Reference-run coverage",
            findings=(
                Finding(
                    check="recompute",
                    verdict=VERDICT_WARN,
                    detail=f"no aggregated view to check: {reason}",
                    evidence={"fallback_reason": reason},
                ),
            ),
        )
    per_platform = recomputed["per_platform"]
    assert isinstance(per_platform, dict)
    uncovered = sorted(key for key, bucket in per_platform.items() if KIND_RSK not in bucket)
    findings = [
        Finding(
            check="rsk_coverage",
            verdict=VERDICT_PASS if not uncovered else VERDICT_WARN,
            detail=(
                f"every one of the {len(per_platform)} platform buckets has rsk "
                "reference runs"
                if not uncovered
                else f"{len(uncovered)} of {len(per_platform)} platform buckets "
                f"ran no rsk reference workloads: {uncovered}"
            ),
            evidence={
                "platforms": len(per_platform),
                "without_rsk_runs": uncovered,
            },
        )
    ]
    return DimensionResult(
        name="campaign_coverage",
        title="Reference-run coverage",
        findings=tuple(findings),
    )


def audit_campaign_artifacts(
    records: Sequence[Dict[str, object]],
    summary: Mapping[str, object],
    manifest: Optional[Mapping[str, object]] = None,
) -> Tuple[DimensionResult, ...]:
    """Evaluate every registered campaign-mode dimension over the artifacts."""
    context = CampaignAuditContext(records, summary, manifest=manifest)
    return tuple(entry.run(context) for entry in CAMPAIGN_DIMENSIONS.values())
