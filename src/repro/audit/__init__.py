"""One-command platform audits: config (or campaign) in, verdict out.

``repro-bounds audit <preset|config.json|campaign-dir>`` evaluates every
registered audit dimension — the measured-bound sandwich, the Section 4.3
confidence criteria, the write-burst gate, the cross-check of every engine
against the stepped oracle, the synchrony histogram, and (for campaign
directories) the artifact-consistency checks — and emits a versioned
machine-readable ``flags.json`` plus a self-contained ``report.html``,
exiting with the worst verdict (0 pass / 1 warn / 2 fail) so CI can gate
on it.

See ``DESIGN.md`` ("Audit dimensions") for the dimension contract and how
to register new dimensions.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "campaign": (
            "CAMPAIGN_DIMENSIONS",
            "CampaignAuditContext",
            "audit_campaign_artifacts",
            "register_campaign_dimension",
        ),
        "core": (
            "FLAGS_NAME",
            "FLAGS_SCHEMA_VERSION",
            "REPORT_NAME",
            "VERDICT_FAIL",
            "VERDICT_ORDER",
            "VERDICT_PASS",
            "VERDICT_WARN",
            "AuditReport",
            "DimensionResult",
            "Finding",
            "exit_code_for",
            "load_flags",
            "report_from_dict",
            "worst_verdict",
            "write_flags",
        ),
        "dimensions": (
            "CONFIG_DIMENSIONS",
            "AuditDimension",
            "AuditOptions",
            "ConfigAuditContext",
            "audit_config",
            "register_dimension",
        ),
        "html": ("render_html",),
        "runner": (
            "AuditArtifacts",
            "audit_campaign_dir",
            "audit_config_file",
            "audit_preset",
            "resolve_and_audit",
            "run_audit",
            "write_artifacts",
        ),
    },
)
