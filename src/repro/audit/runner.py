"""Audit orchestration: resolve a target, run the dimensions, emit artifacts.

The audit accepts three target shapes behind one CLI argument:

* a **preset name** (``ref``, ``small``, ...) — optionally re-based onto
  another topology with ``--topology``;
* a **configuration file** (``*.json``, the :meth:`ArchConfig.to_dict`
  layout campaign artifacts embed);
* a **campaign directory** (holds ``results.jsonl``) — audited read-only,
  nothing is re-simulated.

Whatever the target, the output is the same pair of artifacts in the output
directory: a versioned machine-readable ``flags.json`` and a self-contained
``report.html``, with the process exit code equal to the worst verdict's
position (0 pass / 1 warn / 2 fail) so CI can gate on it directly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from ..config import PRESETS, config_from_dict, get_preset
from ..errors import AuditError, ReproError
from .core import (
    FLAGS_NAME,
    REPORT_NAME,
    AuditReport,
    write_flags,
)
from .dimensions import AuditOptions, audit_config
from .html import render_html


@dataclass(frozen=True)
class AuditArtifacts:
    """Everything one audit invocation produced."""

    report: AuditReport
    flags_path: Path
    html_path: Path


def audit_preset(
    name: str,
    topology: Optional[str] = None,
    options: Optional[AuditOptions] = None,
) -> AuditReport:
    """Audit a built-in preset, optionally re-based onto ``topology``."""
    config = get_preset(name)
    if topology is not None:
        config = config.with_topology_name(topology)
    target: Dict[str, object] = {"kind": "preset", "name": name}
    if topology is not None:
        target["topology"] = topology
    else:
        target["topology"] = config.topology.name
    return AuditReport(target=target, dimensions=audit_config(config, options))


def audit_config_file(
    path: os.PathLike,
    topology: Optional[str] = None,
    options: Optional[AuditOptions] = None,
) -> AuditReport:
    """Audit a platform described by an ``ArchConfig.to_dict`` JSON file."""
    source = Path(path)
    try:
        with source.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise AuditError(f"cannot read configuration file {source}: {exc}") from exc
    if not isinstance(payload, dict):
        raise AuditError(f"{source}: configuration must be a JSON object")
    try:
        config = config_from_dict(payload)
    except ReproError as exc:
        raise AuditError(f"{source}: not a valid platform configuration: {exc}") from exc
    if topology is not None:
        config = config.with_topology_name(topology)
    target: Dict[str, object] = {
        "kind": "config",
        "name": config.name,
        "path": str(source),
        "topology": config.topology.name,
    }
    return AuditReport(target=target, dimensions=audit_config(config, options))


def audit_campaign_dir(directory: os.PathLike) -> AuditReport:
    """Audit a campaign directory (read-only; nothing re-simulated).

    Loads the optional ``campaign.json`` manifest alongside the records and
    summary: store-backed streaming campaigns stamp their identity and
    completion state there, and the dimensions use it to tell an in-flight
    (or crashed) directory from a corrupt one.
    """
    # Only a campaign directory needs the campaign engine's modules.
    from ..campaign.artifacts import load_campaign, load_manifest
    from .campaign import audit_campaign_artifacts

    campaign_dir = Path(directory)
    try:
        records, summary = load_campaign(campaign_dir)
        manifest = load_manifest(campaign_dir)
    except ReproError as exc:
        raise AuditError(
            f"cannot load campaign artifacts from {campaign_dir}: {exc}"
        ) from exc
    target: Dict[str, object] = {
        "kind": "campaign",
        "name": campaign_dir.name,
        "path": str(campaign_dir),
    }
    if manifest is not None:
        target["campaign_id"] = str(manifest.get("campaign_id"))
        target["completed"] = bool(manifest.get("completed"))
    return AuditReport(
        target=target,
        dimensions=audit_campaign_artifacts(records, summary, manifest=manifest),
    )


def resolve_and_audit(
    target: str,
    topology: Optional[str] = None,
    options: Optional[AuditOptions] = None,
) -> AuditReport:
    """Resolve ``target`` (preset | config.json | campaign dir) and audit it."""
    path = Path(target)
    if path.is_dir():
        from ..campaign.artifacts import RESULTS_NAME

        if not (path / RESULTS_NAME).exists():
            raise AuditError(
                f"{path} is a directory but holds no {RESULTS_NAME}; "
                "expected a finished campaign output directory"
            )
        if topology is not None:
            raise AuditError("--topology does not apply to campaign directories")
        return audit_campaign_dir(path)
    if path.is_file():
        return audit_config_file(path, topology=topology, options=options)
    if target in PRESETS:
        return audit_preset(target, topology=topology, options=options)
    raise AuditError(
        f"cannot resolve audit target {target!r}: not a preset "
        f"({sorted(PRESETS)}), not a configuration file, not a campaign "
        "directory"
    )


def write_artifacts(report: AuditReport, out_dir: os.PathLike) -> AuditArtifacts:
    """Write ``flags.json`` + ``report.html`` for ``report`` under ``out_dir``."""
    directory = Path(out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise AuditError(f"cannot create audit output directory {directory}: {exc}") from exc
    flags_path = write_flags(report, directory / FLAGS_NAME)
    html_path = directory / REPORT_NAME
    html_path.write_text(render_html(report), encoding="utf-8")
    return AuditArtifacts(report=report, flags_path=flags_path, html_path=html_path)


def run_audit(
    target: str,
    out_dir: os.PathLike,
    topology: Optional[str] = None,
    options: Optional[AuditOptions] = None,
) -> AuditArtifacts:
    """One-command audit: resolve, evaluate every dimension, emit artifacts."""
    report = resolve_and_audit(target, topology=topology, options=options)
    return write_artifacts(report, out_dir)
