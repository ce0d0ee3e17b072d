"""JSON artifact emission and loading for campaigns.

A campaign writes three files into its output directory:

* ``results.jsonl`` — one canonical-JSON line per run, in run order.  Every
  byte is a pure function of the campaign's descriptors, so serial and
  parallel executions of the same campaign produce identical files (the
  artifact-level determinism check in ``tests/test_campaign.py``).
* ``summary.json`` — the aggregated view (per-preset histograms, worst
  contention delays versus the analytical ``ubd``) plus a ``timing`` section
  with wall-clock/cache/job statistics.  ``timing`` is the only
  non-deterministic content; strip it before comparing summaries.
* ``campaign.json`` — a small manifest stamping the campaign's identity
  (content digest of its ordered run digests), its expected run count and
  whether the campaign *completed*.  A streaming campaign writes the
  manifest with ``"completed": false`` up front and flips it at
  finalisation, so a crashed campaign directory is detectable by the audit
  instead of masquerading as a short but finished sweep.

:class:`CampaignStreamWriter` is the one code path that writes them:
``begin`` stamps the manifest in-flight, ``append`` streams result lines
while the campaign runs (and periodically rewrites ``summary.json`` from
the emitted prefix, so a long campaign's artifacts are inspectable
mid-flight), and ``finalize`` writes the final summary and completes the
manifest.  :func:`write_campaign_artifacts` writes a finished outcome
through the same three calls, so streaming changes *when* artifacts
appear, never what they contain.

The exact field layout is documented in ``DESIGN.md`` ("Campaign artifact
schema") and demonstrated by ``examples/campaign_artifacts.py``, which loads
a saved campaign and re-renders its report without re-simulating anything.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from ..errors import AnalysisError
from .runner import CampaignOutcome, summarize_records
from .spec import SCHEMA_VERSION, campaign_digest
from .store import atomic_write_text

#: File names inside a campaign output directory.
RESULTS_NAME = "results.jsonl"
SUMMARY_NAME = "summary.json"
MANIFEST_NAME = "campaign.json"


@dataclass(frozen=True)
class CampaignArtifacts:
    """Paths of the files one campaign emitted."""

    directory: Path
    results_path: Path
    summary_path: Path
    manifest_path: Optional[Path] = None


def build_manifest(campaign_id: str, total_runs: int, completed: bool) -> Dict[str, object]:
    """The ``campaign.json`` payload: deterministic campaign identity.

    Every field is a pure function of the campaign's descriptors plus the
    ``completed`` flag, so serial and parallel executions finalise
    bit-identical manifests.
    """
    return {
        "schema": SCHEMA_VERSION,
        "campaign_id": campaign_id,
        "total_runs": total_runs,
        "completed": completed,
    }


def _atomic_write_json(path: Path, payload: Dict[str, object]) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_manifest(directory: os.PathLike, manifest: Dict[str, object]) -> Path:
    """Atomically write ``campaign.json`` into ``directory``."""
    path = Path(directory) / MANIFEST_NAME
    _atomic_write_json(path, manifest)
    return path


def load_manifest(directory: os.PathLike) -> Optional[Dict[str, object]]:
    """Load ``campaign.json`` if present; ``None`` for pre-manifest layouts.

    A *present but unreadable* manifest raises — a campaign directory whose
    identity stamp is garbage should fail loudly, not silently downgrade to
    the legacy layout.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        with path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise AnalysisError(f"cannot read campaign manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise AnalysisError(f"{path}: campaign manifest must be a JSON object")
    return manifest


class CampaignStreamWriter:
    """Incremental artifact writer: results stream, summary checkpoints.

    The runner appends result records (in final order) as shards complete;
    the writer keeps ``results.jsonl`` flushed line-by-line, rewrites
    ``summary.json`` at most every ``checkpoint_interval`` seconds, and
    marks the manifest ``completed`` only at :meth:`finalize`.
    :func:`write_campaign_artifacts` is this writer with a single append,
    so streamed and one-shot artifacts are byte-identical by construction.
    """

    def __init__(self, out_dir: os.PathLike, checkpoint_interval: float = 2.0) -> None:
        self.directory = Path(out_dir)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise AnalysisError(
                f"cannot create campaign output directory {self.directory}: {exc}"
            ) from exc
        self.checkpoint_interval = checkpoint_interval
        self.results_path = self.directory / RESULTS_NAME
        self.summary_path = self.directory / SUMMARY_NAME
        self.manifest_path = self.directory / MANIFEST_NAME
        self._handle: Optional[TextIO] = None
        self._emitted: List[Dict[str, object]] = []
        self._last_checkpoint = 0.0
        self._campaign_id: Optional[str] = None
        self._total_runs = 0

    @property
    def emitted(self) -> int:
        """Number of result records streamed so far."""
        return len(self._emitted)

    def begin(self, campaign_id: str, total_runs: int) -> None:
        """Open the stream: truncate ``results.jsonl``, stamp the manifest
        as in-flight (``completed: false``)."""
        self._campaign_id = campaign_id
        self._total_runs = total_runs
        write_manifest(self.directory, build_manifest(campaign_id, total_runs, False))
        self._handle = self.results_path.open("w", encoding="utf-8")
        self._last_checkpoint = time.monotonic()

    def append(self, records: Sequence[Dict[str, object]]) -> None:
        """Stream ``records`` (already in final order) to ``results.jsonl``
        and checkpoint the summary when the interval elapsed."""
        if self._handle is None:
            raise AnalysisError("CampaignStreamWriter.append before begin()")
        for record in records:
            self._handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            self._handle.write("\n")
            self._emitted.append(record)
        self._handle.flush()
        if (
            self._emitted
            and time.monotonic() - self._last_checkpoint >= self.checkpoint_interval
        ):
            self.checkpoint()

    def checkpoint(self) -> None:
        """Rewrite ``summary.json`` from the emitted prefix (atomically).

        The checkpoint is a valid summary of the runs emitted so far; its
        ``timing`` section carries ``"partial": true`` so readers (and the
        audit) can tell an in-flight snapshot from a finished campaign.
        """
        if not self._emitted:
            return
        summary = summarize_records(self._emitted)
        summary["timing"] = {
            "partial": True,
            "emitted": len(self._emitted),
            "total_runs": self._total_runs,
        }
        _atomic_write_json(self.summary_path, summary)
        self._last_checkpoint = time.monotonic()

    def finalize(self, summary: Dict[str, object]) -> CampaignArtifacts:
        """Write the final ``summary.json``, flip the manifest to
        ``completed`` and close the results stream."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        _atomic_write_json(self.summary_path, summary)
        assert self._campaign_id is not None, "finalize before begin()"
        write_manifest(
            self.directory,
            build_manifest(self._campaign_id, self._total_runs, True),
        )
        return CampaignArtifacts(
            directory=self.directory,
            results_path=self.results_path,
            summary_path=self.summary_path,
            manifest_path=self.manifest_path,
        )

    def abandon(self) -> None:
        """Close the stream without completing (the manifest stays
        ``completed: false`` — the crash signature the audit detects)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def write_campaign_artifacts(
    outcome: CampaignOutcome,
    out_dir: os.PathLike,
    summary: Optional[Dict[str, object]] = None,
) -> CampaignArtifacts:
    """Write ``results.jsonl``, ``summary.json`` and the manifest for
    ``outcome``: a :class:`CampaignStreamWriter` stream with one append.

    The directory is created on demand; existing artifacts are overwritten
    (a campaign directory always reflects its last run).  Pass ``summary``
    when ``outcome.summary()`` was already computed (e.g. for rendering) to
    avoid aggregating the records twice.
    """
    stream = CampaignStreamWriter(out_dir, checkpoint_interval=math.inf)
    stream.begin(
        campaign_digest([str(record.get("digest", "")) for record in outcome.records]),
        len(outcome.records),
    )
    stream.append(outcome.records)
    return stream.finalize(outcome.summary() if summary is None else summary)


def load_results(path: os.PathLike) -> List[Dict[str, object]]:
    """Load the per-run records from a ``results.jsonl`` file."""
    records: List[Dict[str, object]] = []
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError as exc:
                    raise AnalysisError(
                        f"{path}:{number}: malformed result record: {exc}"
                    ) from exc
    except OSError as exc:
        raise AnalysisError(f"cannot read campaign results: {exc}") from exc
    return records


def load_summary(path: os.PathLike) -> Dict[str, object]:
    """Load a ``summary.json`` file."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            summary = json.load(handle)
    except (OSError, ValueError) as exc:
        raise AnalysisError(f"cannot read campaign summary: {exc}") from exc
    if not isinstance(summary, dict):
        raise AnalysisError(f"{path}: summary must be a JSON object")
    return summary


def load_campaign(
    directory: os.PathLike,
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Load ``(records, summary)`` from a campaign output directory."""
    directory = Path(directory)
    return (
        load_results(directory / RESULTS_NAME),
        load_summary(directory / SUMMARY_NAME),
    )
