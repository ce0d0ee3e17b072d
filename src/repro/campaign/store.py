"""Durable, content-addressed result store for campaign runs.

:class:`ResultStore` is a directory of JSON artifacts, one
``<digest>.json`` per run, named by the run's content digest
(:meth:`repro.campaign.spec.RunDescriptor.digest`).  The artifacts are the
whole store: a lookup opens ``<digest>.json`` and a write atomically
replaces it, so any directory of such files (copied from another store,
or rsynced in) is a store as it is.

Rules the store keeps:

* An *entry* is a file named by 64 lowercase hex digits plus ``.json``.
  Lookups, ``len``, :meth:`ResultStore.stats` and :meth:`ResultStore.gc`
  touch nothing else, so campaign files sharing the directory
  (``results.jsonl``, ``summary.json``, ``campaign.json``) are ignored
  and left untouched.  A digest that is not 64 lowercase hex digits is
  refused before any I/O.
* The store holds run records only.  What older versions of this tool
  kept beside the artifacts, an ``index.sqlite`` run index and a
  ``traces`` directory of captured core traces, is ignored and left
  untouched too.
* A hit needs an artifact that parses to a JSON object whose ``digest``
  matches its file name.  Anything else is a miss, and the run is simply
  simulated again.  Lookups never filter by campaign: any earlier
  campaign's entry short-circuits simulation, which is what makes
  overlapping sweeps only simulate their frontier.
* Writes go through :func:`atomic_write_text`: a temp file unique to the
  writing process and thread, then ``os.replace``.  A reader sees the old
  file or the new one, never a torn one, and concurrent writers of one
  digest (threads sharing a handle, or processes sharing the directory)
  each replace it whole with the same bytes, because the digest fixes the
  content.
* :meth:`ResultStore.gc` ages entries by file mtime.

A handle holds nothing open, so threads may share one and it needs no
closing.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: A run digest: the name of an entry, less its ``.json`` suffix.
_DIGEST = re.compile(r"[0-9a-f]{64}")


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically (temp file + ``os.replace``).

    The temp file is named per process *and* thread, so writers sharing a
    directory, or one handle, never write into each other's temp file.
    Its name ends in ``.tmp``, so it never matches an entry or ``*.json``.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


@dataclass(frozen=True)
class GcOutcome:
    """What one :meth:`ResultStore.gc` pass did."""

    removed: int

    def as_dict(self) -> Dict[str, object]:
        return {"removed": self.removed}


@dataclass
class StoreCounters:
    """Operation counters — what the throughput bench and tests assert on.

    ``artifact_reads``/``artifact_writes`` count entry files opened and
    written: a warm grid lookup reads one artifact per unique digest and
    writes none.
    """

    artifact_reads: int = 0
    artifact_writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"artifact_reads": self.artifact_reads, "artifact_writes": self.artifact_writes}

    def reset(self) -> None:
        """Zero every counter (phase boundaries in benches and tests)."""
        self.artifact_reads = 0
        self.artifact_writes = 0


class ResultStore:
    """Digest-keyed durable run store: a directory of JSON artifacts.

    Args:
        directory: store root (created on demand).
    """

    def __init__(self, directory: "os.PathLike[str] | str") -> None:
        self.directory = Path(directory)
        self.counters = StoreCounters()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot use {self.directory} as a result store: {exc}"
            ) from exc

    def _entry_path(self, digest: str) -> Path:
        if not _DIGEST.fullmatch(digest):
            raise ConfigurationError(f"malformed run digest: {digest!r}")
        return self.directory / f"{digest}.json"

    def _entries(self) -> Iterator[Path]:
        """Every entry file of the store, and nothing else."""
        for path in self.directory.iterdir():
            name = path.name
            if name.endswith(".json") and _DIGEST.fullmatch(name[:-5]):
                yield path

    # ------------------------------------------------------------------ #
    # Lookups.
    # ------------------------------------------------------------------ #

    def get_many(self, digests: Sequence[str]) -> Dict[str, Dict[str, object]]:
        """Resolve ``digests``, one artifact read per unique digest.

        Returns a mapping of the *hits*; absent keys are misses.  A missing,
        unreadable or mis-named artifact is a miss (the run is simply
        re-simulated).
        """
        hits: Dict[str, Dict[str, object]] = {}
        for digest in dict.fromkeys(digests):
            record = self._read(digest)
            if record is not None:
                hits[digest] = record
        return hits

    def get(self, digest: str) -> Optional[Dict[str, object]]:
        """Single-digest convenience wrapper over :meth:`get_many`."""
        return self.get_many([digest]).get(digest)

    def _read(self, digest: str) -> Optional[Dict[str, object]]:
        path = self._entry_path(digest)
        try:
            # Unbuffered: the whole file in one read, without a buffered
            # reader's set-up, which costs about as much as the read itself.
            with open(path, "rb", buffering=0) as handle:
                self.counters.artifact_reads += 1
                record = json.loads(handle.readall())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("digest") != digest:
            return None
        return record

    def __contains__(self, digest: str) -> bool:
        return self._entry_path(digest).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    # ------------------------------------------------------------------ #
    # Writes.
    # ------------------------------------------------------------------ #

    def put_many(self, items: Sequence[Tuple[str, Dict[str, object]]]) -> None:
        """Store ``(digest, record)`` pairs, one atomically replaced artifact
        each.  Replays (same digest again) are idempotent."""
        for digest, record in items:
            path = self._entry_path(digest)
            self.counters.artifact_writes += 1
            atomic_write_text(path, json.dumps(record, sort_keys=True, separators=(",", ":")))

    def put(self, digest: str, record: Dict[str, object]) -> None:
        """Single-record convenience wrapper over :meth:`put_many`."""
        self.put_many([(digest, record)])

    # ------------------------------------------------------------------ #
    # Maintenance: stats, gc.
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        """Entry count and on-disk size of the entries (an entry removed
        since the listing is skipped)."""
        entries = artifact_bytes = 0
        for path in self._entries():
            try:
                artifact_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "directory": str(self.directory),
            "entries": entries,
            "artifact_bytes": artifact_bytes,
        }

    def gc(self, keep_days: float) -> GcOutcome:
        """Delete entries last modified more than ``keep_days`` days ago.

        ``keep_days`` must be a number >= 0 (NaN is refused; ``inf`` keeps
        everything).  An expired entry is only a future re-simulation,
        never data loss.
        """
        if not keep_days >= 0:
            raise ConfigurationError(f"keep_days must be >= 0, got {keep_days}")
        cutoff = time.time() - keep_days * 86400.0
        removed = 0
        for path in list(self._entries()):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return GcOutcome(removed=removed)
