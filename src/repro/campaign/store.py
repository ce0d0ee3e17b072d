"""Durable, SQLite-indexed result store for campaign runs.

:class:`ResultStore` keeps content-addressed JSON artifacts — one
``<digest>.json`` per run, written atomically, human-inspectable, the
durable source of truth — behind a SQLite index (``index.sqlite``, WAL
mode), so a campaign resolves its whole grid with a handful of batched
queries instead of one filesystem probe per run:

* ``runs(digest PRIMARY KEY, campaign_id, seed, created_at, path, record)``
  — one row per stored run.  ``record`` carries a write-through copy of the
  artifact's canonical JSON, so a warm campaign reads *zero* artifact
  files; ``path`` names the artifact the row can always be rebuilt from.
* ``meta(key, value)`` — the schema-version stamp
  (:data:`STORE_SCHEMA_VERSION`).  A store written by a newer layout is
  refused instead of misread.

Durability and concurrency contract:

* Artifacts are written first (tempfile + ``os.replace``), index rows
  second, inside one transaction — a crash can leave an artifact without a
  row (repaired by :meth:`ResultStore.rebuild_index`) but never a row
  without its artifact.
* WAL mode plus a busy timeout makes concurrent writers safe: two runners
  sharing one store commit batches independently; ``INSERT OR REPLACE`` on
  the content digest makes double-writes idempotent (both writers store the
  same bytes for the same digest, by construction of the digest).
* A corrupt or deleted index is an inconvenience, not data loss: the store
  drops it and re-indexes every readable ``*.json`` artifact.  The same
  adoption makes any directory of bare ``<digest>.json`` artifacts (copied
  from another store, or rsynced in) a store: opening it builds the index.
* Lookups ignore ``campaign_id`` — any historical campaign's hit
  short-circuits simulation, which is what makes overlapping sweeps only
  simulate their frontier.
* A handle shared across threads gets a per-thread connection: every
  thread that touches the index lazily opens its own ``sqlite3``
  connection, so no statement ever crosses threads.  On top of WAL's
  ``busy_timeout``, every statement retries with bounded exponential
  backoff when SQLite reports ``database is locked`` — a maintenance
  command racing a running campaign degrades to a short wait, never to a
  crash.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ConfigurationError

#: Layout version of the index; bump when the table shapes or the meaning
#: of a column changes.  A store stamped with a *newer* version is refused
#: (the artifacts remain readable by re-indexing with the newer tool); an
#: older or missing stamp triggers a transparent rebuild.  Version 2 added
#: a ``claims`` table of in-use markers; version 3 drops it again, so a
#: version-2 index is rebuilt from the artifacts on first open.
STORE_SCHEMA_VERSION = 3

#: Bounded retry-with-backoff for ``database is locked``/``busy`` errors:
#: attempt count and initial sleep (doubled per attempt, ~3 s worst case).
_LOCK_RETRY_ATTEMPTS = 6
_LOCK_RETRY_BASE_DELAY = 0.05

_T = TypeVar("_T")

#: File name of the SQLite index inside a store directory.
INDEX_NAME = "index.sqlite"

#: Subdirectory holding the replay engine's captured core traces
#: (``traces/<trace_key>.json``); see the "Trace section" methods.
TRACES_DIR_NAME = "traces"

#: SQLite bind-variable budget per batched query (the engine's historical
#: default limit is 999; stay comfortably below it).
_BATCH = 500

_CREATE_RUNS = """
CREATE TABLE IF NOT EXISTS runs (
    digest      TEXT PRIMARY KEY,
    campaign_id TEXT NOT NULL,
    seed        INTEGER,
    created_at  REAL NOT NULL,
    path        TEXT NOT NULL,
    record      TEXT NOT NULL
)
"""

_CREATE_META = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""



@dataclass(frozen=True)
class GcOutcome:
    """What one :meth:`ResultStore.gc` pass did."""

    removed: int
    traces_removed: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {"removed": self.removed, "traces_removed": self.traces_removed}


@dataclass
class StoreCounters:
    """Operation counters — what the throughput bench and tests assert on.

    ``index_queries`` counts SQL statements that hit the index,
    ``artifact_reads``/``artifact_writes`` count JSON files opened.  A warm
    grid lookup must cost O(grid / batch) queries and zero artifact reads.
    """

    index_queries: int = 0
    artifact_reads: int = 0
    artifact_writes: int = 0
    batches_flushed: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    trace_writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "index_queries": self.index_queries,
            "artifact_reads": self.artifact_reads,
            "artifact_writes": self.artifact_writes,
            "batches_flushed": self.batches_flushed,
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "trace_writes": self.trace_writes,
        }

    def reset(self) -> None:
        """Zero every counter (phase boundaries in benches and tests)."""
        self.index_queries = 0
        self.artifact_reads = 0
        self.artifact_writes = 0
        self.batches_flushed = 0
        self.trace_hits = 0
        self.trace_misses = 0
        self.trace_writes = 0


class ResultStore:
    """Digest-keyed durable run store: JSON artifacts + SQLite index.

    Args:
        directory: store root (created on demand).  Holds the ``*.json``
            artifacts and ``index.sqlite``.
        campaign_id: label stamped on rows written through this handle so
            ``stats()`` can attribute entries to campaigns.  Lookups never
            filter on it — cross-campaign dedup is the point of the store.
    """

    def __init__(self, directory: "os.PathLike[str] | str", campaign_id: str = "adhoc") -> None:
        self.directory = Path(directory)
        self.campaign_id = campaign_id
        self.counters = StoreCounters()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot use {self.directory} as a result store: {exc}"
            ) from exc
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._open_index()

    # ------------------------------------------------------------------ #
    # Index lifecycle.
    # ------------------------------------------------------------------ #

    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_NAME

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False so close() can reap every thread's
        # connection; all *statements* stay on the connection's own thread
        # via the thread-local discipline of ``_db``.
        db = sqlite3.connect(self.index_path, timeout=30.0, check_same_thread=False)
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("PRAGMA synchronous=NORMAL")
        db.execute("PRAGMA busy_timeout=30000")
        return db

    @property
    def _db(self) -> sqlite3.Connection:
        """This thread's connection, opened lazily.

        Per-thread connections mean no cursor or transaction ever crosses a
        thread boundary when several threads share one handle, which is the
        discipline SQLite's serialized mode is fast at and WAL makes
        concurrent.
        """
        db: Optional[sqlite3.Connection] = getattr(self._local, "db", None)
        if db is None:
            db = self._connect()
            self._local.db = db
            with self._connections_lock:
                self._connections.append(db)
        return db

    def _discard_thread_connection(self) -> None:
        db: Optional[sqlite3.Connection] = getattr(self._local, "db", None)
        if db is not None:
            with self._connections_lock:
                if db in self._connections:
                    self._connections.remove(db)
            db.close()
            self._local.db = None

    def _with_lock_retry(self, operation: Callable[[], _T]) -> _T:
        """Run ``operation``, retrying on ``database is locked``/``busy``.

        ``busy_timeout`` already absorbs most writer contention, but a
        checkpoint or a writer stuck beyond the timeout still surfaces as
        ``sqlite3.OperationalError``; bounded exponential backoff turns
        that into a short stall instead of a failed campaign or gc pass.
        Non-lock operational errors propagate immediately.
        """
        delay = _LOCK_RETRY_BASE_DELAY
        for attempt in range(_LOCK_RETRY_ATTEMPTS):
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt == _LOCK_RETRY_ATTEMPTS - 1:
                    raise
                time.sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def _open_index(self) -> None:
        try:
            db = self._db
            version = self._read_version(db)
        except sqlite3.DatabaseError:
            # Not a database / torn file: rebuild the index from the
            # artifacts, which remain the source of truth.
            self._recover_index()
            return
        if version is None:
            # Fresh index.  Artifacts are the source of truth, so adopt any
            # already in the directory (lost/deleted index, rsynced store).
            self._initialise(db)
            self.rebuild_index()
            return
        if version > STORE_SCHEMA_VERSION:
            self._discard_thread_connection()
            raise ConfigurationError(
                f"{self.index_path} uses store schema {version}, newer than "
                f"this tool's schema {STORE_SCHEMA_VERSION}; upgrade the "
                "tool, or copy the *.json artifacts into a fresh directory "
                "and use that as the store (opening it adopts them)"
            )
        if version < STORE_SCHEMA_VERSION:
            self._recover_index()

    @staticmethod
    def _read_version(db: sqlite3.Connection) -> Optional[int]:
        try:
            row = db.execute("SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
        except sqlite3.OperationalError:
            return None  # fresh database: no tables yet
        if row is None:
            return None
        try:
            return int(row[0])
        except (TypeError, ValueError):
            raise sqlite3.DatabaseError(f"malformed schema_version stamp {row[0]!r}")

    def _initialise(self, db: sqlite3.Connection) -> None:
        with db:
            db.execute(_CREATE_RUNS)
            db.execute(_CREATE_META)
            db.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )

    def _recover_index(self) -> None:
        """Drop the unusable index and rebuild it from the JSON artifacts."""
        self._discard_thread_connection()
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.index_path}{suffix}")
            except OSError:
                pass
        self._initialise(self._db)
        self.rebuild_index()

    def close(self) -> None:
        """Close every thread's connection (the store can be reopened any time)."""
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for db in connections:
            db.close()
        self._local = threading.local()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Lookups.
    # ------------------------------------------------------------------ #

    def get_many(self, digests: Sequence[str]) -> Dict[str, Dict[str, object]]:
        """Resolve ``digests`` in batched index queries.

        Returns a mapping of the *hits*; absent keys are misses.  One query
        resolves up to ``_BATCH`` digests, so a whole campaign grid costs
        ``ceil(grid / _BATCH)`` queries and zero artifact reads.  A row whose
        inline record is unreadable falls back to its artifact; if that too
        is unreadable the digest is a miss (the run is simply re-simulated).
        """
        hits: Dict[str, Dict[str, object]] = {}
        unique = list(dict.fromkeys(digests))
        for start in range(0, len(unique), _BATCH):
            chunk = unique[start : start + _BATCH]
            marks = ",".join("?" for _ in chunk)
            self.counters.index_queries += 1
            rows = self._with_lock_retry(
                lambda: self._db.execute(
                    f"SELECT digest, path, record FROM runs WHERE digest IN ({marks})",
                    chunk,
                ).fetchall()
            )
            for digest, path, text in rows:
                record = self._decode(digest, text)
                if record is None:
                    record = self._read_artifact(digest, Path(path))
                if record is not None:
                    hits[digest] = record
        return hits

    def get(self, digest: str) -> Optional[Dict[str, object]]:
        """Single-digest convenience wrapper over :meth:`get_many`."""
        return self.get_many([digest]).get(digest)

    def _decode(self, digest: str, text: object) -> Optional[Dict[str, object]]:
        try:
            record = json.loads(text)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("digest") != digest:
            return None
        return record

    def _read_artifact(self, digest: str, path: Path) -> Optional[Dict[str, object]]:
        # Index rows store bare artifact names; anchor those under the
        # store root.  Paths that already carry a directory (``glob``
        # results during a rebuild) are used as-is.
        if not path.is_absolute() and path.parent == Path("."):
            path = self.directory / path
        self.counters.artifact_reads += 1
        try:
            with path.open("r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("digest") != digest:
            return None
        return record

    def __contains__(self, digest: str) -> bool:
        self.counters.index_queries += 1
        row = self._with_lock_retry(
            lambda: self._db.execute("SELECT 1 FROM runs WHERE digest = ?", (digest,)).fetchone()
        )
        return row is not None

    def __len__(self) -> int:
        self.counters.index_queries += 1
        row = self._with_lock_retry(
            lambda: self._db.execute("SELECT COUNT(*) FROM runs").fetchone()
        )
        return int(row[0])

    # ------------------------------------------------------------------ #
    # Writes.
    # ------------------------------------------------------------------ #

    def put_many(self, items: Sequence[Tuple[str, Dict[str, object]]]) -> None:
        """Store ``(digest, record)`` pairs: artifacts first, then one
        indexed transaction.

        The write order is the crash-safety contract: after any prefix of
        this method, every indexed row has its artifact on disk.  Replays
        (same digest again) are idempotent.
        """
        if not items:
            return
        rows: List[Tuple[str, str, Optional[int], float, str, str]] = []
        now = time.time()
        for digest, record in items:
            text = json.dumps(record, sort_keys=True, separators=(",", ":"))
            name = f"{digest}.json"
            self._write_artifact(name, text)
            seed = record.get("seed")
            rows.append(
                (
                    digest,
                    self.campaign_id,
                    seed if isinstance(seed, int) else None,
                    now,
                    name,
                    text,
                )
            )
        self.counters.index_queries += 1
        self.counters.batches_flushed += 1

        def flush() -> None:
            with self._db:
                self._db.executemany(
                    "INSERT OR REPLACE INTO runs "
                    "(digest, campaign_id, seed, created_at, path, record) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    rows,
                )

        self._with_lock_retry(flush)

    def put(self, digest: str, record: Dict[str, object]) -> None:
        """Single-record convenience wrapper over :meth:`put_many`."""
        self.put_many([(digest, record)])

    def _write_artifact(self, name: str, text: str) -> None:
        path = self.directory / name
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        self.counters.artifact_writes += 1
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)

    # ------------------------------------------------------------------ #
    # Trace section: the replay engine's durable core-trace memos.
    # ------------------------------------------------------------------ #
    #
    # Captured core traces (repro.sim.trace.CoreTrace payloads) live under
    # ``traces/<key>.json``, content-addressed by the core-side trace key.
    # They are deliberately *not* indexed: a trace lookup is a single
    # exact-path probe (no grid resolution to batch), the subdirectory
    # keeps them invisible to the run artifacts' ``glob("*.json")``, and a
    # missing or corrupt file is always just a cache miss — the capture
    # run regenerates it.  Writes are atomic (tempfile + os.replace) and
    # idempotent by construction of the key.

    @property
    def traces_dir(self) -> Path:
        return self.directory / TRACES_DIR_NAME

    def _trace_path(self, key: str) -> Path:
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise ConfigurationError(f"malformed trace key: {key!r}")
        return self.traces_dir / f"{key}.json"

    def get_trace(self, key: str) -> Optional[Dict[str, object]]:
        """The stored trace payload for ``key``, or ``None``.

        Schema validation is the caller's job
        (:meth:`repro.sim.trace.CoreTrace.from_payload` treats stale
        schemas as misses); this layer only promises a well-formed dict.
        """
        path = self._trace_path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.counters.trace_misses += 1
            return None
        if not isinstance(payload, dict):
            self.counters.trace_misses += 1
            return None
        self.counters.trace_hits += 1
        return payload

    def put_trace(self, key: str, payload: Dict[str, object]) -> None:
        """Persist a trace payload under ``traces/<key>.json`` atomically."""
        path = self._trace_path(key)
        self.traces_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        self.counters.trace_writes += 1
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)

    def trace_stats(self) -> Dict[str, int]:
        """Entry count and on-disk bytes of the trace section."""
        entries = 0
        total = 0
        try:
            for path in self.traces_dir.glob("*.json"):
                entries += 1
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        except OSError:
            pass
        return {"entries": entries, "bytes": total}

    # ------------------------------------------------------------------ #
    # Maintenance: rebuild, stats, gc.
    # ------------------------------------------------------------------ #

    def rebuild_index(self) -> int:
        """Re-index every readable ``*.json`` artifact not already indexed.

        Returns the number of rows added.  Used both for corrupt-index
        recovery and to adopt artifacts copied in from elsewhere.
        """
        indexed = {
            row[0]
            for row in self._with_lock_retry(
                lambda: self._db.execute("SELECT digest FROM runs").fetchall()
            )
        }
        self.counters.index_queries += 1
        added = 0
        batch: List[Tuple[str, Dict[str, object]]] = []
        for path in sorted(self.directory.glob("*.json")):
            digest = path.stem
            if digest in indexed:
                continue
            record = self._read_artifact(digest, path)
            if record is None:
                continue
            batch.append((digest, record))
            added += 1
            if len(batch) >= _BATCH:
                self.put_many(batch)
                batch = []
        self.put_many(batch)
        return added

    def stats(self) -> Dict[str, object]:
        """Entries, per-campaign attribution and on-disk sizes."""
        self.counters.index_queries += 2
        entries = int(
            self._with_lock_retry(
                lambda: self._db.execute("SELECT COUNT(*) FROM runs").fetchone()
            )[0]
        )
        campaigns = {
            str(campaign): int(count)
            for campaign, count in self._with_lock_retry(
                lambda: self._db.execute(
                    "SELECT campaign_id, COUNT(*) FROM runs "
                    "GROUP BY campaign_id ORDER BY campaign_id"
                ).fetchall()
            )
        }
        artifact_bytes = sum(
            path.stat().st_size for path in self.directory.glob("*.json")
        )
        try:
            index_bytes = self.index_path.stat().st_size
        except OSError:
            index_bytes = 0
        return {
            "directory": str(self.directory),
            "schema": STORE_SCHEMA_VERSION,
            "entries": entries,
            "campaigns": campaigns,
            "artifact_bytes": artifact_bytes,
            "index_bytes": index_bytes,
            "traces": self.trace_stats(),
        }

    def gc(self, keep_days: float) -> GcOutcome:
        """Delete runs older than ``keep_days`` days (rows *and* artifacts).

        ``keep_days`` must be a number >= 0 (NaN is refused; ``inf`` keeps
        everything).  Artifacts are unlinked after their rows so a crash
        mid-gc leaves re-indexable files, never dangling rows.  The trace
        section ages by file mtime (traces are unindexed); an expired trace
        is only a future capture run, never data loss.
        """
        if not keep_days >= 0:
            raise ConfigurationError(f"keep_days must be >= 0, got {keep_days}")
        cutoff = time.time() - keep_days * 86400.0
        traces_removed = self._gc_traces(cutoff)
        self.counters.index_queries += 2
        victims: List[Tuple[str, str]] = [
            (str(digest), str(path))
            for digest, path in self._with_lock_retry(
                lambda: self._db.execute(
                    "SELECT digest, path FROM runs WHERE created_at < ?", (cutoff,)
                ).fetchall()
            )
        ]
        if not victims:
            return GcOutcome(removed=0, traces_removed=traces_removed)

        def delete_rows() -> None:
            with self._db:
                for start in range(0, len(victims), _BATCH):
                    chunk = victims[start : start + _BATCH]
                    marks = ",".join("?" for _ in chunk)
                    self._db.execute(
                        f"DELETE FROM runs WHERE digest IN ({marks})",
                        [digest for digest, _ in chunk],
                    )

        self._with_lock_retry(delete_rows)
        for _, path in victims:
            target = Path(path)
            if not target.is_absolute():
                target = self.directory / target
            try:
                os.unlink(target)
            except OSError:
                pass
        return GcOutcome(removed=len(victims), traces_removed=traces_removed)

    def _gc_traces(self, cutoff: float) -> int:
        """Unlink trace files last modified before ``cutoff``; returns count."""
        removed = 0
        try:
            candidates = list(self.traces_dir.glob("*.json"))
        except OSError:
            return 0
        for path in candidates:
            try:
                if path.stat().st_mtime < cutoff:
                    os.unlink(path)
                    removed += 1
            except OSError:
                pass
        return removed


def is_store_directory(directory: "os.PathLike[str] | str") -> bool:
    """True when ``directory`` holds (or held) a SQLite-indexed store."""
    return (Path(directory) / INDEX_NAME).exists()

