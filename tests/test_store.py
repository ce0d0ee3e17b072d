"""Tests for the durable result store.

The store is the campaign engine's long-lived memory: a directory of
content-addressed JSON artifacts, one ``<digest>.json`` per run.  These
tests pin the contracts the runner and CLI rely on: concurrent writers
never lose or tear an entry, dedup works across campaigns, unreadable
artifacts are misses, a directory of bare artifacts is a store as it is,
and the store touches no file that is not an entry (including the
``index.sqlite`` and the ``traces/`` directory older layouts kept beside
the artifacts).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import shutil
import sqlite3
import sys
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    ParallelRunner,
    ResultStore,
    StoreCounters,
)
from repro.errors import ConfigurationError
from repro.sim.trace import clear_trace_cache

# Two overlapping grids: B's first workload and rsk reference are A's
# runs verbatim, so a store warmed by A leaves B a one-run frontier.
SPEC_A = CampaignSpec(presets=("small",), num_workloads=1, iterations=4, rsk_iterations=20)
SPEC_B = CampaignSpec(presets=("small",), num_workloads=2, iterations=4, rsk_iterations=20)


def _record(digest: str, seed: int = 0) -> dict:
    return {"digest": digest, "schema": 4, "seed": seed, "kind": "synthetic"}


def _digest(i: int) -> str:
    return f"{i:064x}"


def _put_range(store: ResultStore, start: int, stop: int) -> None:
    store.put_many([(_digest(i), _record(_digest(i), seed=i)) for i in range(start, stop)])


def _age(path, days: float) -> None:
    """Backdate ``path``'s mtime by ``days`` days (what ``gc`` ages by)."""
    then = time.time() - days * 86400.0
    os.utime(path, (then, then))


class TestStoreBasics:
    def test_round_trip_and_membership(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = _record(_digest(1), seed=7)
        store.put(_digest(1), record)
        assert store.get(_digest(1)) == record
        assert _digest(1) in store
        assert _digest(2) not in store
        assert len(store) == 1
        assert store.get(_digest(2)) is None

    def test_store_directory_is_created_and_detectable(self, tmp_path):
        target = tmp_path / "nested" / "store"
        assert not target.exists()
        ResultStore(target)
        assert target.is_dir()

    def test_get_many_batches_and_dedups_the_request(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _put_range(store, 0, 20)
        store.counters.reset()
        asked = [_digest(i % 20) for i in range(60)]  # each digest thrice
        hits = store.get_many(asked)
        assert len(hits) == 20
        assert store.counters.artifact_reads == 20
        assert store.counters.artifact_writes == 0

    def test_put_many_is_idempotent_under_replay(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _put_range(store, 0, 5)
        _put_range(store, 0, 5)
        assert len(store) == 5
        assert len(list((tmp_path / "store").glob("*.json"))) == 5

    def test_empty_requests_touch_neither_index_nor_disk(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.counters.reset()
        assert store.get_many([]) == {}
        store.put_many([])
        assert store.counters.as_dict() == StoreCounters().as_dict()
        assert [path.name for path in (tmp_path / "store").glob("*.json")] == []

    def test_counters_report_and_reset_every_field(self, tmp_path):
        fields = set(vars(StoreCounters()))
        store = ResultStore(tmp_path / "store")
        store.counters.reset()
        _put_range(store, 0, 3)
        store.get_many([_digest(0), _digest(9)])
        counters = store.counters.as_dict()
        assert set(counters) == fields
        assert counters["artifact_writes"] == 3
        store.counters.reset()
        assert store.counters.as_dict() == dict.fromkeys(fields, 0)

    def test_record_under_wrong_digest_is_a_miss(self, tmp_path):
        """A mis-synced artifact (file name != embedded digest) must be a
        miss, not a silently wrong payload."""
        store = ResultStore(tmp_path / "store")
        store.put(_digest(4), _record(_digest(4)))
        swapped = json.dumps(_record(_digest(9)), sort_keys=True)
        (tmp_path / "store" / f"{_digest(4)}.json").write_text(swapped, encoding="utf-8")
        assert store.get(_digest(4)) is None


def _stress_writer(directory: str, offset: int, count: int) -> None:
    """Subprocess body: write ``count`` records starting at ``offset``
    through an independent store handle, in several small batches."""
    store = ResultStore(directory)
    for start in range(offset, offset + count, 7):
        stop = min(start + 7, offset + count)
        store.put_many([(_digest(i), _record(_digest(i), seed=i)) for i in range(start, stop)])


class TestConcurrentWriters:
    def test_overlapping_writers_lose_nothing(self, tmp_path):
        """Four processes hammer one store with overlapping digest ranges;
        per-writer temp files + ``os.replace`` must leave every digest
        present, readable and consistent with its artifact."""
        directory = tmp_path / "store"
        ResultStore(directory)
        ctx = multiprocessing.get_context("fork")
        offsets = (0, 30, 60, 90)
        workers = [
            ctx.Process(target=_stress_writer, args=(str(directory), offset, 40))
            for offset in offsets
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        store = ResultStore(directory)
        assert len(store) == 130  # 0..129, overlaps deduplicated
        hits = store.get_many([_digest(i) for i in range(130)])
        assert len(hits) == 130
        assert all(hits[_digest(i)]["seed"] == i for i in range(130))
        # No writer left a temp file behind.
        assert len(list(directory.iterdir())) == 130


class TestCrossCampaignDedup:
    def test_second_campaign_simulates_only_its_frontier(self, tmp_path):
        """Campaign B overlaps campaign A in two of its three runs; with a
        shared store, B must simulate exactly the one novel run and still
        produce records bit-equal to an uncached execution."""
        directory = tmp_path / "store"
        cold = ParallelRunner(jobs=1, cache=ResultStore(directory)).run(SPEC_A.expand())
        assert cold.stats["simulated"] == 2
        store = ResultStore(directory)
        overlap = ParallelRunner(jobs=2, cache=store).run(SPEC_B.expand())
        assert overlap.stats["simulated"] == 1
        assert overlap.stats["cached"] == 2
        assert overlap.records == ParallelRunner(jobs=1).run(SPEC_B.expand()).records
        assert store.stats()["entries"] == 3

    def test_fully_warm_campaign_simulates_nothing(self, tmp_path):
        directory = tmp_path / "store"
        ParallelRunner(jobs=1, cache=ResultStore(directory)).run(SPEC_B.expand())
        store = ResultStore(directory)
        warm = ParallelRunner(jobs=2, cache=store).run(SPEC_B.expand())
        counters = store.counters.as_dict()
        assert warm.stats["simulated"] == 0
        assert warm.stats["cached"] == 3
        assert counters["artifact_reads"] == 3
        assert counters["artifact_writes"] == 0


class TestRecovery:
    def test_unreadable_artifacts_are_skipped_during_rebuild(self, tmp_path):
        directory = tmp_path / "store"
        store = ResultStore(directory)
        _put_range(store, 0, 4)
        (directory / f"{_digest(0)}.json").write_text("{ torn", encoding="utf-8")
        store = ResultStore(directory)
        assert len(store) == 4  # still an entry: the next put replaces it
        assert store.get(_digest(0)) is None
        assert set(store.get_many([_digest(i) for i in range(4)])) == {
            _digest(i) for i in range(1, 4)
        }

    def test_unusable_store_path_is_a_configuration_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="result store"):
            ResultStore(blocker / "store")

    @pytest.mark.parametrize(
        "digest",
        ["", "ab" * 31, "AB" * 32, "../" + "a" * 61],
        ids=["empty", "short", "upper-case", "parent-dir"],
    )
    def test_malformed_run_digest_is_refused(self, tmp_path, digest):
        """Only a 64-hex-digit name is an entry; any other digest could
        name a file outside the entries and is refused before any I/O."""
        store = ResultStore(tmp_path / "store")
        for call in (lambda: store.put(digest, _record(digest)), lambda: store.get(digest)):
            with pytest.raises(ConfigurationError, match="malformed run digest"):
                call()
        assert list((tmp_path / "store").iterdir()) == []


def _parent_layout_index(directory, digests) -> None:
    """Write the ``index.sqlite`` the SQLite-indexed layout (store schema 3)
    kept beside its artifacts: a ``runs`` row per digest, inline record
    included, and the schema stamp."""
    db = sqlite3.connect(directory / "index.sqlite")
    with db:
        db.execute(
            "CREATE TABLE runs (digest TEXT PRIMARY KEY, campaign_id TEXT NOT NULL, "
            "seed INTEGER, created_at REAL NOT NULL, path TEXT NOT NULL, record TEXT NOT NULL)"
        )
        db.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        db.execute("INSERT INTO meta VALUES ('schema_version', '3')")
        for digest in digests:
            name = f"{digest}.json"
            record = (directory / name).read_text(encoding="utf-8")
            db.execute(
                "INSERT INTO runs VALUES (?, 'adhoc', NULL, ?, ?, ?)",
                (digest, time.time(), name, record),
            )
    db.close()


class TestAdoption:
    def test_copied_artifacts_are_adopted_in_place(self, tmp_path):
        """A directory of bare ``<digest>.json`` artifacts (here a copy of
        a store) is a store as it is: a warm campaign simulates nothing."""
        descriptors = SPEC_B.expand()
        cold = ParallelRunner(jobs=1, cache=ResultStore(tmp_path / "store")).run(descriptors)
        copy = tmp_path / "copy"
        copy.mkdir()
        for path in (tmp_path / "store").glob("*.json"):
            shutil.copy(path, copy / path.name)
        store = ResultStore(copy)
        assert len(store) == len(descriptors)
        warm = ParallelRunner(jobs=1, cache=store).run(descriptors)
        assert warm.stats["simulated"] == 0
        assert warm.records == cold.records

    def test_parent_layout_store_answers_warm_and_keeps_its_index(self, tmp_path):
        """A store written by the SQLite-indexed layout holds the same
        artifacts plus ``index.sqlite``: a warm campaign answers from the
        artifacts, and the index is ignored and left byte-identical."""
        directory = tmp_path / "store"
        descriptors = SPEC_B.expand()
        cold = ParallelRunner(jobs=1, cache=ResultStore(directory)).run(descriptors)
        digests = sorted({d.digest() for d in descriptors})
        _parent_layout_index(directory, digests)
        index = (directory / "index.sqlite").read_bytes()
        store = ResultStore(directory)
        warm = ParallelRunner(jobs=2, cache=store).run(descriptors)
        assert warm.stats["simulated"] == 0
        assert warm.records == cold.records
        assert (directory / "index.sqlite").read_bytes() == index
        assert store.stats()["entries"] == len(digests)
        assert store.stats()["artifact_bytes"] == sum(
            (directory / f"{digest}.json").stat().st_size for digest in digests
        )
        assert store.gc(keep_days=0.0).removed == len(digests)
        assert [path.name for path in directory.iterdir()] == ["index.sqlite"]
        assert (directory / "index.sqlite").read_bytes() == index


class TestStatsAndGc:
    def test_stats_reports_sizes_and_attribution(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _put_range(store, 0, 4)
        stats = store.stats()
        assert stats["entries"] == 4
        assert stats["artifact_bytes"] == sum(
            path.stat().st_size for path in (tmp_path / "store").glob("*.json")
        )
        assert stats["directory"] == str(tmp_path / "store")
        assert set(stats) == {"directory", "entries", "artifact_bytes"}

    def test_gc_removes_old_rows_and_their_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _put_range(store, 0, 3)
        _age(tmp_path / "store" / f"{_digest(0)}.json", days=7)
        outcome = store.gc(keep_days=1.0)
        assert outcome.removed == 1
        assert len(store) == 2
        assert store.get(_digest(0)) is None
        assert not (tmp_path / "store" / f"{_digest(0)}.json").exists()
        assert (tmp_path / "store" / f"{_digest(1)}.json").exists()

    def test_gc_keep_everything_and_bad_arguments(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _put_range(store, 0, 2)
        assert store.gc(keep_days=365.0).removed == 0
        assert store.gc(keep_days=math.inf).removed == 0
        for bad in (-1.0, math.nan):
            with pytest.raises(ConfigurationError, match="keep_days"):
                store.gc(keep_days=bad)
        assert len(store) == 2

    def test_leftover_temp_file_is_not_an_entry(self, tmp_path):
        """A writer that died between its temp write and ``os.replace``
        leaves ``<digest>.json.<pid>.<thread>.tmp``: not an entry, so it is
        neither read, counted nor collected."""
        directory = tmp_path / "store"
        store = ResultStore(directory)
        leftover = directory / f"{_digest(1)}.json.{os.getpid()}.1.tmp"
        leftover.write_text(json.dumps(_record(_digest(1))), encoding="utf-8")
        _age(leftover, days=7)
        assert store.get(_digest(1)) is None
        assert _digest(1) not in store
        assert (len(store), store.stats()["entries"]) == (0, 0)
        assert store.gc(keep_days=0.0).removed == 0
        assert leftover.exists()

    def test_gc_outcome_as_dict(self, tmp_path):
        outcome = ResultStore(tmp_path / "store").gc(keep_days=365.0)
        assert outcome.as_dict() == {"removed": 0}

    def test_only_entries_are_counted_and_collected(self, tmp_path):
        """Files that are not ``<64 hex digits>.json`` are not entries:
        campaign files sharing the directory survive ``stats`` and ``gc``."""
        directory = tmp_path / "store"
        store = ResultStore(directory)
        _put_range(store, 0, 2)
        others = ["summary.json", "campaign.json", "results.jsonl", f"{'ab' * 31}.json"]
        for name in others:
            (directory / name).write_text("{}", encoding="utf-8")
            _age(directory / name, days=7)
        stats = store.stats()
        assert (stats["entries"], len(store)) == (2, 2)
        assert stats["artifact_bytes"] == sum(
            (directory / f"{_digest(i)}.json").stat().st_size for i in range(2)
        )
        assert store.gc(keep_days=0.0).removed == 2
        assert sorted(path.name for path in directory.iterdir()) == sorted(others)


# --------------------------------------------------------------------------- #
# Run records only: captured core traces stay in the process that made them.
# --------------------------------------------------------------------------- #


class TestRunRecordsOnly:
    def test_leftover_traces_directory_is_ignored_and_kept(self, tmp_path):
        """Older versions kept replay-engine core traces in a ``traces/``
        directory beside the artifacts.  A store holding one answers
        lookups, ``len``, ``stats`` and ``gc`` exactly like a store
        without it, and leaves it as it found it."""
        plain, legacy = tmp_path / "plain", tmp_path / "legacy"
        for directory in (plain, legacy):
            _put_range(ResultStore(directory), 0, 3)
        traces = legacy / "traces"
        traces.mkdir()
        leftover = traces / f"{'ab' * 32}.json"
        leftover.write_text(json.dumps({"schema": 1, "key": "ab" * 32}), encoding="utf-8")
        _age(leftover, days=7)
        _age(traces, days=7)
        store, reference = ResultStore(legacy), ResultStore(plain)
        digests = [_digest(i) for i in range(4)]
        assert store.get_many(digests) == reference.get_many(digests)
        assert len(store) == len(reference) == 3
        assert dict(store.stats(), directory=None) == dict(reference.stats(), directory=None)
        assert store.gc(keep_days=0.0) == reference.gc(keep_days=0.0)
        assert [path.name for path in legacy.iterdir()] == ["traces"]
        assert [path.name for path in traces.iterdir()] == [leftover.name]

    def test_traces_are_never_indexed_as_runs(self, tmp_path):
        """Entries are the top-level artifacts only: a valid run record under
        ``traces/``, named by its digest, is neither found nor counted nor
        collected."""
        directory = tmp_path / "store"
        _put_range(ResultStore(directory), 0, 2)
        traces = directory / "traces"
        traces.mkdir()
        moved = traces / f"{_digest(1)}.json"
        (directory / f"{_digest(1)}.json").rename(moved)
        _age(moved, days=7)
        store = ResultStore(directory)
        assert _digest(1) not in store
        assert store.get_many([_digest(0), _digest(1)]) == {_digest(0): _record(_digest(0), 0)}
        assert len(store) == 1
        kept = directory / f"{_digest(0)}.json"
        assert store.stats()["artifact_bytes"] == kept.stat().st_size
        assert store.gc(keep_days=1.0).removed == 0
        assert moved.exists() and kept.exists()

    def test_replay_campaign_writes_run_records_only(self, tmp_path):
        """A replay-engine campaign keeps its core captures in its own
        processes: the store it writes holds one artifact per run and no
        ``traces/`` directory, serial or pooled."""
        spec = CampaignSpec(presets=("small",), num_workloads=2, iterations=4, engine="replay")
        descriptors = spec.expand()
        try:
            for jobs in (1, 2):
                # Every kernel is captured afresh, here or in the pool's
                # workers: a capture is what used to write ``traces/``.
                clear_trace_cache()
                directory = tmp_path / f"jobs{jobs}"
                ParallelRunner(jobs=jobs, cache=ResultStore(directory)).run(descriptors)
                assert not (directory / "traces").exists()
                assert sorted(path.name for path in directory.iterdir()) == sorted(
                    f"{descriptor.digest()}.json" for descriptor in descriptors
                )
        finally:
            clear_trace_cache()


# --------------------------------------------------------------------------- #
# Thread safety: several threads may share one handle.
# --------------------------------------------------------------------------- #


class TestThreadSafety:
    def test_concurrent_threads_share_one_handle(self, tmp_path):
        import threading

        store = ResultStore(tmp_path / "store")
        errors = []

        def writer(offset):
            try:
                for i in range(offset, offset + 20):
                    store.put(_digest(i), _record(_digest(i), seed=i))
                    assert store.get(_digest(i)) is not None
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(offset,))
            for offset in (0, 100, 200, 300)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store) == 80

    def test_threads_writing_the_same_digests_share_one_handle(self, tmp_path):
        """Eight threads rewrite the same ten entries through one handle.
        Each write needs its own temp file: with a temp name shared by the
        threads of a process, one thread's ``os.replace`` moves another
        thread's file away and that thread's replace fails."""
        import threading

        store = ResultStore(tmp_path / "store")
        records = [(_digest(i), _record(_digest(i), seed=i)) for i in range(10)]
        errors = []

        def writer():
            try:
                for _ in range(20):
                    for digest, record in records:
                        store.put(digest, record)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert store.get_many([digest for digest, _ in records]) == dict(records)
        assert sorted(path.name for path in store.directory.iterdir()) == sorted(
            f"{digest}.json" for digest, _ in records
        )
