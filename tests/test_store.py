"""Tests for the durable SQLite-indexed result store.

The store is the campaign engine's long-lived memory: content-addressed
JSON artifacts (the source of truth) fronted by a rebuildable SQLite
index with an inline record copy, so a warm campaign answers from a
handful of batched queries instead of one filesystem probe per run.
These tests pin the contracts the runner and CLI rely on: concurrent
writers never lose rows, dedup works across campaigns, a corrupt index
is recovered from the artifacts, and a directory of bare artifacts is
adopted as a store in place.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import shutil
import sqlite3

import pytest

import repro.campaign.store as store_module
from repro.campaign import (
    STORE_SCHEMA_VERSION,
    CampaignSpec,
    ParallelRunner,
    ResultStore,
    StoreCounters,
    is_store_directory,
)
from repro.errors import ConfigurationError

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


def _stamp_schema_zero(db: sqlite3.Connection) -> None:
    db.execute("UPDATE meta SET value = '0' WHERE key = 'schema_version'")


def _schema_two_with_live_claim(db: sqlite3.Connection) -> None:
    """The index a schema-2 tool left behind while a campaign was in use: a
    ``claims`` table holding a fresh claim of a live process."""
    db.execute(
        "CREATE TABLE claims (campaign_id TEXT PRIMARY KEY, pid INTEGER NOT NULL, "
        "heartbeat REAL NOT NULL)"
    )
    db.execute(
        "INSERT INTO claims VALUES ('claimed', ?, ?)",
        (store_module.os.getpid(), store_module.time.time()),
    )
    db.execute("UPDATE meta SET value = '2' WHERE key = 'schema_version'")


class TestStoreBasics:
    def test_round_trip_and_membership(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            record = _record(_digest(1), seed=7)
            store.put(_digest(1), record)
            assert store.get(_digest(1)) == record
            assert _digest(1) in store
            assert _digest(2) not in store
            assert len(store) == 1
            assert store.get(_digest(2)) is None

    def test_store_directory_is_created_and_detectable(self, tmp_path):
        target = tmp_path / "nested" / "store"
        assert not is_store_directory(target)
        with ResultStore(target):
            pass
        assert is_store_directory(target)
        assert not is_store_directory(tmp_path)

    def test_warm_lookups_answer_from_the_index_alone(self, tmp_path):
        """The inline record copy means a warm ``get_many`` costs
        ``ceil(n / batch)`` queries and *zero* artifact reads — the
        ISSUE's >=10x fewer filesystem operations on the warm path."""
        with ResultStore(tmp_path / "store") as store:
            _put_range(store, 0, 40)
            store.counters.reset()
            hits = store.get_many([_digest(i) for i in range(40)])
            assert len(hits) == 40
            assert store.counters.index_queries == 1
            assert store.counters.artifact_reads == 0

    def test_get_many_batches_and_dedups_the_request(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "_BATCH", 8)
        with ResultStore(tmp_path / "store") as store:
            _put_range(store, 0, 20)
            store.counters.reset()
            asked = [_digest(i % 20) for i in range(60)]  # each digest thrice
            hits = store.get_many(asked)
            assert len(hits) == 20
            assert store.counters.index_queries == math.ceil(20 / 8)

    def test_put_many_is_idempotent_under_replay(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            _put_range(store, 0, 5)
            _put_range(store, 0, 5)
            assert len(store) == 5
            assert len(list((tmp_path / "store").glob("*.json"))) == 5

    def test_tampered_inline_record_falls_back_to_the_artifact(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            store.put(_digest(3), _record(_digest(3)))
            store._db.execute("UPDATE runs SET record = '{ not json'")
            store._db.commit()
            store.counters.reset()
            assert store.get(_digest(3)) == _record(_digest(3))
            assert store.counters.artifact_reads == 1

    def test_index_lives_inside_the_store_directory(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            assert store.index_path == tmp_path / "store" / store_module.INDEX_NAME
            assert store.index_path.is_file()

    def test_empty_requests_touch_neither_index_nor_disk(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            store.counters.reset()
            assert store.get_many([]) == {}
            store.put_many([])
            assert store.counters.as_dict() == StoreCounters().as_dict()
        assert [path.name for path in (tmp_path / "store").glob("*.json")] == []

    def test_counters_report_and_reset_every_field(self, tmp_path):
        fields = set(vars(StoreCounters()))
        with ResultStore(tmp_path / "store") as store:
            store.counters.reset()
            _put_range(store, 0, 3)
            store.get_many([_digest(0), _digest(9)])
            counters = store.counters.as_dict()
            assert set(counters) == fields
            assert counters["artifact_writes"] == 3
            assert counters["batches_flushed"] == 1
            assert counters["index_queries"] == 2
            store.counters.reset()
            assert store.counters.as_dict() == dict.fromkeys(fields, 0)

    def test_rebuild_of_a_complete_index_adds_nothing(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            _put_range(store, 0, 3)
            assert store.rebuild_index() == 0
            assert len(store) == 3

    def test_record_under_wrong_digest_is_a_miss(self, tmp_path):
        """A mis-synced row (index digest != embedded digest) must be a
        miss, not a silently wrong payload."""
        with ResultStore(tmp_path / "store") as store:
            store.put(_digest(4), _record(_digest(4)))
            swapped = json.dumps(_record(_digest(9)), sort_keys=True)
            store._db.execute("UPDATE runs SET record = ?", (swapped,))
            store._db.commit()
            (tmp_path / "store" / f"{_digest(4)}.json").write_text(swapped, encoding="utf-8")
            assert store.get(_digest(4)) is None


def _stress_writer(directory: str, offset: int, count: int) -> None:
    """Subprocess body: write ``count`` records starting at ``offset``
    through an independent store handle, in several small batches."""
    with ResultStore(directory, campaign_id=f"writer-{offset}") as store:
        for start in range(offset, offset + count, 7):
            stop = min(start + 7, offset + count)
            store.put_many([(_digest(i), _record(_digest(i), seed=i)) for i in range(start, stop)])


class TestConcurrentWriters:
    def test_overlapping_writers_lose_nothing(self, tmp_path):
        """Four processes hammer one store with overlapping digest ranges;
        WAL + busy_timeout + INSERT OR REPLACE must leave every digest
        present, readable and consistent with its artifact."""
        directory = tmp_path / "store"
        ResultStore(directory).close()  # settle schema creation up front
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
        with ResultStore(directory) as store:
            assert len(store) == 130  # 0..129, overlaps deduplicated
            hits = store.get_many([_digest(i) for i in range(130)])
            assert len(hits) == 130
            assert all(hits[_digest(i)]["seed"] == i for i in range(130))
            # Every indexed row has its artifact on disk (crash contract).
            assert len(list(directory.glob("*.json"))) == 130


class TestCrossCampaignDedup:
    def test_second_campaign_simulates_only_its_frontier(self, tmp_path):
        """Campaign B overlaps campaign A in two of its three runs; with a
        shared store, B must simulate exactly the one novel run and still
        produce records bit-equal to an uncached execution."""
        directory = tmp_path / "store"
        with ResultStore(directory, campaign_id="campaign-a") as store:
            cold = ParallelRunner(jobs=1, cache=store).run(SPEC_A.expand())
        assert cold.stats["simulated"] == 2
        with ResultStore(directory, campaign_id="campaign-b") as store:
            overlap = ParallelRunner(jobs=2, cache=store).run(SPEC_B.expand())
            attribution = store.stats()["campaigns"]
        assert overlap.stats["simulated"] == 1
        assert overlap.stats["cached"] == 2
        assert overlap.records == ParallelRunner(jobs=1).run(SPEC_B.expand()).records
        # stats() attributes each run to the campaign that first wrote it.
        assert attribution == {"campaign-a": 2, "campaign-b": 1}

    def test_fully_warm_campaign_simulates_nothing(self, tmp_path):
        directory = tmp_path / "store"
        with ResultStore(directory, campaign_id="first") as store:
            ParallelRunner(jobs=1, cache=store).run(SPEC_B.expand())
        with ResultStore(directory, campaign_id="second") as store:
            warm = ParallelRunner(jobs=2, cache=store).run(SPEC_B.expand())
            counters = store.counters.as_dict()
        assert warm.stats["simulated"] == 0
        assert warm.stats["cached"] == 3
        assert counters["artifact_reads"] == 0
        assert counters["index_queries"] == 1


class TestRecovery:
    def test_corrupt_index_is_rebuilt_from_artifacts(self, tmp_path):
        directory = tmp_path / "store"
        with ResultStore(directory) as store:
            _put_range(store, 0, 12)
        (directory / store_module.INDEX_NAME).write_bytes(b"this is not a database")
        with ResultStore(directory) as store:
            assert len(store) == 12
            hits = store.get_many([_digest(i) for i in range(12)])
            assert all(hits[_digest(i)]["seed"] == i for i in range(12))

    def test_deleted_index_is_rebuilt_from_artifacts(self, tmp_path):
        directory = tmp_path / "store"
        with ResultStore(directory) as store:
            _put_range(store, 0, 6)
        (directory / store_module.INDEX_NAME).unlink()
        with ResultStore(directory) as store:
            assert len(store) == 6

    def test_unreadable_artifacts_are_skipped_during_rebuild(self, tmp_path):
        directory = tmp_path / "store"
        with ResultStore(directory) as store:
            _put_range(store, 0, 4)
        (directory / f"{_digest(0)}.json").write_text("{ torn", encoding="utf-8")
        (directory / store_module.INDEX_NAME).write_bytes(b"garbage")
        with ResultStore(directory) as store:
            assert len(store) == 3
            assert store.get(_digest(0)) is None

    def test_newer_index_schema_is_refused(self, tmp_path):
        directory = tmp_path / "store"
        ResultStore(directory).close()
        db = sqlite3.connect(directory / store_module.INDEX_NAME)
        with db:
            db.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION + 1),),
            )
        db.close()
        with pytest.raises(ConfigurationError, match="newer"):
            ResultStore(directory)

    @pytest.mark.parametrize(
        "downgrade",
        [_stamp_schema_zero, _schema_two_with_live_claim],
        ids=["stamp-0", "schema-2-live-claim"],
    )
    def test_older_index_schema_triggers_a_rebuild(self, tmp_path, downgrade):
        directory = tmp_path / "store"
        digests = [_digest(i) for i in range(3)]
        with ResultStore(directory, campaign_id="claimed") as store:
            _put_range(store, 0, 3)
        db = sqlite3.connect(directory / store_module.INDEX_NAME)
        with db:
            downgrade(db)
        db.close()
        with ResultStore(directory) as store:
            assert len(store) == 3
            assert set(store.get_many(digests)) == set(digests)
            tables = {row[0] for row in store._db.execute("SELECT name FROM sqlite_master")}
            assert "claims" not in tables
            stats = store.stats()
            assert stats["schema"] == STORE_SCHEMA_VERSION
            assert set(stats) == {
                "directory",
                "schema",
                "entries",
                "campaigns",
                "artifact_bytes",
                "index_bytes",
                "traces",
            }
            # The rebuild re-stamps every row with the opener's campaign id
            # and a fresh created_at; nothing protects the formerly claimed
            # campaign's rows from gc once they are old.
            assert stats["campaigns"] == {"adhoc": 3}
            week_ago = store_module.time.time() - 7 * 86400.0
            store._db.execute("UPDATE runs SET created_at = ?", (week_ago,))
            store._db.commit()
            assert store.gc(keep_days=1.0).removed == 3
            assert store.get_many(digests) == {}

    def test_unusable_store_path_is_a_configuration_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="result store"):
            ResultStore(blocker / "store")


class TestAdoption:
    def test_copied_artifacts_are_adopted_in_place(self, tmp_path):
        """A directory of bare ``<digest>.json`` artifacts (here a copy of
        a store without its index) becomes a store when opened: the index
        is built from the artifacts and a warm campaign simulates nothing."""
        descriptors = SPEC_B.expand()
        with ResultStore(tmp_path / "store") as store:
            cold = ParallelRunner(jobs=1, cache=store).run(descriptors)
        copy = tmp_path / "copy"
        copy.mkdir()
        for path in (tmp_path / "store").glob("*.json"):
            shutil.copy(path, copy / path.name)
        assert not is_store_directory(copy)
        with ResultStore(copy, campaign_id="adopted") as store:
            assert len(store) == len(descriptors)
            warm = ParallelRunner(jobs=1, cache=store).run(descriptors)
        assert warm.stats["simulated"] == 0
        assert warm.records == cold.records


class TestStatsAndGc:
    def test_stats_reports_sizes_and_attribution(self, tmp_path):
        with ResultStore(tmp_path / "store", campaign_id="alpha") as store:
            _put_range(store, 0, 4)
            stats = store.stats()
        assert stats["schema"] == STORE_SCHEMA_VERSION
        assert stats["entries"] == 4
        assert stats["campaigns"] == {"alpha": 4}
        assert stats["artifact_bytes"] > 0
        assert stats["index_bytes"] > 0
        assert stats["directory"] == str(tmp_path / "store")

    def test_gc_removes_old_rows_and_their_artifacts(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            _put_range(store, 0, 3)
            week_ago = store_module.time.time() - 7 * 86400.0
            store._db.execute(
                "UPDATE runs SET created_at = ? WHERE digest = ?", (week_ago, _digest(0))
            )
            store._db.commit()
            outcome = store.gc(keep_days=1.0)
            assert outcome.removed == 1
            assert len(store) == 2
            assert store.get(_digest(0)) is None
        assert not (tmp_path / "store" / f"{_digest(0)}.json").exists()
        assert (tmp_path / "store" / f"{_digest(1)}.json").exists()

    def test_gc_keep_everything_and_bad_arguments(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            _put_range(store, 0, 2)
            assert store.gc(keep_days=365.0).removed == 0
            assert store.gc(keep_days=math.inf).removed == 0
            for bad in (-1.0, math.nan):
                with pytest.raises(ConfigurationError, match="keep_days"):
                    store.gc(keep_days=bad)
            assert len(store) == 2

    def test_gc_artifacts_remain_reindexable_after_partial_removal(self, tmp_path):
        """gc deletes rows before artifacts; a rebuild after gc must only
        resurrect artifacts that still exist."""
        directory = tmp_path / "store"
        with ResultStore(directory) as store:
            _put_range(store, 0, 3)
        # Simulate the crash window: row deleted, artifact left behind.
        db = sqlite3.connect(directory / store_module.INDEX_NAME)
        with db:
            db.execute("DELETE FROM runs WHERE digest = ?", (_digest(2),))
        db.close()
        with ResultStore(directory) as store:
            assert store.rebuild_index() == 1
            assert len(store) == 3

    def test_gc_outcome_as_dict(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            outcome = store.gc(keep_days=365.0)
        assert outcome.as_dict() == {"removed": 0, "traces_removed": 0}


# --------------------------------------------------------------------------- #
# The trace section: the replay engine's unindexed core-trace memos.
# --------------------------------------------------------------------------- #

TRACE_KEY = "ab" * 32


class TestTraceSection:
    def test_round_trip_counts_the_write_and_the_hit(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            store.put_trace(TRACE_KEY, {"schema": 1, "ops": [1, 2]})
            assert store.get_trace(TRACE_KEY) == {"schema": 1, "ops": [1, 2]}
            counters = store.counters
            assert (counters.trace_writes, counters.trace_hits, counters.trace_misses) == (1, 1, 0)
            # Atomic write: no temporary file is left next to the trace.
            assert [path.name for path in store.traces_dir.iterdir()] == [f"{TRACE_KEY}.json"]

    def test_absent_trace_is_a_counted_miss(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            assert store.get_trace(TRACE_KEY) is None
            assert store.counters.trace_misses == 1
            assert store.counters.trace_hits == 0

    @pytest.mark.parametrize("content", ["{ torn", "[1, 2]"], ids=["torn", "not-an-object"])
    def test_unreadable_trace_is_a_miss(self, tmp_path, content):
        with ResultStore(tmp_path / "store") as store:
            store.traces_dir.mkdir()
            (store.traces_dir / f"{TRACE_KEY}.json").write_text(content, encoding="utf-8")
            assert store.get_trace(TRACE_KEY) is None
            assert store.counters.trace_misses == 1

    @pytest.mark.parametrize(
        "key",
        ["", "ABCDEF", "../escape", "ab/cd"],
        ids=["empty", "upper-case", "parent-dir", "sub-dir"],
    )
    def test_malformed_trace_key_is_refused(self, tmp_path, key):
        """Keys are hex digests; anything else could name a path outside
        ``traces/`` and is refused before touching the filesystem."""
        with ResultStore(tmp_path / "store") as store:
            with pytest.raises(ConfigurationError, match="malformed trace key"):
                store.put_trace(key, {})
            with pytest.raises(ConfigurationError, match="malformed trace key"):
                store.get_trace(key)
            assert not store.traces_dir.exists()
        assert not (tmp_path / "escape.json").exists()

    def test_traces_are_never_indexed_as_runs(self, tmp_path):
        directory = tmp_path / "store"
        with ResultStore(directory) as store:
            store.put_trace(TRACE_KEY, {"digest": TRACE_KEY})
            _put_range(store, 0, 2)
        # A lost index is rebuilt from the run artifacts alone.
        (directory / store_module.INDEX_NAME).unlink()
        with ResultStore(directory) as store:
            assert len(store) == 2
            assert TRACE_KEY not in store
            stats = store.stats()
        assert stats["entries"] == 2
        trace_file = directory / "traces" / f"{TRACE_KEY}.json"
        assert stats["traces"] == {"entries": 1, "bytes": trace_file.stat().st_size}


# --------------------------------------------------------------------------- #
# Thread safety: several threads may share one handle.
# --------------------------------------------------------------------------- #


class TestThreadSafety:
    def test_concurrent_threads_share_one_handle(self, tmp_path):
        import threading

        with ResultStore(tmp_path / "store") as store:
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
