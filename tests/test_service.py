"""Tests for campaign-as-a-service (protocol, daemon, workers, clients).

The end-to-end tests run a real :class:`CampaignDaemon` in a thread on a
private Unix socket (TCP where the multi-host transport itself is under
test) and talk to it through the public client/worker classes — the same
code paths ``repro-bounds serve/submit/worker`` drive.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStreamWriter,
    ParallelRunner,
    ResultStore,
    campaign_digest,
    compact_shard,
    load_manifest,
)
from repro.campaign.runner import ShardTask
from repro.errors import MethodologyError, ServiceError
from repro.service import (
    JOB_STATES,
    PROTOCOL_VERSION,
    CampaignDaemon,
    RemoteWorker,
    ServiceAddress,
    ServiceClient,
    ShardBoard,
    parse_address,
    shard_from_payload,
    shard_to_payload,
)
from repro.service.protocol import make_frame, recv_frame, request, send_frame
from repro.sim.trace import clear_trace_cache

#: Small enough for unit tests, covers both run kinds (workload + rsk).
TINY_SPEC = CampaignSpec(
    presets=("small",),
    num_workloads=2,
    iterations=4,
    rsk_iterations=20,
)

#: The replay engine on an arbiter sweep: both arbiters share each run's
#: core side, so the store's ``traces/`` section fills on the first pass.
REPLAY_SPEC = CampaignSpec(
    presets=("small",),
    arbiters=("round_robin", "fifo"),
    num_workloads=2,
    iterations=4,
    rsk_iterations=20,
    engine="replay",
)

#: Strict superset of TINY_SPEC's grid: one extra seed.  Its miss-frontier
#: against a store that already ran TINY_SPEC is exactly the new seed's runs.
OVERLAP_SPEC = CampaignSpec(
    presets=("small",),
    seeds=(2015, 2016),
    num_workloads=2,
    iterations=4,
    rsk_iterations=20,
)


@contextlib.contextmanager
def serving(base: Path, jobs: int = 1, address=None, **kwargs):
    """A daemon thread on a private socket; drains on exit.

    Unix socket paths live in a short mkdtemp directory — pytest tmp
    paths can exceed the AF_UNIX path length limit.
    """
    sock_dir = tempfile.mkdtemp(prefix="rs-")
    if address is None:
        address = ServiceAddress(kind="unix", path=f"{sock_dir}/s.sock")
    daemon = CampaignDaemon(
        store_dir=base / "store",
        data_dir=base / "data",
        jobs=jobs,
        log=io.StringIO(),
        **kwargs,
    )
    thread = threading.Thread(target=daemon.serve, args=(address,), daemon=True)
    thread.start()
    client = ServiceClient(address)
    client.wait_for_daemon()
    try:
        yield daemon, client, address
    finally:
        if thread.is_alive():
            with contextlib.suppress(ServiceError):
                client.shutdown()
            thread.join(timeout=60)
        shutil.rmtree(sock_dir, ignore_errors=True)
        assert not thread.is_alive(), "daemon failed to drain"


def _submit_and_wait(client: ServiceClient, spec: CampaignSpec) -> dict:
    submitted = client.submit(spec)
    return client.wait(str(submitted["job_id"]), timeout=120, interval=0.02)


# --------------------------------------------------------------------------- #
# Addresses
# --------------------------------------------------------------------------- #


class TestParseAddress:
    def test_unix_prefix(self):
        address = parse_address("unix:/tmp/x.sock")
        assert (address.kind, address.path) == ("unix", "/tmp/x.sock")
        assert str(address) == "unix:/tmp/x.sock"

    def test_bare_path_is_unix(self):
        assert parse_address("out/daemon.sock") == ServiceAddress(
            kind="unix", path="out/daemon.sock"
        )

    def test_tcp(self):
        address = parse_address("tcp:127.0.0.1:9911")
        assert (address.kind, address.host, address.port) == ("tcp", "127.0.0.1", 9911)
        assert str(address) == "tcp:127.0.0.1:9911"

    @pytest.mark.parametrize(
        "text",
        ["", "unix:", "tcp:9911", "tcp::9911", "tcp:host:notaport", "tcp:host:70000"],
    )
    def test_malformed_addresses_rejected(self, text):
        with pytest.raises(ServiceError):
            parse_address(text)

    def test_stale_unix_socket_file_is_replaced(self, tmp_path):
        # A dead daemon leaves its bound socket file behind; binding again
        # must succeed (nothing is listening on the stale file).
        sock_dir = tempfile.mkdtemp(prefix="rs-")
        try:
            address = ServiceAddress(kind="unix", path=f"{sock_dir}/stale.sock")
            address.create_listener().close()  # leaves the file behind
            listener = address.create_listener()
            listener.close()
        finally:
            shutil.rmtree(sock_dir, ignore_errors=True)

    def test_live_daemon_address_is_not_stolen(self, tmp_path):
        with serving(tmp_path) as (_, __, address):
            with pytest.raises(ServiceError, match="live daemon"):
                address.create_listener()


# --------------------------------------------------------------------------- #
# Frames and shard payloads
# --------------------------------------------------------------------------- #


class TestProtocolFrames:
    def test_make_frame_stamps_version(self):
        frame = make_frame("ping", extra=1)
        assert frame["v"] == PROTOCOL_VERSION
        assert frame["type"] == "ping"
        assert frame["extra"] == 1

    @contextlib.contextmanager
    def _pair(self):
        left, right = socket.socketpair()
        reader = right.makefile("rb")
        try:
            yield left, reader
        finally:
            reader.close()
            with contextlib.suppress(OSError):
                left.close()
            right.close()

    def test_frame_round_trip(self):
        with self._pair() as (left, reader):
            send_frame(left, make_frame("status", job_id="job-0001"))
            frame = recv_frame(reader)
            assert frame == {"v": PROTOCOL_VERSION, "type": "status", "job_id": "job-0001"}

    def test_eof_is_none(self):
        with self._pair() as (left, reader):
            left.close()
            assert recv_frame(reader) is None

    def test_malformed_json_rejected(self):
        with self._pair() as (left, reader):
            left.sendall(b"{not json}\n")
            with pytest.raises(ServiceError, match="malformed"):
                recv_frame(reader)

    def test_non_object_frame_rejected(self):
        with self._pair() as (left, reader):
            left.sendall(b"[1, 2]\n")
            with pytest.raises(ServiceError, match="JSON object"):
                recv_frame(reader)

    def test_version_mismatch_rejected(self):
        with self._pair() as (left, reader):
            left.sendall(b'{"v": 99, "type": "ping"}\n')
            with pytest.raises(ServiceError, match="version mismatch"):
                recv_frame(reader)

    def test_shard_payload_round_trip(self):
        descriptors = TINY_SPEC.expand()
        pending = [(d.digest(), d) for d in descriptors]
        shard = compact_shard(3, pending)
        # Through real JSON, exactly as the wire carries it.
        rebuilt = shard_from_payload(json.loads(json.dumps(shard_to_payload(shard))))
        assert rebuilt == shard

    def test_shard_payload_dedupes_configs(self):
        descriptors = TINY_SPEC.expand()
        payload = shard_to_payload(compact_shard(0, [(d.digest(), d) for d in descriptors]))
        assert len(payload["configs"]) == 1  # one preset -> one config object
        assert len(payload["runs"]) == len(descriptors)

    def test_malformed_shard_payload_rejected(self):
        with pytest.raises(ServiceError, match="malformed shard payload"):
            shard_from_payload({"index": 0, "configs": [], "runs": [{"run_id": "x"}]})


class TestSpecRoundTrip:
    def test_to_dict_from_dict(self):
        for spec in (TINY_SPEC, OVERLAP_SPEC):
            assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_survives_json(self):
        rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(OVERLAP_SPEC.to_dict())))
        assert rebuilt.expand() == OVERLAP_SPEC.expand()

    def test_unknown_fields_rejected(self):
        payload = TINY_SPEC.to_dict()
        payload["shard_count"] = 4
        with pytest.raises(MethodologyError, match="unknown campaign spec"):
            CampaignSpec.from_dict(payload)


# --------------------------------------------------------------------------- #
# ShardBoard (dispatch, leases, requeue) — no sockets involved.
# --------------------------------------------------------------------------- #


def _shards(count: int):
    return [ShardTask(index=i, configs=(), runs=()) for i in range(count)]


class TestShardBoard:
    def test_local_take_complete_drain(self):
        board = ShardBoard("job-x", _shards(2), lease_seconds=60.0)
        first = board.take_local()
        second = board.take_local()
        assert {first.index, second.index} == {0, 1}
        assert board.complete(first.index, [("d0", {"r": 0})])
        assert board.complete(second.index, [("d1", {"r": 1})])
        assert board.take_local() is None  # finished
        assert board.wait_result(0, timeout=0.1) is not None

    def test_complete_is_first_wins(self):
        board = ShardBoard("job-x", _shards(1), lease_seconds=60.0)
        board.take_remote("worker:a")
        assert board.complete(0, [("d", {"r": 1})])
        assert not board.complete(0, [("d", {"r": 2})])  # late duplicate dropped
        assert board.wait_result(0, timeout=0.1) == [("d", {"r": 1})]

    def test_unknown_shard_index_rejected(self):
        board = ShardBoard("job-x", _shards(1), lease_seconds=60.0)
        assert not board.complete(99, [])

    def test_release_owner_requeues(self):
        board = ShardBoard("job-x", _shards(1), lease_seconds=60.0)
        assert board.take_remote("worker:a").index == 0
        assert board.take_remote("worker:b") is None  # leased out
        assert board.release_owner("worker:a") == 1
        assert board.take_remote("worker:b").index == 0  # requeued

    def test_expired_lease_requeues(self):
        board = ShardBoard("job-x", _shards(1), lease_seconds=0.05)
        board.take_remote("worker:a")
        deadline = time.monotonic() + 5.0
        while not board.expire_stale():
            assert time.monotonic() < deadline, "lease never expired"
        assert board.take_remote("worker:b").index == 0

    def test_heartbeat_extends_the_lease(self):
        board = ShardBoard("job-x", _shards(1), lease_seconds=1.0)
        board.take_remote("worker:a")
        # Without the heartbeats below the lease would expire at +1.0s;
        # two refreshes carry it to roughly +1.8s.
        for _ in range(2):
            time.sleep(0.4)
            board.heartbeat(0, "worker:a")
            assert board.expire_stale() == []

    def test_stale_heartbeat_ignored(self):
        board = ShardBoard("job-x", _shards(1), lease_seconds=60.0)
        board.take_remote("worker:a")
        board.heartbeat(0, "worker:b")  # not the lease holder: no-op
        assert board.release_owner("worker:a") == 1

    def test_fail_unblocks_takers(self):
        board = ShardBoard("job-x", _shards(1), lease_seconds=60.0)
        board.take_remote("worker:a")
        board.fail("pool exploded")
        assert board.take_local() is None
        assert board.error == "pool exploded"

    def test_requeued_then_completed_shard_leaves_pending(self):
        board = ShardBoard("job-x", _shards(1), lease_seconds=60.0)
        board.take_remote("worker:a")
        board.release_owner("worker:a")  # back on the queue
        assert board.complete(0, [("d", {"r": 1})])  # slow worker finished anyway
        assert board.take_remote("worker:b") is None  # not handed out again


class TestBoardExecutor:
    """The daemon's shard executor, driven the way ParallelRunner drives it."""

    def _daemon(self, tmp_path):
        return CampaignDaemon(
            store_dir=tmp_path / "store", data_dir=tmp_path / "data", jobs=0, log=io.StringIO()
        )

    def _remote_completer(self, daemon, order):
        """Play a remote worker: complete the posted board's shards in ``order``."""

        def run():
            deadline = time.monotonic() + 30
            while daemon._current_board() is None:
                assert time.monotonic() < deadline, "no board posted"
                time.sleep(0.01)
            board = daemon._current_board()
            for index in order:
                board.complete(index, [(f"d{index}", {"r": index})])

        thread = threading.Thread(target=run)
        thread.start()
        return thread

    def test_yields_in_shard_order_whatever_the_completion_order(self, tmp_path):
        daemon = self._daemon(tmp_path)
        completer = self._remote_completer(daemon, [2, 0, 1])
        results = list(daemon._run_on_board("job-x", _shards(3)))
        completer.join(timeout=30)
        assert not completer.is_alive()
        assert results == [[(f"d{i}", {"r": i})] for i in range(3)]
        assert daemon._current_board() is None
        daemon._store.close()

    def test_closing_the_executor_fails_its_board(self, tmp_path):
        """The runner closes the executor when it abandons a campaign;
        the board must then stop handing shards to every puller."""
        daemon = self._daemon(tmp_path)
        completer = self._remote_completer(daemon, [0])
        results = daemon._run_on_board("job-x", _shards(2))
        assert next(results) == [("d0", {"r": 0})]
        completer.join(timeout=30)
        assert not completer.is_alive()
        board = daemon._current_board()
        results.close()
        assert board.error is not None
        assert board.take_local() is None
        assert board.take_remote("worker:late") is None
        assert daemon._current_board() is None
        daemon._store.close()


# --------------------------------------------------------------------------- #
# End to end: daemon + clients (+ workers) over real sockets.
# --------------------------------------------------------------------------- #


class TestServiceEndToEnd:
    def test_ping_reports_pid_and_draining(self, tmp_path):
        with serving(tmp_path) as (_, client, __):
            pong = client.ping()
            assert pong["type"] == "pong"
            assert pong["draining"] is False

    def test_artifacts_byte_identical_to_one_shot(self, tmp_path):
        descriptors = TINY_SPEC.expand()
        digests = [d.digest() for d in descriptors]
        oneshot = tmp_path / "oneshot"
        with ResultStore(tmp_path / "oneshot-store", campaign_id=campaign_digest(digests)) as store:
            stream = CampaignStreamWriter(oneshot)
            outcome = ParallelRunner(jobs=1, cache=store).run(descriptors, stream=stream)
            stream.finalize(outcome.summary())

        with serving(tmp_path) as (_, client, __):
            job = _submit_and_wait(client, TINY_SPEC)
            served = Path(str(job["out_dir"]))

        assert (served / "results.jsonl").read_bytes() == (oneshot / "results.jsonl").read_bytes()
        assert (served / "campaign.json").read_bytes() == (oneshot / "campaign.json").read_bytes()
        served_summary = json.loads((served / "summary.json").read_text())
        oneshot_summary = json.loads((oneshot / "summary.json").read_text())
        served_summary.pop("timing"), oneshot_summary.pop("timing")
        assert served_summary == oneshot_summary
        # The finalized manifest carries no owner stamp (that would break
        # byte-identity with one-shot runs; the owner only marks in-flight).
        assert "owner" not in load_manifest(served)

    def test_replay_traces_match_a_one_shot_run(self, tmp_path):
        """The daemon's pool workers back their trace caches with the
        shared store, like the runner's: a replay-engine job persists the
        same ``traces/`` entries a one-shot ``ParallelRunner`` does."""

        def traces(store_dir):
            return sorted(path.name for path in (store_dir / "traces").glob("*.json"))

        clear_trace_cache()
        try:
            with ResultStore(tmp_path / "oneshot-store") as store:
                ParallelRunner(jobs=2, cache=store).run(REPLAY_SPEC.expand())
            clear_trace_cache()
            with serving(tmp_path, jobs=2) as (_, client, __):
                assert _submit_and_wait(client, REPLAY_SPEC)["state"] == "completed"
        finally:
            clear_trace_cache()
        assert traces(tmp_path / "oneshot-store")
        assert traces(tmp_path / "store") == traces(tmp_path / "oneshot-store")

    def test_overlapping_specs_simulate_exactly_the_union(self, tmp_path):
        with serving(tmp_path) as (_, client, __):
            first = _submit_and_wait(client, TINY_SPEC)
            second = _submit_and_wait(client, OVERLAP_SPEC)
            third = _submit_and_wait(client, OVERLAP_SPEC)

        tiny_unique = first["stats"]["unique_runs"]
        overlap_unique = second["stats"]["unique_runs"]
        assert first["stats"]["simulated"] == tiny_unique
        # Second spec strictly contains the first: it only simulates the
        # new seed's slice of its frontier, the rest comes from the store.
        assert second["stats"]["simulated"] == overlap_unique - tiny_unique
        assert second["stats"]["cached"] == tiny_unique
        # Identical resubmission is a pure store read.
        assert third["stats"]["simulated"] == 0
        assert third["stats"]["cached"] == overlap_unique
        # The store's cumulative counters agree: the warm job wrote no new
        # artifacts (the snapshot did not advance past the second job's).
        assert (
            third["stats"]["store"]["artifact_writes"]
            == second["stats"]["store"]["artifact_writes"]
        )

    def test_concurrent_identical_submissions_simulate_once(self, tmp_path):
        with serving(tmp_path) as (_, client, address):
            jobs = [None] * 3
            errors = []

            def _one(slot):
                try:
                    jobs[slot] = _submit_and_wait(ServiceClient(address), TINY_SPEC)
                except BaseException as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=_one, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            simulated = sorted(job["stats"]["simulated"] for job in jobs)
            unique = jobs[0]["stats"]["unique_runs"]
            # FIFO scheduling: exactly one job paid the frontier, the other
            # two resolved entirely from the store it populated.
            assert simulated == [0, 0, unique]

    def test_results_frame_matches_artifacts(self, tmp_path):
        with serving(tmp_path) as (_, client, __):
            job = _submit_and_wait(client, TINY_SPEC)
            results = client.results(str(job["job_id"]))
            records = [
                json.loads(line)
                for line in Path(str(job["out_dir"]))
                .joinpath("results.jsonl")
                .read_text()
                .splitlines()
            ]
            assert results["records"] == records
            assert results["job"]["state"] == "completed"

    def test_status_table_and_unknown_job(self, tmp_path):
        with serving(tmp_path) as (_, client, __):
            job = _submit_and_wait(client, TINY_SPEC)
            table = client.status()
            assert [entry["job_id"] for entry in table["jobs"]] == [job["job_id"]]
            assert table["workers"] == 0
            assert all(entry["state"] in JOB_STATES for entry in table["jobs"])
            with pytest.raises(ServiceError, match="unknown job"):
                client.status("job-9999-deadbeef")
            with pytest.raises(ServiceError, match="not ready|unknown"):
                client.results("job-9999-deadbeef")

    def test_submissions_rejected_while_draining(self, tmp_path):
        with serving(tmp_path) as (daemon, client, __):
            submitted = client.submit(TINY_SPEC)
            client.shutdown()
            with pytest.raises(ServiceError, match="draining"):
                client.submit(TINY_SPEC)
            # The already-queued job still completes before the drain.  The
            # daemon may finish draining (and remove its socket) between
            # status polls, so assert on the job table, not over the wire.
            job = daemon.get_job(str(submitted["job_id"]))
            assert job.done.wait(timeout=120)
            assert job.state == "completed"

    def test_malformed_submit_is_an_error_frame(self, tmp_path):
        with serving(tmp_path) as (_, __, address):
            conn = address.connect(timeout=5)
            try:
                with pytest.raises(ServiceError, match="unknown campaign spec"):
                    request(conn, make_frame("submit", spec={"bogus_field": 1}))
            finally:
                conn.close()

    def test_unknown_frame_type_is_an_error_frame(self, tmp_path):
        with serving(tmp_path) as (_, __, address):
            conn = address.connect(timeout=5)
            try:
                with pytest.raises(ServiceError, match="unknown frame type"):
                    request(conn, make_frame("frobnicate"))
            finally:
                conn.close()

    def test_failed_job_reports_error(self, tmp_path):
        bad = CampaignSpec(presets=("no-such-preset",), num_workloads=1)
        with serving(tmp_path) as (_, client, __):
            # Expansion happens at submit time: the submitting client gets
            # the error, nothing reaches the scheduler.
            with pytest.raises(ServiceError):
                client.submit(bad)


class TestRemoteWorkers:
    def test_remote_only_execution(self, tmp_path):
        """jobs=0: every shard flows to the remote worker; the daemon only
        absorbs, and the artifacts still match a local one-shot run."""
        with serving(tmp_path, jobs=0) as (_, client, address):
            worker = RemoteWorker(address, worker_id="w1", poll_interval=0.02)
            done = []
            runner = threading.Thread(target=lambda: done.append(worker.run()))
            runner.start()
            job = _submit_and_wait(client, TINY_SPEC)
            assert job["stats"]["simulated"] == job["stats"]["unique_runs"]
            client.shutdown()
            runner.join(timeout=60)
            assert not runner.is_alive()
            assert done and done[0] >= 1  # the worker executed the shards

    def test_tcp_transport(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        address = ServiceAddress(kind="tcp", host="127.0.0.1", port=port)
        with serving(tmp_path, jobs=0, address=address) as (_, client, __):
            worker = RemoteWorker(address, worker_id="tcp-w", poll_interval=0.02)
            runner = threading.Thread(target=worker.run)
            runner.start()
            job = _submit_and_wait(client, TINY_SPEC)
            assert job["state"] == "completed"
            client.shutdown()
            runner.join(timeout=60)
            assert not runner.is_alive()

    def _take_one_shard(self, address):
        """Hand-rolled worker: hello, poll until a task is leased, return
        the open connection plus the task frame without completing it."""
        conn = address.connect(timeout=5)
        reader = conn.makefile("rb")
        send_frame(conn, make_frame("worker-hello", worker_id="doomed"))
        assert recv_frame(reader)["type"] == "ok"
        deadline = time.monotonic() + 60
        while True:
            send_frame(conn, make_frame("task-request"))
            response = recv_frame(reader)
            if response["type"] == "task":
                return conn, reader, response
            assert response["type"] == "idle"
            assert time.monotonic() < deadline, "no shard offered"
            time.sleep(0.02)

    def test_dead_worker_shard_is_requeued_and_job_completes(self, tmp_path):
        """A worker that takes a shard and drops dead (connection lost,
        nothing completed) must not lose the shard: it requeues and a
        healthy worker finishes the job."""
        with serving(tmp_path, jobs=0) as (_, client, address):
            submitted = client.submit(TINY_SPEC)
            conn, reader, _task = self._take_one_shard(address)
            reader.close()
            conn.close()  # dies holding the lease -> release_owner requeues

            rescuer = RemoteWorker(address, worker_id="rescuer", poll_interval=0.02)
            runner = threading.Thread(target=rescuer.run)
            runner.start()
            job = client.wait(str(submitted["job_id"]), timeout=120, interval=0.02)
            assert job["state"] == "completed"
            assert job["stats"]["simulated"] == job["stats"]["unique_runs"]
            client.shutdown()
            runner.join(timeout=60)
            assert not runner.is_alive()

    def test_silent_worker_lease_expires_and_late_result_is_dropped(self, tmp_path):
        """A worker that stalls without heartbeating loses its lease after
        ``shard_timeout``; its eventual result is acknowledged but dropped
        (accepted: false) because the shard was completed by someone else."""
        with serving(tmp_path, jobs=0, shard_timeout=0.2) as (_, client, address):
            submitted = client.submit(TINY_SPEC)
            conn, reader, task = self._take_one_shard(address)
            try:
                rescuer = RemoteWorker(address, worker_id="rescuer", poll_interval=0.02)
                runner = threading.Thread(target=rescuer.run)
                runner.start()
                job = client.wait(str(submitted["job_id"]), timeout=120, interval=0.02)
                assert job["state"] == "completed"

                # The stalled worker finally reports its shard.
                send_frame(
                    conn,
                    make_frame(
                        "task-result",
                        job_id=task["job_id"],
                        shard_index=task["shard"]["index"],
                        results=[],
                    ),
                )
                response = recv_frame(reader)
                assert response["type"] == "ok"
                assert response["accepted"] is False
            finally:
                reader.close()
                conn.close()
            client.shutdown()
            runner.join(timeout=60)
            assert not runner.is_alive()

    def test_worker_survives_daemon_exit(self, tmp_path):
        """A worker polling a daemon that drains away exits cleanly (rc 0
        semantics: ConnectionLost is a normal end of service)."""
        with serving(tmp_path, jobs=0) as (_, client, address):
            worker = RemoteWorker(address, worker_id="idler", poll_interval=0.02)
            runner = threading.Thread(target=worker.run)
            runner.start()
            client.shutdown()
            runner.join(timeout=60)
            assert not runner.is_alive()


# --------------------------------------------------------------------------- #
# Crash artifacts: the resumable in-flight manifest.
# --------------------------------------------------------------------------- #


class TestCrashArtifacts:
    def test_owned_in_flight_manifest_audits_as_resumable_warn(self, tmp_path):
        from repro.audit import audit_campaign_dir

        descriptors = TINY_SPEC.expand()
        records = ParallelRunner(jobs=1).run(descriptors).records
        stream = CampaignStreamWriter(
            tmp_path / "crashed", checkpoint_interval=0.0, owner="serve:12345"
        )
        stream.begin(campaign_digest([d.digest() for d in descriptors]), len(descriptors))
        stream.append(records[:2])
        stream.checkpoint()
        stream.abandon()  # the daemon died here: completed stays false

        manifest = load_manifest(stream.directory)
        assert manifest["completed"] is False
        assert manifest["owner"] == "serve:12345"

        report = audit_campaign_dir(stream.directory)
        assert report.verdict == "warn"  # resumable, not corrupt
        by_check = {f.check: f for f in report.dimension("artifact_schema").findings}
        finding = by_check["manifest_completed"]
        assert finding.verdict == "warn"
        assert "serve:12345" in finding.detail
        assert "resumable" in finding.detail


# --------------------------------------------------------------------------- #
# CLI surface (submit/status/results/worker against an in-thread daemon).
# --------------------------------------------------------------------------- #


class TestServiceCli:
    def test_submit_wait_status_results_shutdown(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY_SPEC.to_dict()))
        with serving(tmp_path) as (_, client, address):
            assert main(["submit", str(spec_path), "--socket", str(address), "--wait"]) == 0
            out = capsys.readouterr().out
            assert "completed" in out and "simulated" in out

            assert main(["status", "--socket", str(address)]) == 0
            table = capsys.readouterr().out
            assert "job-0001" in table

            job_id = client.status()["jobs"][0]["job_id"]
            assert main(["results", job_id, "--socket", str(address), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["job"]["state"] == "completed"

            assert main(["shutdown", "--socket", str(address)]) == 0
            assert "drain" in capsys.readouterr().out.lower()

    def test_submit_to_dead_socket_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY_SPEC.to_dict()))
        assert main(["submit", str(spec_path), "--socket", str(tmp_path / "gone.sock")]) == 2
        assert "cannot connect" in capsys.readouterr().err.lower()

    def test_worker_cli_drains_with_daemon(self, tmp_path, capsys):
        from repro.cli import main

        with serving(tmp_path, jobs=0) as (_, client, address):
            submitted = client.submit(TINY_SPEC)

            def _finisher():
                client.wait(str(submitted["job_id"]), timeout=120, interval=0.02)
                client.shutdown()

            finisher = threading.Thread(target=_finisher)
            finisher.start()
            assert main(["worker", "--connect", str(address), "--quiet"]) == 0
            finisher.join(timeout=60)
        assert "Completed" in capsys.readouterr().out

    def test_bad_spec_file_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with serving(tmp_path) as (_, __, address):
            assert main(["submit", str(bad), "--socket", str(address)]) == 2
        assert "spec" in capsys.readouterr().err.lower()
