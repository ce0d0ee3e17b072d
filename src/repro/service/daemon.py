"""The ``repro-bounds serve`` daemon: many clients, one store, one pool.

Architecture (the full protocol is in DESIGN.md §11):

* An **accept loop** takes connections on the service address and hands
  each to a handler thread.  Client connections are one-shot
  request/response; worker connections are long-lived pull loops.
* A single **scheduler thread** executes submitted jobs strictly FIFO.
  That ordering is the dedup guarantee: when job B starts, every record
  job A produced is already in the shared
  :class:`~repro.campaign.store.ResultStore`, so B's frontier query sees
  A's rows and two overlapping campaigns together simulate exactly the
  union of their miss-frontiers — never a row twice.
* Per job, the scheduler runs
  :class:`~repro.campaign.runner.ParallelRunner` with a :class:`ShardBoard`
  executor: the runner plans the miss-frontier and shards, the board
  lets local pool threads and connected remote workers race to pull
  them, and the runner absorbs completed shards in shard-index order —
  the same pipeline as a one-shot ``repro-bounds campaign`` run, which is
  what keeps the streamed artifacts byte-identical to it.
* Remote shards carry a **lease**: a deadline extended by worker
  heartbeats.  A worker that disconnects or goes silent past its lease
  gets its shards silently requeued — a dead worker degrades throughput,
  it never fails the campaign.  Late results for an already-absorbed
  shard are dropped by index, so a worker that was merely slow cannot
  double-emit.
* **Graceful drain**: a ``shutdown`` request (or SIGTERM via the CLI)
  stops new submissions, lets every queued job finish, tells workers to
  drain, and only then closes the listener.  A job interrupted by a
  daemon crash leaves its ``campaign.json`` stamped ``completed: false``
  with an ``owner`` field — the audit reports that directory as
  resumable (WARN), not corrupt (FAIL).
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from queue import Queue
from typing import Dict, Generator, List, Optional, Sequence, TextIO, Tuple

from ..campaign.artifacts import CampaignStreamWriter
from ..campaign.runner import (
    ParallelRunner,
    ShardResults,
    ShardTask,
    execute_shard,
    worker_pool,
)
from ..campaign.spec import CampaignSpec, campaign_digest
from ..campaign.store import ResultStore
from ..errors import ReproError, ServiceError
from .jobs import Job
from .protocol import (
    ServiceAddress,
    error_frame,
    make_frame,
    recv_frame,
    send_frame,
    shard_to_payload,
)

#: Default seconds a remote shard lease lives without a heartbeat.
DEFAULT_SHARD_TIMEOUT = 120.0

#: How long an idle worker should wait before polling again.
IDLE_RETRY_SECONDS = 0.2

class ShardBoard:
    """Shard dispatch for one running job: leases, requeue, ordered absorb.

    The board hands each pending shard to exactly one puller at a time.
    Local pullers (daemon pool threads) hold a shard until their process
    finishes it — a lost local shard means the pool broke, which fails
    the job loudly.  Remote pullers hold a *lease* with a heartbeat
    deadline; an expired lease or a dropped connection requeues the
    shard.  Results are recorded at most once per shard index
    (first-complete wins), which is what makes requeue + a slow-but-alive
    worker safe: the duplicate result is discarded, never double-absorbed.
    """

    def __init__(self, job_id: str, shards: Sequence[ShardTask], lease_seconds: float) -> None:
        self.job_id = job_id
        self.lease_seconds = lease_seconds
        self._shards = {shard.index: shard for shard in shards}
        self._pending = deque(sorted(self._shards))
        self._leases: Dict[int, Tuple[str, Optional[float]]] = {}
        self._results: Dict[int, ShardResults] = {}
        self._error: Optional[str] = None
        self._cond = threading.Condition()

    @property
    def total(self) -> int:
        return len(self._shards)

    @property
    def error(self) -> Optional[str]:
        with self._cond:
            return self._error

    def fail(self, message: str) -> None:
        """Abort the board: wakes every waiter, pullers stop taking."""
        with self._cond:
            if self._error is None:
                self._error = message
            self._cond.notify_all()

    def take_local(self) -> Optional[ShardTask]:
        """Blocking take for a local pool thread.

        Returns ``None`` when the board is finished or failed.  Blocks
        while other pullers hold every remaining shard — if a remote
        lease expires, the requeued shard wakes a local taker.
        """
        with self._cond:
            while True:
                if self._error is not None:
                    return None
                if self._pending:
                    index = self._pending.popleft()
                    self._leases[index] = ("local", None)
                    return self._shards[index]
                if len(self._results) == len(self._shards):
                    return None
                self._cond.wait(IDLE_RETRY_SECONDS)

    def take_remote(self, owner: str) -> Optional[ShardTask]:
        """Non-blocking take for a worker connection (``None`` = idle)."""
        with self._cond:
            if self._error is not None or not self._pending:
                return None
            index = self._pending.popleft()
            self._leases[index] = (owner, time.monotonic() + self.lease_seconds)
            return self._shards[index]

    def heartbeat(self, index: int, owner: str) -> None:
        """Extend ``owner``'s lease on shard ``index`` (stale = ignored)."""
        with self._cond:
            lease = self._leases.get(index)
            if lease is not None and lease[0] == owner:
                self._leases[index] = (owner, time.monotonic() + self.lease_seconds)

    def complete(self, index: int, results: ShardResults) -> bool:
        """Record a finished shard; ``False`` for late duplicates."""
        with self._cond:
            if index not in self._shards or index in self._results:
                return False
            self._results[index] = list(results)
            self._leases.pop(index, None)
            try:
                self._pending.remove(index)
            except ValueError:
                pass
            self._cond.notify_all()
            return True

    def release_owner(self, owner: str) -> int:
        """Requeue every shard ``owner`` holds (worker connection died)."""
        with self._cond:
            victims = [index for index, (holder, _) in self._leases.items() if holder == owner]
            for index in victims:
                del self._leases[index]
                self._pending.appendleft(index)
            if victims:
                self._cond.notify_all()
            return len(victims)

    def expire_stale(self) -> List[int]:
        """Requeue shards whose remote lease deadline passed."""
        now = time.monotonic()
        with self._cond:
            victims = [
                index
                for index, (_, deadline) in self._leases.items()
                if deadline is not None and deadline < now
            ]
            for index in victims:
                del self._leases[index]
                self._pending.appendleft(index)
            if victims:
                self._cond.notify_all()
            return victims

    def wait_result(self, index: int, timeout: float) -> Optional[ShardResults]:
        """Wait up to ``timeout`` for shard ``index``'s results."""
        with self._cond:
            if index not in self._results and self._error is None:
                self._cond.wait(timeout)
            return self._results.get(index)


class CampaignDaemon:
    """Long-lived campaign service multiplexing clients onto one store.

    Args:
        store_dir: the shared :class:`ResultStore` directory — the dedup
            substrate every job reads and writes.
        data_dir: daemon working directory; job artifacts stream to
            ``<data_dir>/jobs/<job_id>/``.
        jobs: local worker processes (one shared pool across all jobs);
            ``0`` runs no local execution — shards only flow to remote
            workers (multi-host mode, and what the failure-injection
            tests use to force remote execution).
        shard_timeout: remote lease seconds without a heartbeat before a
            shard is requeued.
        log: where operational lines go (default ``stderr``).
    """

    def __init__(
        self,
        store_dir: "os.PathLike[str] | str",
        data_dir: "os.PathLike[str] | str",
        jobs: int = 1,
        shard_timeout: float = DEFAULT_SHARD_TIMEOUT,
        log: Optional[TextIO] = None,
    ) -> None:
        if jobs < 0:
            raise ServiceError(f"jobs must be >= 0, got {jobs}")
        if shard_timeout <= 0:
            raise ServiceError(f"shard_timeout must be positive, got {shard_timeout}")
        self.jobs = jobs
        self.shard_timeout = shard_timeout
        self.data_dir = Path(data_dir)
        self.jobs_dir = self.data_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._log_file = log
        self._store = ResultStore(store_dir, campaign_id="serve")
        self._queue: "Queue[Optional[Job]]" = Queue()
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._job_seq = self._initial_job_seq()
        self._board: Optional[ShardBoard] = None
        self._board_lock = threading.Lock()
        self._workers: Dict[str, float] = {}
        self._draining = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._address: Optional[ServiceAddress] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def serve(self, address: ServiceAddress) -> None:
        """Listen on ``address`` and run until a shutdown drains the queue.

        Blocking; the CLI wires SIGTERM/SIGINT to
        :meth:`request_shutdown` so a signal and a ``shutdown`` frame
        take the same graceful path.
        """
        self._address = address
        self._listener = address.create_listener()
        if self.jobs > 0:
            self._pool = worker_pool(self.jobs, self._store)
        self._log(
            f"serving on {address} (store={self._store.directory}, "
            f"jobs={self.jobs}, shard_timeout={self.shard_timeout:g}s)"
        )
        scheduler = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-scheduler", daemon=True
        )
        scheduler.start()
        try:
            while True:
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    break  # listener closed by the drain path
                handler = threading.Thread(
                    target=self._handle_connection, args=(conn,), daemon=True
                )
                handler.start()
        finally:
            scheduler.join()
            self._cleanup()
        self._log("drained; bye")

    def request_shutdown(self) -> int:
        """Begin the graceful drain; returns the number of jobs left.

        Idempotent: repeated shutdown requests queue one sentinel each,
        and the scheduler stops at the first one *after* the already
        queued jobs — FIFO order means everything submitted before the
        shutdown still runs.
        """
        first = not self._draining.is_set()
        self._draining.set()
        if first:
            self._queue.put(None)
        with self._jobs_lock:
            return sum(
                1 for job in self._jobs.values() if job.state in ("queued", "running")
            )

    def _cleanup(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._store.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._address is not None and self._address.kind == "unix":
            try:
                os.unlink(self._address.path)
            except OSError:
                pass

    def _log(self, message: str) -> None:
        stamp = time.strftime("%H:%M:%S")
        target = self._log_file if self._log_file is not None else sys.stderr
        print(f"[serve {stamp}] {message}", file=target, flush=True)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(self, spec: CampaignSpec, out_dir: Optional[Path] = None) -> Job:
        """Queue a campaign; returns the job (state ``queued``).

        The spec is expanded here — submission validates the whole grid
        up front and stamps ``total_runs``, so a bad spec fails the
        submitting client, never the daemon's scheduler.
        """
        if self._draining.is_set():
            raise ServiceError("daemon is draining; submissions are closed")
        descriptors = spec.expand()
        identity = campaign_digest([descriptor.digest() for descriptor in descriptors])
        with self._jobs_lock:
            self._job_seq += 1
            job_id = f"job-{self._job_seq:04d}-{identity[:8]}"
            job = Job(
                job_id=job_id,
                spec=spec,
                out_dir=out_dir if out_dir is not None else self.jobs_dir / job_id,
                total_runs=len(descriptors),
            )
            self._jobs[job_id] = job
        self._queue.put(job)
        self._log(f"queued {job_id}: {len(descriptors)} runs -> {job.out_dir}")
        return job

    def get_job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def list_jobs(self) -> List[Job]:
        with self._jobs_lock:
            return sorted(self._jobs.values(), key=lambda job: job.submitted_at)

    def _initial_job_seq(self) -> int:
        """Continue the job-id sequence across daemon restarts on one
        data dir, so restarted daemons never reuse a job directory."""
        highest = 0
        for entry in self.jobs_dir.glob("job-*"):
            parts = entry.name.split("-")
            if len(parts) >= 2 and parts[1].isdigit():
                highest = max(highest, int(parts[1]))
        return highest

    # ------------------------------------------------------------------ #
    # Scheduler: FIFO job execution
    # ------------------------------------------------------------------ #

    def _scheduler_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                break
            try:
                self._execute_job(job)
            except Exception as exc:  # belt and braces: a job never kills the daemon
                if not job.done.is_set():
                    job.mark_failed(str(exc))
                self._log(f"{job.job_id} failed: {exc}")
        # Drain point: close the listener so the accept loop unblocks.
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()

    def _execute_job(self, job: Job) -> None:
        """Run one job through :class:`ParallelRunner` over the shared
        store, dispatching its shards on a :class:`ShardBoard`."""
        job.mark_running()
        store = self._store
        store.campaign_id = job.job_id
        store.claim(job.job_id)
        try:
            stream = CampaignStreamWriter(job.out_dir, owner=f"serve:{os.getpid()}")
            # Shards are sized for every slot that can pull them: local
            # pool processes plus the remote workers connected right now.
            runner = ParallelRunner(jobs=max(1, self.jobs + len(self._workers)), cache=store)
            outcome = runner.run(
                job.spec.expand(),
                stream=stream,
                executor=lambda shards: self._run_on_board(job.job_id, shards),
            )
            stream.finalize(outcome.summary())
            stats = outcome.stats
            job.mark_completed(stats)
            self._log(
                f"finished {job.job_id}: {stats['simulated']} simulated, "
                f"{stats['cached']} cached, {stats['elapsed_seconds']:.2f}s"
            )
        except Exception as exc:
            job.mark_failed(str(exc))
            self._log(f"{job.job_id} failed: {exc}")
        finally:
            store.release_claim(job.job_id)

    def _run_on_board(
        self, job_id: str, shards: Sequence[ShardTask]
    ) -> Generator[ShardResults, None, None]:
        """The daemon's shard executor: post ``shards`` on a board, let
        local pool threads and remote workers pull them, and yield each
        shard's results in shard order (requeueing expired leases while
        waiting)."""
        runs = sum(len(shard.runs) for shard in shards)
        self._log(f"running {job_id}: {runs} to simulate, {len(shards)} shards")
        board = ShardBoard(job_id, shards, self.shard_timeout)
        with self._board_lock:
            self._board = board
        pullers = [
            threading.Thread(target=self._local_puller, args=(board,), daemon=True)
            for _ in range(min(self.jobs, len(shards)))
        ]
        for puller in pullers:
            puller.start()
        try:
            for index in range(len(shards)):
                fresh = board.wait_result(index, timeout=0.5)
                while fresh is None:
                    error = board.error
                    if error is not None:
                        raise ServiceError(error)
                    for expired in board.expire_stale():
                        self._log(f"{job_id}: shard {expired} lease expired, requeued")
                    fresh = board.wait_result(index, timeout=0.5)
                yield fresh
            for puller in pullers:
                puller.join()
        except BaseException:
            # Also reached when the runner abandons the campaign (it closes
            # this generator): stop every puller from taking more shards.
            board.fail(f"{job_id} aborted")
            raise
        finally:
            with self._board_lock:
                self._board = None

    def _local_puller(self, board: ShardBoard) -> None:
        """One local slot: pull shards, run them on the shared pool."""
        pool = self._pool
        assert pool is not None, "local puller without a pool"
        while True:
            shard = board.take_local()
            if shard is None:
                return
            try:
                index, fresh = pool.submit(execute_shard, shard).result()
            except Exception as exc:
                board.fail(f"shard {shard.index} failed locally: {exc}")
                return
            board.complete(index, fresh)

    def _current_board(self) -> Optional[ShardBoard]:
        with self._board_lock:
            return self._board

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    def _handle_connection(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        owner: Optional[str] = None
        try:
            while True:
                frame = recv_frame(reader)
                if frame is None:
                    break
                frame_type = frame.get("type")
                if frame_type == "worker-hello":
                    worker_id = str(frame.get("worker_id", "anonymous"))
                    owner = f"worker:{worker_id}:{id(conn)}"
                    self._workers[owner] = time.time()
                    self._log(f"worker connected: {worker_id}")
                    send_frame(conn, make_frame("ok"))
                elif frame_type == "heartbeat":
                    # One-way by design: a reply here could interleave
                    # with the worker's in-flight request/response pair.
                    self._on_heartbeat(frame, owner)
                else:
                    send_frame(conn, self._dispatch(frame, owner))
        except ServiceError as exc:
            try:
                send_frame(conn, error_frame(str(exc)))
            except ServiceError:
                pass
        finally:
            if owner is not None:
                self._workers.pop(owner, None)
                board = self._current_board()
                if board is not None:
                    requeued = board.release_owner(owner)
                    if requeued:
                        self._log(
                            f"worker {owner} disconnected; requeued {requeued} shard(s)"
                        )
            reader.close()
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, frame: Dict[str, object], owner: Optional[str]) -> Dict[str, object]:
        """One request frame in, one response frame out."""
        frame_type = frame.get("type")
        try:
            if frame_type == "ping":
                return make_frame("pong", pid=os.getpid(), draining=self._draining.is_set())
            if frame_type == "submit":
                return self._on_submit(frame)
            if frame_type == "status":
                return self._on_status(frame)
            if frame_type == "results":
                return self._on_results(frame)
            if frame_type == "shutdown":
                pending = self.request_shutdown()
                self._log("shutdown requested; draining")
                return make_frame("ok", pending_jobs=pending)
            if frame_type == "task-request":
                return self._on_task_request(owner)
            if frame_type == "task-result":
                return self._on_task_result(frame)
        except ServiceError as exc:
            return error_frame(str(exc))
        except ReproError as exc:
            return error_frame(f"{type(exc).__name__}: {exc}")
        return error_frame(f"unknown frame type {frame_type!r}")

    def _on_submit(self, frame: Dict[str, object]) -> Dict[str, object]:
        spec_payload = frame.get("spec")
        if not isinstance(spec_payload, dict):
            raise ServiceError("submit frame needs a 'spec' object")
        spec = CampaignSpec.from_dict(spec_payload)
        out = frame.get("out")
        out_dir = Path(str(out)) if isinstance(out, str) and out else None
        job = self.submit(spec, out_dir=out_dir)
        return make_frame(
            "submitted", job_id=job.job_id, total_runs=job.total_runs, out_dir=str(job.out_dir)
        )

    def _on_status(self, frame: Dict[str, object]) -> Dict[str, object]:
        job_id = frame.get("job_id")
        if job_id is None:
            return make_frame(
                "status",
                jobs=[job.to_payload() for job in self.list_jobs()],
                draining=self._draining.is_set(),
                workers=len(self._workers),
            )
        return make_frame("status", job=self.get_job(str(job_id)).to_payload())

    def _on_results(self, frame: Dict[str, object]) -> Dict[str, object]:
        from ..campaign.artifacts import load_campaign

        job = self.get_job(str(frame.get("job_id")))
        if job.state == "failed":
            raise ServiceError(f"job {job.job_id} failed: {job.error}")
        if job.state != "completed":
            raise ServiceError(f"job {job.job_id} is {job.state}; results not ready")
        records, summary = load_campaign(job.out_dir)
        return make_frame(
            "results", job=job.to_payload(), records=records, summary=summary
        )

    # ------------------------------------------------------------------ #
    # Worker protocol
    # ------------------------------------------------------------------ #

    def _on_task_request(self, owner: Optional[str]) -> Dict[str, object]:
        if owner is None:
            raise ServiceError("task-request before worker-hello")
        board = self._current_board()
        if board is not None:
            shard = board.take_remote(owner)
            if shard is not None:
                return make_frame(
                    "task",
                    job_id=board.job_id,
                    shard=shard_to_payload(shard),
                    lease_seconds=self.shard_timeout,
                )
        if self._draining.is_set() and board is None and self._queue.empty():
            return make_frame("drain")
        return make_frame("idle", retry_after=IDLE_RETRY_SECONDS)

    def _on_task_result(self, frame: Dict[str, object]) -> Dict[str, object]:
        board = self._current_board()
        job_id = frame.get("job_id")
        if board is None or board.job_id != job_id:
            # Stale result for a finished/aborted job: acknowledge and drop
            # (the shard was requeued and completed by someone else).
            return make_frame("ok", accepted=False)
        try:
            shard_index = int(frame["shard_index"])  # type: ignore[arg-type]
            raw = frame["results"]
            fresh: ShardResults = [
                (str(digest), dict(record))
                for digest, record in raw  # type: ignore[union-attr]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed task-result frame: {exc}") from exc
        accepted = board.complete(shard_index, fresh)
        return make_frame("ok", accepted=accepted)

    def _on_heartbeat(self, frame: Dict[str, object], owner: Optional[str]) -> None:
        if owner is None:
            return
        board = self._current_board()
        if board is None or board.job_id != frame.get("job_id"):
            return
        try:
            board.heartbeat(int(frame["shard_index"]), owner)  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            pass


__all__ = ["CampaignDaemon", "DEFAULT_SHARD_TIMEOUT", "ShardBoard"]
