"""Remote shard executor: ``repro-bounds worker --connect <address>``.

A worker is the multi-host half of campaign-as-a-service: it connects to
a daemon (typically over TCP), announces itself, then pulls leased
shards in a request/response loop and executes them in-process with the
exact :func:`~repro.campaign.runner.execute_shard` the local pool uses —
so a record computed remotely is byte-identical to one computed locally.

While a shard runs, a heartbeat thread keeps the daemon's lease alive;
heartbeats are one-way frames (the daemon never replies) so they can
interleave with the main thread's request/response exchange.  A worker
that dies mid-shard simply stops heartbeating and drops its connection —
the daemon requeues the shard and the campaign completes without it.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import IO, Dict, Optional, TextIO

from ..campaign.runner import execute_shard
from ..errors import ServiceError
from .protocol import (
    ConnectionLost,
    ServiceAddress,
    make_frame,
    recv_frame,
    send_frame,
    shard_from_payload,
)

#: Seconds between heartbeats while a shard executes; well under the
#: daemon's default lease (120 s) so one dropped frame never expires it.
DEFAULT_HEARTBEAT_INTERVAL = 2.0


class RemoteWorker:
    """Pull-execute-report loop against one daemon.

    Args:
        address: the daemon's service address.
        worker_id: name reported to the daemon (defaults to
            ``host:pid``); appears in the daemon log and lease owner ids.
        poll_interval: sleep between polls while the daemon is idle.
        heartbeat_interval: seconds between lease heartbeats.
        max_shards: stop after this many shards (``None`` = run until
            the daemon drains); the failure-injection tests use it to
            build workers with a bounded life.
        log: where operational lines go (default: silent).
    """

    def __init__(
        self,
        address: ServiceAddress,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.2,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        max_shards: Optional[int] = None,
        log: Optional[TextIO] = None,
    ) -> None:
        if worker_id is None:
            worker_id = f"{socket.gethostname()}:{os.getpid()}"
        self.address = address
        self.worker_id = worker_id
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.max_shards = max_shards
        self._log_file = log
        self._write_lock = threading.Lock()

    def _log(self, message: str) -> None:
        if self._log_file is not None:
            print(f"[worker {self.worker_id}] {message}", file=self._log_file, flush=True)

    def _send(self, conn: socket.socket, frame: Dict[str, object]) -> None:
        # The heartbeat thread and the main loop share the socket; frame
        # writes are atomic under this lock so lines never interleave.
        with self._write_lock:
            send_frame(conn, frame)

    def _request(
        self, conn: socket.socket, reader: IO[bytes], frame: Dict[str, object]
    ) -> Dict[str, object]:
        self._send(conn, frame)
        response = recv_frame(reader)
        if response is None:
            raise ConnectionLost("daemon closed the connection")
        if response.get("type") == "error":
            raise ServiceError(f"daemon error: {response.get('message', '(no message)')}")
        return response

    def _exchange(
        self, conn: socket.socket, reader: IO[bytes], frame: Dict[str, object], when: str
    ) -> Optional[Dict[str, object]]:
        """:meth:`_request`, or ``None`` if the daemon went away: for a
        worker that is a normal end of service (drained or died), and any
        shard it still held has been requeued on disconnect."""
        try:
            return self._request(conn, reader, frame)
        except ConnectionLost:
            self._log(f"daemon went away {when}; exiting")
            return None

    def run(self) -> int:
        """Serve the daemon until it drains (or ``max_shards`` is hit).

        Returns the number of shards completed.
        """
        conn = self.address.connect(timeout=10.0)
        reader = conn.makefile("rb")
        completed = 0
        try:
            hello = make_frame("worker-hello", worker_id=self.worker_id)
            connected = self._exchange(conn, reader, hello, "during the hello") is not None
            if connected:
                self._log(f"connected to {self.address}")
            while connected and (self.max_shards is None or completed < self.max_shards):
                response = self._exchange(conn, reader, make_frame("task-request"), "between polls")
                if response is None:
                    break
                response_type = response.get("type")
                if response_type == "drain":
                    self._log("daemon draining; exiting")
                    break
                if response_type == "idle":
                    time.sleep(float(response.get("retry_after", self.poll_interval)))
                    continue
                if response_type != "task":
                    raise ServiceError(f"unexpected frame {response_type!r} for task-request")
                job_id = str(response.get("job_id"))
                shard = shard_from_payload(response["shard"])  # type: ignore[arg-type]
                self._log(f"executing shard {shard.index} of {job_id} ({len(shard.runs)} runs)")
                stop = threading.Event()
                heartbeats = threading.Thread(
                    target=self._heartbeat_loop,
                    args=(conn, job_id, shard.index, stop),
                    daemon=True,
                )
                heartbeats.start()
                try:
                    index, results = execute_shard(shard)
                finally:
                    stop.set()
                    heartbeats.join()
                result = make_frame(
                    "task-result",
                    job_id=job_id,
                    shard_index=index,
                    results=[[digest, record] for digest, record in results],
                )
                if self._exchange(conn, reader, result, "before accepting the result") is None:
                    break
                completed += 1
        finally:
            reader.close()
            try:
                conn.close()
            except OSError:
                pass
        self._log(f"done; completed {completed} shard(s)")
        return completed

    def _heartbeat_loop(
        self, conn: socket.socket, job_id: str, shard_index: int, stop: threading.Event
    ) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                self._send(
                    conn,
                    make_frame("heartbeat", job_id=job_id, shard_index=shard_index),
                )
            except ServiceError:
                return  # connection gone; the main loop will notice
