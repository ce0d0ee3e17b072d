"""Versioned JSON-lines wire protocol for the campaign service.

Every frame is one JSON object on one line, UTF-8, terminated by ``\\n``:

    {"v": 1, "type": "submit", "spec": {...}}

``v`` is the protocol version (:data:`PROTOCOL_VERSION`); a peer that
receives a frame with a different ``v`` answers with an ``error`` frame
and closes — silent cross-version talk is how jobs get corrupted.  The
frame ``type`` selects the handler; unknown types are an error, never
ignored.

Frame vocabulary (full lifecycle semantics in DESIGN.md §11):

* Clients send ``submit`` / ``status`` / ``results`` / ``shutdown`` /
  ``ping``; the daemon answers each with exactly one response frame
  (``submitted``, ``status``, ``results``, ``ok``, ``pong``, or
  ``error``) and the client closes the connection.
* Workers speak a pull protocol on one long-lived connection:
  ``worker-hello`` then a ``task-request`` loop.  The daemon answers
  ``task`` (a leased shard), ``idle`` (nothing to do right now) or
  ``drain`` (shutting down — disconnect).  Completed shards come back as
  ``task-result``; ``heartbeat`` frames are one-way (no response) so
  they can interleave with an in-flight request/response exchange
  without frame ordering ambiguity.

Shard payloads serialise :class:`~repro.campaign.runner.ShardTask` with
the same config-deduplication the process-pool path uses: each distinct
:class:`~repro.config.ArchConfig` is encoded once (via ``to_dict``) and
runs reference it by index, so the wire cost is proportional to the
number of platforms in the shard, not the number of runs.

Addresses: ``unix:/path/to.sock`` (default when the string looks like a
path) or ``tcp:host:port``.  Unix sockets are the default transport —
same-host multiplexing with filesystem permissions; TCP is the opt-in
multi-host transport.
"""

from __future__ import annotations

import json
import os
import socket
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Tuple

from ..campaign.runner import ShardRun, ShardTask
from ..config import ArchConfig, config_from_dict
from ..errors import ServiceError

#: Version stamped into every frame; bump on any wire-visible change so
#: mixed-version daemon/client/worker pairs fail loudly at the first frame.
PROTOCOL_VERSION = 1

#: Read buffer for one frame; a campaign `results` frame can carry a whole
#: grid's records, so the cap is generous (64 MiB) but finite — a stream
#: that never newline-terminates must not consume unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ConnectionLost(ServiceError):
    """The peer went away mid-conversation (EOF, reset, broken pipe).

    Split from :class:`ServiceError` so peers can distinguish "the daemon
    exited" — which a draining worker treats as a normal end of service —
    from a real protocol violation, which should always surface loudly.
    """


@dataclass(frozen=True)
class ServiceAddress:
    """Where a daemon listens: a Unix socket path or a TCP endpoint."""

    kind: str  # "unix" | "tcp"
    path: str = ""
    host: str = ""
    port: int = 0

    def __str__(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"tcp:{self.host}:{self.port}"

    def create_listener(self, backlog: int = 16) -> socket.socket:
        """Bind and listen; Unix sockets replace a stale socket file."""
        if self.kind == "unix":
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                if os.path.exists(self.path):
                    # A bound Unix socket path persists after the daemon
                    # dies; probe it before unlinking so we never steal a
                    # live daemon's address.
                    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    try:
                        probe.settimeout(0.5)
                        probe.connect(self.path)
                    except OSError:
                        os.unlink(self.path)
                    else:
                        probe.close()
                        listener.close()
                        raise ServiceError(
                            f"address {self} is in use by a live daemon"
                        )
                    finally:
                        probe.close()
                listener.bind(self.path)
            except OSError as exc:
                listener.close()
                raise ServiceError(f"cannot bind {self}: {exc}") from exc
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((self.host, self.port))
            except OSError as exc:
                listener.close()
                raise ServiceError(f"cannot bind {self}: {exc}") from exc
        listener.listen(backlog)
        return listener

    def connect(self, timeout: Optional[float] = None) -> socket.socket:
        """Open a client connection to this address."""
        try:
            if self.kind == "unix":
                conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    conn.settimeout(timeout)
                    conn.connect(self.path)
                except OSError:
                    conn.close()
                    raise
            else:
                conn = socket.create_connection((self.host, self.port), timeout=timeout)
        except OSError as exc:
            raise ServiceError(f"cannot connect to {self}: {exc}") from exc
        conn.settimeout(None)
        return conn


def parse_address(text: str) -> ServiceAddress:
    """Parse ``unix:/path``, ``tcp:host:port``, or a bare path (Unix).

    The bare-path form keeps the common case terse: ``repro-bounds serve
    --socket out/daemon.sock``.
    """
    if text.startswith("unix:"):
        path = text[len("unix:") :]
        if not path:
            raise ServiceError("unix address needs a socket path")
        return ServiceAddress(kind="unix", path=path)
    if text.startswith("tcp:"):
        rest = text[len("tcp:") :]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise ServiceError(f"tcp address must be tcp:host:port, got {text!r}")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise ServiceError(f"invalid tcp port {port_text!r}") from exc
        if not 0 <= port <= 65535:
            raise ServiceError(f"tcp port out of range: {port}")
        return ServiceAddress(kind="tcp", host=host, port=port)
    if not text:
        raise ServiceError("empty service address")
    return ServiceAddress(kind="unix", path=text)


# --------------------------------------------------------------------- #
# Frame I/O
# --------------------------------------------------------------------- #


def make_frame(frame_type: str, **fields: object) -> Dict[str, object]:
    """A protocol frame: version + type + payload fields."""
    frame: Dict[str, object] = {"v": PROTOCOL_VERSION, "type": frame_type}
    frame.update(fields)
    return frame


def error_frame(message: str) -> Dict[str, object]:
    return make_frame("error", message=message)


def send_frame(conn: socket.socket, frame: Dict[str, object]) -> None:
    """Serialise ``frame`` as one JSON line and send it whole."""
    data = json.dumps(frame, sort_keys=True, separators=(",", ":")).encode("utf-8")
    try:
        conn.sendall(data + b"\n")
    except OSError as exc:
        raise ConnectionLost(
            f"connection lost while sending {frame.get('type')}: {exc}"
        ) from exc


def recv_frame(reader: IO[bytes]) -> Optional[Dict[str, object]]:
    """Read one frame from a ``socket.makefile('rb')`` reader.

    Returns ``None`` on clean EOF (peer closed).  Raises
    :class:`ServiceError` on malformed JSON, a non-object frame, an
    over-long line, or a protocol version mismatch — all cases where
    continuing to parse the stream would desynchronise it.
    """
    try:
        line = reader.readline(MAX_FRAME_BYTES + 1)
    except OSError as exc:
        raise ConnectionLost(f"connection lost while receiving: {exc}") from exc
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ServiceError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise ServiceError(f"malformed protocol frame: {exc}") from exc
    if not isinstance(frame, dict) or "type" not in frame:
        raise ServiceError("protocol frame must be a JSON object with a 'type'")
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ServiceError(
            f"protocol version mismatch: peer speaks v{version!r}, "
            f"this build speaks v{PROTOCOL_VERSION}"
        )
    return frame


def request(
    conn: socket.socket, frame: Dict[str, object], reader: Optional[IO[bytes]] = None
) -> Dict[str, object]:
    """Send ``frame`` and read exactly one response frame.

    The one-shot client helper; raises on EOF because a request must be
    answered (``error`` frames come back as :class:`ServiceError`).
    """
    owns_reader = reader is None
    if reader is None:
        reader = conn.makefile("rb")
    try:
        send_frame(conn, frame)
        response = recv_frame(reader)
    finally:
        if owns_reader:
            reader.close()
    if response is None:
        raise ConnectionLost(
            f"daemon closed the connection without answering {frame.get('type')!r}"
        )
    if response.get("type") == "error":
        raise ServiceError(f"daemon error: {response.get('message', '(no message)')}")
    return response


# --------------------------------------------------------------------- #
# Shard payloads
# --------------------------------------------------------------------- #


def shard_to_payload(shard: ShardTask) -> Dict[str, object]:
    """JSON-encode a shard with the config table deduplicated (see module
    docstring); exact inverse of :func:`shard_from_payload`."""
    return {
        "index": shard.index,
        "configs": [config.to_dict() for config in shard.configs],
        "runs": [
            {
                "run_id": run.run_id,
                "preset": run.preset,
                "config_index": run.config_index,
                "kind": run.kind,
                "tasks": list(run.tasks),
                "observed_core": run.observed_core,
                "iterations": run.iterations,
                "seed": run.seed,
                "rsk_kind": run.rsk_kind,
                "digest": run.digest,
            }
            for run in shard.runs
        ],
    }


def shard_from_payload(payload: Dict[str, object]) -> ShardTask:
    """Rebuild a :class:`ShardTask` from :func:`shard_to_payload` output."""
    try:
        configs: Tuple[ArchConfig, ...] = tuple(
            config_from_dict(entry) for entry in payload["configs"]  # type: ignore[union-attr, index]
        )
        runs: List[ShardRun] = []
        for entry in payload["runs"]:  # type: ignore[union-attr, index]
            runs.append(
                ShardRun(
                    run_id=str(entry["run_id"]),
                    preset=str(entry["preset"]),
                    config_index=int(entry["config_index"]),
                    kind=str(entry["kind"]),
                    tasks=tuple(str(task) for task in entry["tasks"]),
                    observed_core=int(entry["observed_core"]),
                    iterations=int(entry["iterations"]),
                    seed=int(entry["seed"]),
                    rsk_kind=str(entry["rsk_kind"]),
                    digest=str(entry["digest"]),
                )
            )
        return ShardTask(index=int(payload["index"]), configs=configs, runs=tuple(runs))  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed shard payload: {exc}") from exc
