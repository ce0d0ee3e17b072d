"""Client surface for the campaign daemon: submit, status, results, shutdown.

Each command opens a fresh connection, sends one request frame, reads
one response and disconnects — client state lives entirely in the
daemon, so ``repro-bounds submit`` from one terminal and ``repro-bounds
status`` from another always agree.  ``error`` frames surface as
:class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..campaign.spec import CampaignSpec
from ..errors import ServiceError
from .protocol import ServiceAddress, make_frame, request


class ServiceClient:
    """One-shot request/response commands against a daemon address."""

    def __init__(self, address: ServiceAddress, timeout: float = 10.0) -> None:
        self.address = address
        self.timeout = timeout

    def _request(self, frame: Dict[str, object]) -> Dict[str, object]:
        conn = self.address.connect(timeout=self.timeout)
        try:
            return request(conn, frame)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def ping(self) -> Dict[str, object]:
        """Liveness probe; returns the daemon's ``pong`` frame."""
        return self._request(make_frame("ping"))

    def wait_for_daemon(self, timeout: float = 10.0, interval: float = 0.1) -> None:
        """Block until the daemon answers a ping (startup race helper)."""
        deadline = time.monotonic() + timeout
        last: Optional[ServiceError] = None
        while time.monotonic() < deadline:
            try:
                self.ping()
                return
            except ServiceError as exc:
                last = exc
                time.sleep(interval)
        raise ServiceError(
            f"daemon at {self.address} did not come up within {timeout:g}s: {last}"
        )

    def submit(self, spec: CampaignSpec, out: Optional[str] = None) -> Dict[str, object]:
        """Submit a campaign spec; returns the ``submitted`` frame
        (``job_id``, ``total_runs``, ``out_dir``)."""
        frame = make_frame("submit", spec=spec.to_dict())
        if out is not None:
            frame["out"] = out
        return self._request(frame)

    def status(self, job_id: Optional[str] = None) -> Dict[str, object]:
        """One job's status, or the whole job table when ``job_id`` is
        ``None``."""
        frame = make_frame("status")
        if job_id is not None:
            frame["job_id"] = job_id
        return self._request(frame)

    def results(self, job_id: str) -> Dict[str, object]:
        """A completed job's records and summary (raises until it is)."""
        return self._request(make_frame("results", job_id=job_id))

    def shutdown(self) -> Dict[str, object]:
        """Ask the daemon to drain and exit; returns the ``ok`` frame
        with the number of jobs still pending."""
        return self._request(make_frame("shutdown"))

    def wait(
        self, job_id: str, timeout: Optional[float] = None, interval: float = 0.2
    ) -> Dict[str, object]:
        """Poll ``status`` until the job reaches a terminal state.

        Returns the final job payload; raises :class:`ServiceError` on
        timeout or when the job failed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.status(job_id)["job"]
            assert isinstance(job, dict)
            state = job.get("state")
            if state == "completed":
                return job
            if state == "failed":
                raise ServiceError(
                    f"job {job_id} failed: {job.get('error', '(no error recorded)')}"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(f"timed out waiting for job {job_id} (state {state})")
            time.sleep(interval)
