"""Timed child processes: wall time, CPU time and peak RSS of a process tree."""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence, Tuple

from hostspeed import NOMINAL_S

#: A single invocation is killed after this long; the whole benchmark run
#: must finish within 180 s.
INVOCATION_TIMEOUT_S = 150.0


@dataclass
class Invocation:
    """What one child process did and what it cost."""

    argv: Sequence[str]
    cwd: Path
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    #: Artifacts the command wrote, read as soon as it ended (a later leg
    #: may overwrite them); missing files are absent.
    artifacts: Dict[str, bytes]
    #: Mean time of the host-speed reference right before and right after
    #: the invocation (``hostspeed.reference``); 0 when not measured.
    reference_s: float = 0.0

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured in this invocation, in seconds on an
        uncontended core of the reference host."""
        return seconds * NOMINAL_S / self.reference_s


def invoke(
    argv: Sequence[str],
    cwd: Path,
    env: Dict[str, str],
    log_dir: Path,
    artifacts: Tuple[str, ...] = (),
    timeout: float = INVOCATION_TIMEOUT_S,
) -> Invocation:
    """Run ``argv`` in ``cwd`` and wait for it and every process it started.

    CPU time and peak RSS come from ``wait4``: the kernel folds in every
    descendant the child reaped (campaign pool workers), so they cover the
    process tree.  The child leads its own process group, which is killed
    on timeout and swept after exit so no worker outlives the invocation.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    log_dir.mkdir(parents=True, exist_ok=True)
    stdout_path = log_dir / "stdout"
    stderr_path = log_dir / "stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True
        )
        timer = threading.Timer(timeout, _kill_group, (process.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(process.pid)
    return Invocation(
        argv=tuple(argv),
        cwd=cwd,
        exit_code=process.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout_path.read_bytes(),
        stderr=stderr_path.read_bytes(),
        artifacts={
            name: (cwd / name).read_bytes() for name in artifacts if (cwd / name).is_file()
        },
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
