"""How fast the host's cores run right now, for scaling timed samples.

The benchmark's hosts are shared VMs.  Each core flips, within seconds,
between a fast state and one about 1.5x slower (another tenant on the
same physical core), so one invocation's wall time spreads by 0.4 of its
median, and medians of runs minutes apart drift by up to 25 %.  A fixed
pure-Python loop timed on the same core right before and right after an
invocation tracks this: over 100 invocations of ``derive-ubd`` pinned to
one core, wall time and the mean of the two loop times correlated at 0.85.
So the benchmark pins its commands to fixed cores and scales every sample
by ``NOMINAL_S / reference time``: times are reported in seconds on an
uncontended core of the reference VM.

The loop imports nothing from ``src/``, so no change to the program
changes it.
"""

from __future__ import annotations

import os
import time
from typing import List

#: Time of :func:`reference` on an uncontended core of the 2-core reference
#: VM (Intel Xeon, CPython 3.11), in seconds.
NOMINAL_S = 0.08
#: Iterations of the reference loop.
LOOP = 1_000_000
#: The cores this process may use when it starts.
CORES = sorted(os.sched_getaffinity(0))


def pin(count: int) -> List[int]:
    """Restrict this process, and every child it starts from now on, to
    the last ``count`` of :data:`CORES` (all of them if there are fewer)."""
    cores = CORES[-count:]
    os.sched_setaffinity(0, cores)
    return cores


def reference() -> float:
    """Mean time of the reference loop over the cores this process is
    pinned to, each timed on its own core."""
    cores = os.sched_getaffinity(0)
    total = 0.0
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            started = time.perf_counter()
            value = 0
            for i in range(LOOP):
                value += i * i % 7
            total += time.perf_counter() - started
    finally:
        os.sched_setaffinity(0, cores)
    return total / len(cores)
