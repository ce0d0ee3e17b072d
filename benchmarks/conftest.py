"""Shared infrastructure for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  The
regenerated series/rows are printed to stdout and also written as plain-text
artefacts under ``benchmarks/out/``.  The full-mode artefacts are committed,
so a regeneration is compared against them with ``git diff``; DESIGN.md
records where a regenerated figure deviates from the paper's (Section 3).

All simulation-based benchmarks run the workload exactly once through
``benchmark.pedantic(..., rounds=1, iterations=1)``: the interesting output is
the regenerated figure, and a single cycle-accurate run is already
deterministic, so repeating it would only multiply the runtime.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# Make the package importable when the benchmarks are run without an
# installed distribution (mirrors the pythonpath setting used for tests/).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Directory where regenerated figures are written.
OUTPUT_DIR = Path(__file__).resolve().parent / "out"


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    """Directory for regenerated-figure artefacts (created on demand)."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def campaign_runner():
    """Shared campaign runner for figure sweeps (see ``repro.campaign``).

    ``REPRO_BENCH_JOBS`` sets the worker-process count (default: one per
    CPU, capped at 4); serial and parallel execution produce bit-identical
    figures.  ``REPRO_BENCH_CACHE=1`` additionally persists per-run results
    in a result store under ``benchmarks/out/.cache`` so re-generating an
    unchanged figure skips its simulations.
    """
    from repro.campaign import ParallelRunner, ResultStore

    jobs = int(os.environ.get("REPRO_BENCH_JOBS", min(4, os.cpu_count() or 1)))
    store = None
    if os.environ.get("REPRO_BENCH_CACHE", "0") == "1":
        store = ResultStore(OUTPUT_DIR / ".cache")
    yield ParallelRunner(jobs=max(1, jobs), cache=store)


@pytest.fixture(scope="session")
def quick_mode() -> bool:
    """Reduce workload sizes when REPRO_BENCH_QUICK=1 is set.

    The default sizes regenerate the figures with the same qualitative shape
    as the paper in a couple of minutes; quick mode is for smoke-testing the
    harness itself.
    """
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def write_artifact(directory: Path, name: str, content: str) -> Path:
    """Write ``content`` to ``directory/name`` and echo it to stdout."""
    path = directory / name
    path.write_text(content, encoding="utf-8")
    print(f"\n----- {name} -----")
    print(content)
    return path
