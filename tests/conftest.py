"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest

from repro.config import (
    ArchConfig,
    BusConfig,
    CacheConfig,
    L2Config,
    reference_config,
    small_config,
    variant_config,
)
from repro.sim.isa import Program
from repro.sim.system import System, SystemResult


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen",
        action="store_true",
        default=False,
        help="rewrite golden snapshot files (e.g. the generated-loop sources "
        "under tests/goldens/) instead of comparing against them",
    )


@pytest.fixture
def regen(request: pytest.FixtureRequest) -> bool:
    """True when the run should refresh golden snapshots (``--regen``)."""
    return bool(request.config.getoption("--regen"))


@pytest.fixture
def ref_config() -> ArchConfig:
    """The paper's reference 4-core NGMP-like platform."""
    return reference_config()


@pytest.fixture
def var_config() -> ArchConfig:
    """The paper's variant platform (L1 latency 4)."""
    return variant_config()


@pytest.fixture
def tiny_config() -> ArchConfig:
    """A 2-core platform with a short bus occupancy for fast unit tests."""
    return small_config()


@pytest.fixture
def sweep_capped_before_two_periods(monkeypatch: pytest.MonkeyPatch) -> None:
    """Stub every ``UbdEstimator`` sweep point with a saw-tooth of period 16
    k-steps and lower ``MAX_K_LIMIT`` to 24, so auto-extension reaches the
    search limit before the sweep covers the period twice."""
    from repro.methodology.ubd import SweepPoint, UbdEstimator

    def sawtooth_of_period_16(estimator: UbdEstimator, k: int) -> SweepPoint:
        dbus = 100 * (16 - (k - 1) % 16)
        return SweepPoint(
            k=k,
            isolation_time=1000,
            contended_time=1000 + dbus,
            dbus=dbus,
            bus_utilisation=1.0,
            requests=100,
        )

    monkeypatch.setattr(UbdEstimator, "measure_point", sawtooth_of_period_16)
    monkeypatch.setattr("repro.methodology.ubd.MAX_K_LIMIT", 24)


def make_tiny_config(**overrides) -> ArchConfig:
    """Build the small test platform with optional field overrides."""
    return small_config(**overrides)


def run_programs(
    config: ArchConfig,
    programs: List[Optional[Program]],
    observed: Optional[List[int]] = None,
    trace: bool = False,
    **system_kwargs,
) -> SystemResult:
    """Run ``programs`` on ``config`` and return the result (helper for tests)."""
    system = System(config, programs, trace=trace, **system_kwargs)
    return system.run(observed_cores=observed)


def execution_time_of(
    config: ArchConfig,
    program: Program,
    core_id: int = 0,
    **system_kwargs,
) -> int:
    """Execution time of ``program`` running alone on ``core_id``."""
    programs: List[Optional[Program]] = [None] * config.num_cores
    programs[core_id] = program
    result = run_programs(config, programs, observed=[core_id], **system_kwargs)
    return result.execution_time(core_id)
