"""Isolation and contended experiment running.

The measurement primitives every estimator in this package is built from:

* run the software component under analysis (scua) *alone* on the platform
  and record its execution time and bus request count;
* run the same scua against a set of contender kernels pinned to the other
  cores and record its execution time, the bus utilisation and (optionally)
  the request-level trace.

The difference of the two execution times is the contention penalty
``det``/``dbus`` that both the naive estimator and the rsk-nop methodology
work with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import ArchConfig
from ..errors import MethodologyError
from ..kernels.rsk import build_stress_contender_set
from ..sim.isa import Program
from ..sim.system import System, SystemResult
from ..sim.request_trace import TraceRecorder


@dataclass(frozen=True)
class IsolationMeasurement:
    """Outcome of running the scua alone on the platform."""

    execution_time: int
    bus_requests: int
    instructions: int
    result: SystemResult

    @property
    def requests(self) -> int:
        """Bus requests issued by the scua (``nr`` in the paper)."""
        return self.bus_requests

    @property
    def memory_requests(self) -> int:
        """Requests that missed the L2 and reached the memory stage
        (``nr_mem``: the subset paying the memory-stage terms when a
        per-resource bound is composed)."""
        return self.result.pmc.dram_accesses

    def as_record(self) -> Dict[str, int]:
        """JSON-serialisable summary (the shape campaign artifacts embed)."""
        return {
            "execution_time": self.execution_time,
            "bus_requests": self.bus_requests,
            "memory_requests": self.memory_requests,
            "instructions": self.instructions,
        }


@dataclass(frozen=True)
class ContendedMeasurement:
    """Outcome of running the scua against contender kernels."""

    execution_time: int
    bus_requests: int
    bus_utilisation: float
    result: SystemResult
    trace: Optional[TraceRecorder] = None

    def slowdown_versus(self, isolation: IsolationMeasurement) -> int:
        """Execution-time increase over the isolation run (``det``/``dbus``)."""
        return self.execution_time - isolation.execution_time

    def as_record(self) -> Dict[str, object]:
        """JSON-serialisable summary (the shape campaign artifacts embed)."""
        return {
            "execution_time": self.execution_time,
            "bus_requests": self.bus_requests,
            "bus_utilisation": self.bus_utilisation,
        }


class ExperimentRunner:
    """Runs isolation / contended measurements on one platform configuration.

    Args:
        config: the platform to measure.
        preload_l2: warm the L2 with each program's footprint before running
            (the default; removes cold-miss noise, mirroring the warmed-up
            steady state the paper measures).
        preload_il1: warm the instruction caches likewise.
        max_cycles: safety bound passed to every simulation.

    :meth:`run_against_rsk` builds its stress contender set once per (scua
    core, kind) and reuses it for every later scua: a sweep runs each of its
    points against the same contenders.  Programs are frozen, so sharing
    them is safe.
    """

    def __init__(
        self,
        config: ArchConfig,
        preload_l2: bool = True,
        preload_il1: bool = True,
        max_cycles: int = 200_000_000,
    ) -> None:
        self.config = config
        self.preload_l2 = preload_l2
        self.preload_il1 = preload_il1
        self.max_cycles = max_cycles
        self._contenders: Dict[Tuple[int, str], Dict[int, Program]] = {}

    # ------------------------------------------------------------------ #
    # Individual runs.
    # ------------------------------------------------------------------ #
    def run_isolation(self, scua: Program, scua_core: int = 0) -> IsolationMeasurement:
        """Run ``scua`` alone and measure its execution time and request count."""
        self._check_scua(scua, scua_core)
        programs: List[Optional[Program]] = [None] * self.config.num_cores
        programs[scua_core] = scua
        system = System(
            self.config,
            programs,
            preload_l2=self.preload_l2,
            preload_il1=self.preload_il1,
        )
        result = system.run(observed_cores=[scua_core], max_cycles=self.max_cycles)
        self._check_finished(result, scua_core, "isolation")
        return IsolationMeasurement(
            execution_time=result.execution_time(scua_core),
            bus_requests=result.pmc.core[scua_core].bus_requests,
            instructions=result.instructions[scua_core],
            result=result,
        )

    def run_contended(
        self,
        scua: Program,
        contenders: Dict[int, Program],
        scua_core: int = 0,
        trace: bool = False,
    ) -> ContendedMeasurement:
        """Run ``scua`` against ``contenders`` (a mapping core -> program)."""
        self._check_scua(scua, scua_core)
        if scua_core in contenders:
            raise MethodologyError(f"core {scua_core} cannot host both the scua and a contender")
        for core in contenders:
            if not 0 <= core < self.config.num_cores:
                raise MethodologyError(f"contender core {core} does not exist")
        programs: List[Optional[Program]] = [None] * self.config.num_cores
        programs[scua_core] = scua
        for core, program in contenders.items():
            programs[core] = program
        system = System(
            self.config,
            programs,
            trace=trace,
            preload_l2=self.preload_l2,
            preload_il1=self.preload_il1,
        )
        result = system.run(observed_cores=[scua_core], max_cycles=self.max_cycles)
        self._check_finished(result, scua_core, "contended")
        return ContendedMeasurement(
            execution_time=result.execution_time(scua_core),
            bus_requests=result.pmc.core[scua_core].bus_requests,
            bus_utilisation=result.pmc.bus_utilisation(),
            result=result,
            trace=result.trace,
        )

    def run_against_rsk(
        self,
        scua: Program,
        scua_core: int = 0,
        kind: str = "load",
        trace: bool = False,
    ) -> ContendedMeasurement:
        """Run ``scua`` against ``Nc - 1`` infinite rsk contenders of type ``kind``."""
        contenders = self._contenders.get((scua_core, kind))
        if contenders is None:
            contenders = build_stress_contender_set(self.config, "bus", scua_core, kind=kind)
            self._contenders[(scua_core, kind)] = contenders
        return self.run_contended(scua, contenders, scua_core=scua_core, trace=trace)

    def run_pair(
        self,
        scua: Program,
        contenders: Dict[int, Program],
        scua_core: int = 0,
        trace: bool = False,
    ) -> Tuple[IsolationMeasurement, ContendedMeasurement]:
        """Measure ``scua`` in isolation and against ``contenders``.

        The pair is the paper's basic experiment: the difference of the two
        execution times is the contention penalty ``det``.  The campaign
        engine uses this for every rsk-style run descriptor.
        """
        isolation = self.run_isolation(scua, scua_core=scua_core)
        contended = self.run_contended(scua, contenders, scua_core=scua_core, trace=trace)
        return isolation, contended

    # ------------------------------------------------------------------ #
    # Internal validation.
    # ------------------------------------------------------------------ #
    def _check_scua(self, scua: Program, scua_core: int) -> None:
        if not 0 <= scua_core < self.config.num_cores:
            raise MethodologyError(f"scua core {scua_core} does not exist")
        if scua.is_infinite:
            raise MethodologyError(
                f"the scua ({scua.name!r}) must terminate; build it with a finite "
                "iteration count"
            )

    @staticmethod
    def _check_finished(result: SystemResult, core: int, label: str) -> None:
        if result.timed_out or result.done_cycles[core] is None:
            raise MethodologyError(
                f"{label} run did not finish within the cycle budget; raise max_cycles"
            )
