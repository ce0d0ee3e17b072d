"""The prior-art measurement approach the paper argues against.

Before this paper, ``ubdm`` was obtained by running a software component
under analysis against resource-stressing kernels and dividing the observed
execution-time increase by the number of bus requests:

    ``ubdm = det / nr``  with  ``det = ExecTime_rsk - ExecTime_isol``

(Section 1).  The paper's Sections 3.1/3.2 show that, because of the
synchrony effect, this value reflects one particular injection-time alignment
and can be arbitrarily far below the true ``ubd``.  This module implements
that estimator faithfully so the benchmarks can quantify the gap between the
naive value and both the rsk-nop result and the analytical bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ArchConfig
from ..errors import MethodologyError
from ..kernels.rsk import build_rsk
from ..sim.isa import Program
from .experiment import ExperimentRunner


@dataclass(frozen=True)
class NaiveEstimate:
    """Outcome of the naive ``det / nr`` estimator.

    Attributes:
        ubdm: the naive per-request contention estimate (cycles, fractional).
        det: measured execution-time increase of the scua.
        requests: number of bus requests ``nr`` used as the divisor.
        isolation_time: scua execution time in isolation.
        contended_time: scua execution time against the contenders.
        scua_name: name of the analysed program.
    """

    ubdm: float
    det: int
    requests: int
    isolation_time: int
    contended_time: int
    scua_name: str

    def underestimation_versus(self, reference_ubd: int) -> float:
        """How far below ``reference_ubd`` the naive estimate lies (cycles)."""
        return reference_ubd - self.ubdm


class NaiveUbdEstimator:
    """Runs the naive estimator for an arbitrary scua (or an rsk).

    Args:
        config: platform to measure.
        scua_core: core hosting the analysed program.
        contender_kind: access type of the rsk contenders.
    """

    def __init__(
        self,
        config: ArchConfig,
        scua_core: int = 0,
        contender_kind: str = "load",
    ) -> None:
        self.config = config
        self.scua_core = scua_core
        self.contender_kind = contender_kind
        self.runner = ExperimentRunner(config)

    def estimate(self, scua: Program) -> NaiveEstimate:
        """Apply ``det / nr`` to ``scua`` run against ``Nc - 1`` rsk contenders."""
        isolation = self.runner.run_isolation(scua, self.scua_core)
        if isolation.bus_requests == 0:
            raise MethodologyError(
                f"scua {scua.name!r} issued no bus requests; det/nr is undefined"
            )
        contended = self.runner.run_against_rsk(scua, self.scua_core, kind=self.contender_kind)
        det = contended.slowdown_versus(isolation)
        return NaiveEstimate(
            ubdm=det / isolation.bus_requests,
            det=det,
            requests=isolation.bus_requests,
            isolation_time=isolation.execution_time,
            contended_time=contended.execution_time,
            scua_name=scua.name,
        )

    def estimate_with_rsk_as_scua(self, iterations: int = 80) -> NaiveEstimate:
        """Section 3.2's variant: the scua is itself an rsk (finite copy)."""
        scua = build_rsk(
            self.config,
            self.scua_core,
            kind=self.contender_kind,
            iterations=iterations,
        )
        return self.estimate(scua)
