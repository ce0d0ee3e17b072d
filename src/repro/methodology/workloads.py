"""Randomly composed multiprogrammed workloads (the Figure 6(a) campaign).

The paper's first evaluation experiment runs "8 randomly generated 4-task
workloads with EEMBC benchmarks" and histograms how many contenders are ready
whenever the task in core 0 accesses the bus, contrasting that with a
workload of four rsk.  This module builds such campaigns from the synthetic
EEMBC substitute of :mod:`repro.kernels.synthetic`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..config import ArchConfig
from ..errors import MethodologyError
from ..kernels.synthetic import build_synthetic_kernel, synthetic_kernel_names

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..analysis.contention import ContenderHistogram
    from ..sim.isa import Program


@dataclass(frozen=True)
class WorkloadRun:
    """One multiprogrammed run and its contender histogram."""

    task_names: Tuple[str, ...]
    observed_core: int
    histogram: ContenderHistogram
    execution_time: int
    bus_utilisation: float


@dataclass(frozen=True)
class WorkloadCampaignResult:
    """Outcome of a whole campaign of random workloads."""

    runs: List[WorkloadRun]

    def aggregated_counts(self) -> Dict[int, int]:
        """Sum of the per-run contender histograms (the Figure 6(a) bars)."""
        totals: Dict[int, int] = {}
        for run in self.runs:
            for contenders, count in run.histogram.counts.items():
                totals[contenders] = totals.get(contenders, 0) + count
        return totals

    def fraction_with_at_most(self, contenders: int) -> float:
        """Aggregate fraction of requests that found at most ``contenders`` ready."""
        totals = self.aggregated_counts()
        total_requests = sum(totals.values())
        if total_requests == 0:
            return 0.0
        matching = sum(count for value, count in totals.items() if value <= contenders)
        return matching / total_requests


def random_workloads(
    num_workloads: int,
    tasks_per_workload: int,
    seed: int = 2015,
    names: Optional[Sequence[str]] = None,
) -> List[Tuple[str, ...]]:
    """Draw random task combinations from the synthetic suite.

    Args:
        num_workloads: how many workloads to generate (the paper uses 8).
        tasks_per_workload: tasks per workload (the paper uses 4, one per core).
        seed: RNG seed; the same seed always yields the same campaign.
        names: pool of kernel names to draw from (defaults to the full suite).
    """
    if num_workloads < 1 or tasks_per_workload < 1:
        raise MethodologyError("workload campaign sizes must be positive")
    pool = list(names) if names is not None else list(synthetic_kernel_names())
    if not pool:
        raise MethodologyError("the synthetic kernel pool is empty")
    rng = random.Random(seed)
    workloads = []
    for _ in range(num_workloads):
        workloads.append(tuple(rng.choice(pool) for _ in range(tasks_per_workload)))
    return workloads


def build_workload_programs(
    config: ArchConfig,
    task_names: Sequence[str],
    observed_core: int,
    observed_iterations: int,
    seed: int,
) -> List[Optional[Program]]:
    """Map ``task_names`` onto cores; the observed task gets a finite loop count.

    Cores beyond ``len(task_names)`` stay idle, which is how campaigns sweep
    the number of contenders on a fixed platform.
    """
    if len(task_names) > config.num_cores:
        raise MethodologyError(f"workload has {len(task_names)} tasks for {config.num_cores} cores")
    programs: List[Optional[Program]] = [None] * config.num_cores
    for core, name in enumerate(task_names):
        if core == observed_core:
            programs[core] = build_synthetic_kernel(
                config, name, core, iterations=observed_iterations, seed=seed
            )
        else:
            # Contender tasks must not finish before the observed one.
            programs[core] = build_synthetic_kernel(
                config, name, core, iterations=None, seed=seed
            ).with_iterations(None)
    return programs


def run_single_workload(
    config: ArchConfig,
    task_names: Sequence[str],
    observed_core: int = 0,
    observed_iterations: int = 30,
    seed: int = 2015,
) -> WorkloadRun:
    """Run one multiprogrammed workload and histogram its ready contenders.

    This is the simulation primitive behind both the legacy serial campaign
    and the parallel campaign engine (:mod:`repro.campaign`): one workload,
    one traced run, one :class:`WorkloadRun`.
    """
    from ..analysis.contention import contender_histogram
    from ..sim.system import System

    programs = build_workload_programs(
        config, task_names, observed_core, observed_iterations, seed=seed
    )
    system = System(
        config,
        programs,
        trace=True,
        preload_l2=True,
        preload_il1=True,
        preload_dl1=True,
    )
    result = system.run(observed_cores=[observed_core])
    histogram = contender_histogram(result.trace, observed_core, config.num_cores)
    return WorkloadRun(
        task_names=tuple(task_names),
        observed_core=observed_core,
        histogram=histogram,
        execution_time=result.execution_time(observed_core),
        bus_utilisation=result.pmc.bus_utilisation(),
    )


def run_workload_campaign(
    config: ArchConfig,
    num_workloads: int = 8,
    observed_core: int = 0,
    observed_iterations: int = 30,
    seed: int = 2015,
    names: Optional[Sequence[str]] = None,
    runner: Optional[object] = None,
) -> WorkloadCampaignResult:
    """Run the Figure 6(a) campaign with EEMBC-like synthetic workloads.

    Every workload maps one synthetic task per core; the task on
    ``observed_core`` runs to completion while the histogram of ready
    contenders is collected from the request trace.

    Args:
        runner: optional :class:`repro.campaign.ParallelRunner` to fan the
            workloads out over worker processes (and reuse its result cache).
            ``None`` keeps the historical in-process serial execution; both
            paths produce bit-identical results.
    """
    workloads = random_workloads(num_workloads, config.num_cores, seed=seed, names=names)
    if runner is not None:
        # Imported here: repro.campaign.spec imports this module at load time.
        from ..campaign.runner import workload_run_from_record
        from ..campaign.spec import workload_campaign_descriptors

        descriptors = workload_campaign_descriptors(
            config,
            workloads,
            observed_core=observed_core,
            observed_iterations=observed_iterations,
            seed=seed,
        )
        outcome = runner.run(descriptors)
        return WorkloadCampaignResult(
            runs=[workload_run_from_record(record) for record in outcome.records]
        )
    runs: List[WorkloadRun] = []
    for index, task_names in enumerate(workloads):
        runs.append(
            run_single_workload(
                config,
                task_names,
                observed_core=observed_core,
                observed_iterations=observed_iterations,
                seed=seed + index,
            )
        )
    return WorkloadCampaignResult(runs=runs)


def run_rsk_reference_workload(
    config: ArchConfig,
    observed_core: int = 0,
    iterations: int = 150,
    kind: str = "load",
) -> WorkloadRun:
    """Run the contrast case of Figure 6(a): every core executes an rsk.

    The observed core runs a finite rsk copy; the other cores run infinite
    rsk contenders.  Under this saturating workload nearly every request
    finds all other cores with a pending request.
    """
    from ..analysis.contention import contender_histogram
    from ..kernels.rsk import build_rsk
    from ..sim.system import System

    programs: List[Optional[Program]] = [None] * config.num_cores
    programs[observed_core] = build_rsk(config, observed_core, kind=kind, iterations=iterations)
    for core in range(config.num_cores):
        if core != observed_core:
            programs[core] = build_rsk(config, core, kind=kind, iterations=None)
    system = System(config, programs, trace=True, preload_l2=True, preload_il1=True)
    result = system.run(observed_cores=[observed_core])
    histogram = contender_histogram(result.trace, observed_core, config.num_cores)
    return WorkloadRun(
        task_names=tuple(f"rsk-{kind}" for _ in range(config.num_cores)),
        observed_core=observed_core,
        histogram=histogram,
        execution_time=result.execution_time(observed_core),
        bus_utilisation=result.pmc.bus_utilisation(),
    )
