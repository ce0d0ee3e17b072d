"""Randomly composed multiprogrammed workloads (the Figure 6(a) campaign).

The paper's first evaluation experiment runs "8 randomly generated 4-task
workloads with EEMBC benchmarks" and histograms how many contenders are ready
whenever the task in core 0 accesses the bus, contrasting that with a
workload of four rsk.  This module only composes such workloads from the
synthetic EEMBC substitute of :mod:`repro.kernels.synthetic`: which tasks
share a platform (:func:`random_workloads`) and the program each core runs
(:func:`build_workload_programs`).  Running them is the campaign engine's
job: :class:`repro.campaign.CampaignSpec` expands the grid, and each summary
bucket of :func:`repro.campaign.summarize_records` holds the aggregated
histogram of the workloads and of the rsk contrast run.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..config import ArchConfig
from ..errors import MethodologyError
from ..kernels.synthetic import build_synthetic_kernel, synthetic_kernel_names

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..sim.isa import Program


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
