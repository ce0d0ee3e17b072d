"""Campaign specifications and picklable run descriptors.

A *campaign* is the paper's experimental unit: hundreds of contended
simulation runs swept over platforms, workloads, contender counts, arbiters
and seeds (Section 5 runs "8 randomly generated 4-task workloads" per
platform, plus rsk reference workloads, for every figure).  This module
declares such sweeps:

* :class:`RunDescriptor` — one fully specified simulation run.  Descriptors
  are frozen dataclasses of frozen dataclasses, so they pickle cleanly across
  ``ProcessPoolExecutor`` boundaries and hash stably for the result cache.
* :class:`CampaignSpec` — the grid (preset x arbiter x contender count x
  seed x workload) that expands deterministically into descriptors.

Determinism contract: expanding the same spec always yields the same
descriptors in the same order, and a descriptor fully determines its
simulation result — which is what makes parallel execution and content-
addressed caching safe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..config import ArchConfig, TopologyConfig, _known_engines, canonical_digest, get_preset
from ..errors import MethodologyError, ReproError
from ..kernels.synthetic import synthetic_kernel_names
from ..methodology.workloads import random_workloads

#: Version stamp embedded in digests and artifacts; bump when the meaning of
#: a descriptor field or the result record layout changes, so stale cache
#: entries and artifacts are never misread.  Version 2: configurations carry
#: a ``topology`` section (shared-resource chaining) and records a
#: ``topology`` field.  Version 3: the topology section grows the
#: ``split_bus`` response-channel parameters (``response_arbitration``,
#: ``response_tdma_slot``), which changes every embedded configuration
#: dictionary and therefore every digest.  Version 4: rsk records carry the
#: per-resource measured-bound fields (``stage_worst_case`` per-resource
#: observed worst cases, ``memory_requests``, isolation ``memory_requests``)
#: and summary buckets carry ``analytical_terms`` plus the per-stage
#: aggregated ``stage_worst_case`` next to ``end_to_end_ubd``.
SCHEMA_VERSION = 4

#: Workload kinds a descriptor can request.
KIND_SYNTHETIC = "synthetic"
KIND_RSK = "rsk"


@dataclass(frozen=True)
class RunDescriptor:
    """One simulation run of a campaign, fully specified and picklable.

    Attributes:
        run_id: position of the run inside its campaign (zero-padded string);
            stable across serial and parallel execution but *excluded* from
            the content digest so identical runs from different campaigns
            share cache entries.
        preset: label of the platform the configuration came from (reporting
            only; the authoritative platform is ``config``).
        config: the complete platform, including any arbiter override.
        kind: ``"synthetic"`` (EEMBC-like multiprogrammed workload) or
            ``"rsk"`` (resource-stressing kernels, the worst-case contenders).
        tasks: synthetic kernel names, one per occupied core, observed task
            first in core order.  For rsk runs the tuple is informational
            (``("rsk-load", ...)``); its length still sets the occupied cores.
        observed_core: core whose execution time and trace are analysed.
        iterations: loop iterations of the observed program.
        seed: seed for the observed/contender synthetic program generators.
        rsk_kind: bus access type of rsk runs (``"load"`` or ``"store"``).
    """

    run_id: str
    preset: str
    config: ArchConfig
    kind: str
    tasks: Tuple[str, ...]
    observed_core: int
    iterations: int
    seed: int
    rsk_kind: str = "load"

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SYNTHETIC, KIND_RSK):
            raise MethodologyError(f"unknown run kind {self.kind!r}")
        if self.rsk_kind not in ("load", "store"):
            raise MethodologyError(f"unknown rsk kind {self.rsk_kind!r}")
        if not self.tasks:
            raise MethodologyError("a run descriptor needs at least one task")
        if len(self.tasks) > self.config.num_cores:
            raise MethodologyError(
                f"run {self.run_id}: {len(self.tasks)} tasks for "
                f"{self.config.num_cores} cores"
            )
        if not 0 <= self.observed_core < len(self.tasks):
            raise MethodologyError(
                f"run {self.run_id}: observed core {self.observed_core} is not "
                f"one of the {len(self.tasks)} occupied cores"
            )
        if self.iterations < 1:
            raise MethodologyError("observed iterations must be positive")

    @property
    def contenders(self) -> int:
        """Number of co-running contender tasks."""
        return len(self.tasks) - 1

    def digest(self) -> str:
        """Content hash identifying this run's *result* (cache key).

        ``run_id``, ``preset`` and the configuration's ``name`` are labels,
        not simulation inputs, so they do not participate; everything that
        can change a single simulated cycle does.  The simulation ``engine``
        is excluded too: every engine is cycle-exact (property-tested), so
        campaigns run with any engine share cache entries.
        """
        config_dict = self.config.to_dict()
        del config_dict["name"]
        del config_dict["engine"]
        return canonical_digest(
            {
                "schema": SCHEMA_VERSION,
                "config": config_dict,
                "kind": self.kind,
                "tasks": list(self.tasks),
                "observed_core": self.observed_core,
                "iterations": self.iterations,
                "seed": self.seed,
                "rsk_kind": self.rsk_kind,
            }
        )


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative grid of runs: preset x arbiter x contenders x seed x workload.

    Attributes:
        presets: platform preset names (``ref``, ``var``, ``small``,
            ``multi_resource``).
        arbiters: bus arbitration policies to sweep; each overrides the
            preset's ``BusConfig.arbitration``.
        topologies: shared-resource topologies to sweep; each overrides the
            *name* of the preset's ``TopologyConfig``, keeping the preset's
            memory-side arbitration parameters.  ``()`` keeps every
            preset's own topology — the backwards-compatible default.
        contender_counts: numbers of co-runners to sweep; ``()`` means the
            platform maximum (``num_cores - 1``), the paper's default.
        seeds: base seeds; each seed draws an independent set of workloads.
        num_workloads: random synthetic workloads per grid point.
        iterations: loop iterations of the observed task.
        include_rsk_reference: also run the rsk contrast workload per grid
            point (the light bars of Figure 6(a)).
        rsk_iterations: loop iterations of the observed rsk.
        kernel_pool: synthetic kernel names to draw from (default full suite).
        engine: simulation engine for every run, any registered name
            (``"event"`` by default; ``"stepped"``, ``"codegen"`` or
            ``"replay"``).  Every engine is cycle-exact, so this never
            changes results or cache keys.
    """

    presets: Tuple[str, ...] = ("ref",)
    arbiters: Tuple[str, ...] = ("round_robin",)
    topologies: Tuple[str, ...] = ()
    contender_counts: Tuple[int, ...] = ()
    seeds: Tuple[int, ...] = (2015,)
    num_workloads: int = 8
    iterations: int = 25
    include_rsk_reference: bool = True
    rsk_iterations: int = 125
    kernel_pool: Optional[Tuple[str, ...]] = None
    engine: str = "event"

    def __post_init__(self) -> None:
        engines = _known_engines()
        if self.engine not in engines:
            raise MethodologyError(
                f"unknown simulation engine {self.engine!r}; registered: {list(engines)}"
            )
        if not self.presets:
            raise MethodologyError("a campaign needs at least one preset")
        if not self.arbiters:
            raise MethodologyError("a campaign needs at least one arbiter")
        for topology in self.topologies:
            try:
                TopologyConfig(name=topology)
            except ReproError as exc:
                raise MethodologyError(f"unknown topology {topology!r}") from exc
        if not self.seeds:
            raise MethodologyError("a campaign needs at least one seed")
        if self.num_workloads < 0:
            raise MethodologyError("num_workloads must be non-negative")
        if self.iterations < 1 or self.rsk_iterations < 1:
            raise MethodologyError("iteration counts must be positive")
        for count in self.contender_counts:
            if count < 1:
                raise MethodologyError("contender counts must be positive")

    def expand(self) -> Tuple[RunDescriptor, ...]:
        """Expand the grid into an ordered tuple of run descriptors."""
        pool = (
            list(self.kernel_pool)
            if self.kernel_pool is not None
            else list(synthetic_kernel_names())
        )
        descriptors: List[RunDescriptor] = []
        for preset in self.presets:
            base = get_preset(preset)
            # () keeps the preset's own topology (None marks "no override").
            topology_axis = self.topologies or (None,)
            for arbiter in self.arbiters:
                for topology in topology_axis:
                    config = base.with_overrides(
                        bus=replace(base.bus, arbitration=arbiter),
                        engine=self.engine,
                    )
                    if topology is not None:
                        config = config.with_topology_name(topology)
                    counts = self.contender_counts or (config.num_cores - 1,)
                    for count in counts:
                        if count >= config.num_cores:
                            raise MethodologyError(
                                f"preset {preset!r} has {config.num_cores} cores; "
                                f"cannot host {count} contenders"
                            )
                        for seed in self.seeds:
                            if self.num_workloads:
                                workloads = random_workloads(
                                    self.num_workloads,
                                    count + 1,
                                    seed=seed,
                                    names=pool,
                                )
                                for index, tasks in enumerate(workloads):
                                    descriptors.append(
                                        RunDescriptor(
                                            run_id=_run_id(len(descriptors)),
                                            preset=preset,
                                            config=config,
                                            kind=KIND_SYNTHETIC,
                                            tasks=tasks,
                                            observed_core=0,
                                            iterations=self.iterations,
                                            seed=seed + index,
                                        )
                                    )
                            if self.include_rsk_reference:
                                descriptors.append(
                                    RunDescriptor(
                                        run_id=_run_id(len(descriptors)),
                                        preset=preset,
                                        config=config,
                                        kind=KIND_RSK,
                                        tasks=tuple("rsk-load" for _ in range(count + 1)),
                                        observed_core=0,
                                        iterations=self.rsk_iterations,
                                        seed=seed,
                                    )
                                )
        if not descriptors:
            raise MethodologyError(
                "campaign expands to zero runs; enable workloads or the rsk reference"
            )
        return tuple(descriptors)


def campaign_digest(digests: Sequence[str]) -> str:
    """Content identity of a campaign: the digest of its ordered run digests.

    Pure function of the expanded descriptors, so serial and parallel
    executions (and re-runs on any machine) agree on it; stamped into the
    ``campaign.json`` manifest.
    """
    return canonical_digest({"schema": SCHEMA_VERSION, "runs": list(digests)})


def _run_id(index: int) -> str:
    return f"{index:05d}"
