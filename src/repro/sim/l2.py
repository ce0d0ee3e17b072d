"""Way-partitioned shared L2 cache.

The NGMP splits its shared 256KB 4-way L2 so that each core owns one way
(Section 5.1 of the paper); this removes storage interference between cores
and leaves the bus and the memory controller as the only shared resources —
exactly the situation the paper's methodology targets.

:class:`PartitionedL2` is a thin façade over
:class:`repro.sim.cache.WayPartitionedCache` exposing the operations the
memory subsystem needs: a timed lookup, a fill on behalf of a core, and
access statistics per core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import ArchConfig
from ..errors import SimulationError
from .cache import CacheStats, SetAssociativeCache, WayPartitionedCache
from .steady import AdditiveCounters, Counts, Key


@dataclass
class L2CoreStats(AdditiveCounters):
    """Per-core hit/miss counters of the shared L2."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups performed on behalf of the core."""
        return self.hits + self.misses


class PartitionedL2:
    """Shared L2 with optional way partitioning per core.

    Args:
        config: the platform configuration (provides geometry, latency and
            the per-core way assignment).
    """

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        cache_cfg = config.l2.cache
        if config.l2.partitioned:
            partitions = {core: config.l2_ways_for_core(core) for core in range(config.num_cores)}
            self._cache: SetAssociativeCache = WayPartitionedCache(cache_cfg, partitions, name="l2")
            self._partitioned = True
        else:
            self._cache = SetAssociativeCache(cache_cfg, name="l2")
            self._partitioned = False
        self.per_core: Dict[int, L2CoreStats] = {
            core: L2CoreStats() for core in range(config.num_cores)
        }

    @property
    def hit_latency(self) -> int:
        """L2 hit latency in cycles."""
        return self.config.l2.hit_latency

    @property
    def stats(self) -> CacheStats:
        """Aggregate cache statistics (hits, misses, fills, evictions)."""
        return self._cache.stats

    def contains(self, addr: int) -> bool:
        """True if the line holding ``addr`` is resident (no side effects)."""
        return self._cache.contains(addr)

    def lookup(self, core_id: int, addr: int, is_write: bool = False) -> bool:
        """Perform a lookup on behalf of ``core_id`` and return hit/miss."""
        self._check_core(core_id)
        hit = self._cache.lookup(addr, is_write=is_write)
        stats = self.per_core[core_id]
        if is_write:
            stats.writes += 1
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
        return hit

    def fill(self, core_id: int, addr: int, dirty: bool = False) -> Optional[int]:
        """Install the line containing ``addr`` in ``core_id``'s partition.

        Returns the address of the evicted line, or ``None``.
        """
        self._check_core(core_id)
        if self._partitioned:
            assert isinstance(self._cache, WayPartitionedCache)
            return self._cache.fill_for(core_id, addr, dirty=dirty)
        return self._cache.fill(addr, dirty=dirty)

    def preload(self, core_id: int, line_addresses) -> int:
        """Warm the cache with ``line_addresses`` for ``core_id``; return count filled."""
        count = 0
        for addr in line_addresses:
            self.fill(core_id, addr)
            count += 1
        return count

    def partition_ways(self, core_id: int) -> Tuple[int, ...]:
        """Way indices allocated to ``core_id`` (all ways when unpartitioned)."""
        self._check_core(core_id)
        if self._partitioned:
            assert isinstance(self._cache, WayPartitionedCache)
            return self._cache.partition_of(core_id)
        return tuple(range(self.config.l2.cache.ways))

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return self._cache.occupancy()

    def steady_key(self, cycle: int) -> Key:
        """The cache's key, plus the per-core counters."""
        state, counts = self._cache.steady_key(cycle)
        return state, (counts, tuple(stats.steady_key()[1] for stats in self.per_core.values()))

    def steady_advance(self, shift: int, periods: int, before: Counts, after: Counts) -> None:
        self._cache.steady_advance(shift, periods, before[0], after[0])
        for stats, old, new in zip(self.per_core.values(), before[1], after[1]):
            stats.steady_advance(shift, periods, old, new)

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.config.num_cores:
            raise SimulationError(f"invalid core id {core_id} for L2 access")
