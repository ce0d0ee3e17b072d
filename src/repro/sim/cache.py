"""Set-associative cache model with LRU/FIFO replacement.

The model tracks presence and recency only (no data values): the simulator
cares about hit/miss timing, not about functional correctness of loaded
values.  The same class implements the private IL1 and DL1 caches and, with
way masking, the way-partitioned shared L2 (see :mod:`repro.sim.l2`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import CacheConfig
from ..errors import ConfigurationError, SimulationError


@dataclass
class CacheStats:
    """Hit/miss counters kept by every cache instance."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    fills: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def misses(self) -> int:
        """Total number of misses."""
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 when the cache was never accessed."""
        total = self.accesses
        if total == 0:
            return 0.0
        return (self.read_hits + self.write_hits) / total

    def reset(self) -> None:
        """Zero every counter."""
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.fills = 0
        self.evictions = 0


# A resident line is a two-element list ``[stamp, dirty]`` keyed by tag in
# its set's dict.  A plain list (not a dataclass) because line creation and
# stamp updates run for every memory access of a simulation.
_STAMP = 0
_DIRTY = 1


class SetAssociativeCache:
    """A set-associative cache tracking tags and replacement state.

    Args:
        config: geometry and policy of the cache.
        name: label used in error messages and statistics reports.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # {} literal, not dict(): this allocation runs per System build and
        # large geometries make the constructor-call variant measurable.
        self._sets: List[Dict[int, List]] = [{} for _ in range(config.num_sets)]
        self._stamp = 0
        self._line_shift = config.line_size.bit_length() - 1
        self._index_mask = config.num_sets - 1
        # Hot-path constants: lookups/fills run for every instruction of a
        # simulation, so the policy strings and index geometry are resolved
        # once here instead of per access.
        self._index_bits = self._index_mask.bit_length()
        self._lru = config.replacement == "lru"
        self._write_back = config.write_policy == "write_back"

    # ------------------------------------------------------------------ #
    # Address helpers.
    # ------------------------------------------------------------------ #
    def line_address(self, addr: int) -> int:
        """Return the address of the first byte of the line containing ``addr``."""
        return (addr >> self._line_shift) << self._line_shift

    def set_index(self, addr: int) -> int:
        """Return the set index selected by ``addr``."""
        return (addr >> self._line_shift) & self._index_mask

    def tag(self, addr: int) -> int:
        """Return the tag bits of ``addr``."""
        return addr >> self._line_shift >> self._index_bits

    # ------------------------------------------------------------------ #
    # Lookups and fills.
    # ------------------------------------------------------------------ #
    def _next_stamp(self) -> int:
        self._stamp += 1
        return self._stamp

    def contains(self, addr: int) -> bool:
        """Return True if the line holding ``addr`` is present (no side effects)."""
        block = addr >> self._line_shift
        return (block >> self._index_bits) in self._sets[block & self._index_mask]

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Perform one access and return whether it hit.

        Args:
            addr: byte address of the access.
            is_write: True for stores (affects only statistics and dirty bits).

        A hit updates the replacement state (LRU recency); a miss does not
        allocate — callers decide whether and when to call :meth:`fill`,
        because allocation happens only after the line has been fetched over
        the bus.
        """
        block = addr >> self._line_shift
        line_set = self._sets[block & self._index_mask]
        line = line_set.get(block >> self._index_bits)
        if line is not None:
            if self._lru:
                self._stamp += 1
                line[_STAMP] = self._stamp
            if is_write:
                line[_DIRTY] = self._write_back
                self.stats.write_hits += 1
            else:
                self.stats.read_hits += 1
            return True
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        return False

    def fill(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Install the line containing ``addr`` and return the evicted line address.

        Returns ``None`` when no eviction was necessary.  The caller is
        responsible for issuing any write-back traffic for dirty victims.
        """
        block = addr >> self._line_shift
        index = block & self._index_mask
        line_set = self._sets[index]
        tag = block >> self._index_bits
        line = line_set.get(tag)
        if line is not None:
            # Refilling a present line only refreshes its stamp.
            line[_STAMP] = self._next_stamp()
            line[_DIRTY] = line[_DIRTY] or dirty
            return None
        victim_addr: Optional[int] = None
        if len(line_set) >= self.config.ways:
            victim_tag = None
            victim_stamp = None
            for candidate_tag, candidate in line_set.items():
                stamp = candidate[_STAMP]
                if victim_stamp is None or stamp < victim_stamp:
                    victim_stamp = stamp
                    victim_tag = candidate_tag
            del line_set[victim_tag]
            self.stats.evictions += 1
            victim_addr = self._reconstruct_address(victim_tag, index)
        line_set[tag] = [self._next_stamp(), dirty]
        self.stats.fills += 1
        return victim_addr

    def invalidate(self, addr: int) -> bool:
        """Remove the line containing ``addr``; return True if it was present."""
        line_set = self._sets[self.set_index(addr)]
        return line_set.pop(self.tag(addr), None) is not None

    def flush(self) -> None:
        """Empty the cache without touching the statistics counters."""
        for line_set in self._sets:
            line_set.clear()

    def _reconstruct_address(self, tag: int, index: int) -> int:
        return ((tag << self._index_mask.bit_length() | index) << self._line_shift)

    # ------------------------------------------------------------------ #
    # Introspection (used by tests and reports).
    # ------------------------------------------------------------------ #
    def occupancy(self) -> int:
        """Total number of valid lines currently stored."""
        return sum(len(line_set) for line_set in self._sets)

    def resident_lines(self) -> Tuple[int, ...]:
        """Sorted tuple of the line addresses currently resident."""
        lines = []
        for index, line_set in enumerate(self._sets):
            for tag in line_set:
                lines.append(self._reconstruct_address(tag, index))
        return tuple(sorted(lines))

    def ways_used(self, addr: int) -> int:
        """Number of valid lines in the set selected by ``addr``."""
        return len(self._sets[self.set_index(addr)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} "
            f"{self.config.size_bytes}B/{self.config.ways}w/{self.config.line_size}B>"
        )


class WayPartitionedCache(SetAssociativeCache):
    """A set-associative cache whose ways are statically partitioned.

    Each partition owner (a core identifier) is restricted to a subset of the
    ways in every set, which is how the NGMP splits its shared L2 (one way per
    core).  Lookups hit on a line regardless of which partition installed it
    (the partition restricts *allocation*, mirroring way-partitioning
    hardware), but evictions only ever target the owner's ways.
    """

    def __init__(
        self,
        config: CacheConfig,
        partitions: Dict[int, Sequence[int]],
        name: str = "l2",
    ) -> None:
        super().__init__(config, name=name)
        self._partitions: Dict[int, Tuple[int, ...]] = {}
        for owner, ways in partitions.items():
            ways_tuple = tuple(sorted(set(ways)))
            if not ways_tuple:
                raise ConfigurationError(f"partition for owner {owner} is empty")
            for way in ways_tuple:
                if not 0 <= way < config.ways:
                    raise ConfigurationError(
                        f"partition way {way} out of range for {config.ways}-way cache"
                    )
            self._partitions[owner] = ways_tuple
        # Track which way each resident line occupies: set index -> tag -> way.
        self._line_way: List[Dict[int, int]] = [{} for _ in range(config.num_sets)]

    def partition_of(self, owner: int) -> Tuple[int, ...]:
        """Return the ways assigned to ``owner``."""
        try:
            return self._partitions[owner]
        except KeyError as exc:
            raise SimulationError(f"no L2 partition defined for owner {owner}") from exc

    def fill_for(self, owner: int, addr: int, dirty: bool = False) -> Optional[int]:
        """Install a line on behalf of ``owner`` inside its way partition."""
        ways = self.partition_of(owner)
        index = self.set_index(addr)
        tag = self.tag(addr)
        line_set = self._sets[index]
        way_map = self._line_way[index]
        line = line_set.get(tag)
        if line is not None:
            line[_STAMP] = self._next_stamp()
            line[_DIRTY] = line[_DIRTY] or dirty
            return None
        used = {way_map[t]: t for t in line_set if way_map.get(t) is not None}
        free_ways = [w for w in ways if w not in used]
        victim_addr: Optional[int] = None
        if free_ways:
            chosen_way = free_ways[0]
        else:
            # Evict the least recently used line among the owner's ways.
            candidates = [(line_set[t][_STAMP], t, w) for w, t in used.items() if w in ways]
            if not candidates:
                raise SimulationError(f"partition for owner {owner} has no resident lines to evict")
            _, victim_tag, chosen_way = min(candidates)
            del line_set[victim_tag]
            del way_map[victim_tag]
            self.stats.evictions += 1
            victim_addr = self._reconstruct_address(victim_tag, index)
        line_set[tag] = [self._next_stamp(), dirty]
        way_map[tag] = chosen_way
        self.stats.fills += 1
        return victim_addr

    def fill(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Unrestricted fills are not meaningful for a partitioned cache."""
        raise SimulationError(
            "WayPartitionedCache requires fill_for(owner, addr); use fill_for instead"
        )
