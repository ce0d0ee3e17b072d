"""Unit tests for the set-associative cache and its way-partitioned variant."""

from __future__ import annotations

import pytest

from repro.config import CacheConfig
from repro.errors import ConfigurationError, SimulationError
from repro.sim.cache import SetAssociativeCache, WayPartitionedCache


def small_cache(ways: int = 2, sets: int = 4, line: int = 32, **kwargs) -> SetAssociativeCache:
    config = CacheConfig(size_bytes=ways * sets * line, ways=ways, line_size=line, **kwargs)
    return SetAssociativeCache(config, name="test")


class TestAddressHelpers:
    def test_line_address_masks_offset(self):
        cache = small_cache()
        assert cache.line_address(0x105) == 0x100

    def test_set_index_wraps(self):
        cache = small_cache(ways=2, sets=4, line=32)
        assert cache.set_index(0x00) == 0
        assert cache.set_index(0x20) == 1
        assert cache.set_index(0x80) == 0

    def test_same_set_stride_addresses_collide(self):
        cache = small_cache(ways=2, sets=4, line=32)
        stride = cache.config.same_set_stride
        indices = {cache.set_index(base) for base in range(0, 4 * stride, stride)}
        assert indices == {0}

    def test_tags_differ_for_same_set_addresses(self):
        cache = small_cache(ways=2, sets=4, line=32)
        stride = cache.config.same_set_stride
        assert cache.tag(0) != cache.tag(stride)


class TestLookupAndFill:
    def test_miss_then_fill_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0x100)
        cache.fill(0x100)
        assert cache.lookup(0x100)

    def test_lookup_does_not_allocate(self):
        cache = small_cache()
        cache.lookup(0x100)
        assert not cache.contains(0x100)

    def test_contains_has_no_side_effects_on_stats(self):
        cache = small_cache()
        cache.fill(0x100)
        before = cache.stats.accesses
        cache.contains(0x100)
        assert cache.stats.accesses == before

    def test_fill_same_line_twice_does_not_evict(self):
        cache = small_cache()
        cache.fill(0x100)
        assert cache.fill(0x100) is None
        assert cache.occupancy() == 1

    def test_eviction_returns_victim_line_address(self):
        cache = small_cache(ways=2, sets=4, line=32)
        stride = cache.config.same_set_stride
        cache.fill(0)
        cache.fill(stride)
        victim = cache.fill(2 * stride)
        assert victim == 0

    def test_lru_evicts_least_recently_used(self):
        cache = small_cache(ways=2, sets=4, line=32)
        stride = cache.config.same_set_stride
        cache.fill(0)
        cache.fill(stride)
        cache.lookup(0)  # touch line 0, making `stride` the LRU victim
        victim = cache.fill(2 * stride)
        assert victim == stride
        assert cache.contains(0)

    def test_fifo_ignores_recency(self):
        cache = small_cache(ways=2, sets=4, line=32, replacement="fifo")
        stride = cache.config.same_set_stride
        cache.fill(0)
        cache.fill(stride)
        cache.lookup(0)  # touching must not protect line 0 under FIFO
        victim = cache.fill(2 * stride)
        assert victim == 0

    def test_rsk_pattern_misses_forever(self):
        """W + 1 same-set lines accessed cyclically never hit under LRU."""
        cache = small_cache(ways=4, sets=8, line=32)
        stride = cache.config.same_set_stride
        addresses = [index * stride for index in range(5)]
        hits = 0
        for _ in range(10):
            for addr in addresses:
                if cache.lookup(addr):
                    hits += 1
                else:
                    cache.fill(addr)
        assert hits == 0

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    def test_record_reads_equals_one_lookup_per_address(self, replacement):
        """Batched read hits over repeated lines leave the counters, the
        stamps and the changed sets that one lookup per address leaves."""
        caches = [small_cache(replacement=replacement) for _ in range(2)]
        stride = caches[0].config.same_set_stride
        for cache in caches:
            for addr in (0x00, stride, 0x20, 0x60):
                cache.fill(addr)
        addresses = [0x00, 0x24, stride + 4, 0x08, 0x60, 0x20, stride, 0x04]
        one_by_one, batched = caches
        assert all(one_by_one.lookup(addr) for addr in addresses)
        batched.record_reads(addresses)
        for cache in caches:
            cache.fill(2 * stride)
        state = [
            (cache.stats, cache._stamp, cache._touched, cache.resident_lines(), cache._sets)
            for cache in caches
        ]
        assert state[0] == state[1]
        assert batched.stats.read_hits == len(addresses)

    def test_within_capacity_pattern_always_hits_after_warmup(self):
        cache = small_cache(ways=4, sets=8, line=32)
        stride = cache.config.same_set_stride
        addresses = [index * stride for index in range(4)]
        for addr in addresses:
            cache.lookup(addr)
            cache.fill(addr)
        assert all(cache.lookup(addr) for addr in addresses)

    def test_occupancy_and_resident_lines(self):
        cache = small_cache()
        cache.fill(0x100)
        cache.fill(0x200)
        assert cache.occupancy() == 2
        assert cache.resident_lines() == (0x100, 0x200)

    def test_invalidate_removes_line(self):
        cache = small_cache()
        cache.fill(0x100)
        assert cache.invalidate(0x100)
        assert not cache.contains(0x100)
        assert not cache.invalidate(0x100)

    def test_flush_empties_cache_but_keeps_stats(self):
        cache = small_cache()
        cache.lookup(0x100)
        cache.fill(0x100)
        cache.flush()
        assert cache.occupancy() == 0
        assert cache.stats.read_misses == 1

    def test_ways_used_per_set(self):
        cache = small_cache(ways=2, sets=4, line=32)
        stride = cache.config.same_set_stride
        cache.fill(0)
        cache.fill(stride)
        assert cache.ways_used(0) == 2
        assert cache.ways_used(32) == 0


class TestGenerationAndPlans:
    """The generation counts changes of the resident set, and a lookup plan
    taken at one generation replays exactly what the batched lookups do."""

    def test_generation_changes_with_the_resident_set(self):
        cache = small_cache(ways=2, sets=4, line=32)
        stride = cache.config.same_set_stride
        changes = []

        def changed(action):
            before = cache.generation
            action()
            changes.append(cache.generation != before)

        changed(lambda: cache.fill(0))  # new line
        changed(lambda: cache.fill(stride))  # new line
        changed(lambda: cache.lookup(0))  # hit
        changed(lambda: cache.lookup(0x40))  # miss, no allocation
        changed(lambda: cache.lookup(0, is_write=True))  # write hit
        changed(lambda: cache.fill(0))  # refill of a present line
        changed(lambda: cache.record_hits(0, 4, 4))
        changed(lambda: cache.record_reads([0, stride]))
        changed(lambda: cache.fill(2 * stride))  # new line and an eviction
        changed(lambda: cache.invalidate(0x40))  # nothing to remove
        changed(lambda: cache.invalidate(2 * stride))
        changed(cache.flush)
        changed(cache.flush)  # already empty
        assert changes == [
            True, True, False, False, False, False, False, False, True, False, True, True, False,
        ]  # fmt: skip

    def test_partitioned_fill_changes_the_generation(self):
        cache = WayPartitionedCache(
            CacheConfig(size_bytes=4 * 4 * 32, ways=4, line_size=32), {0: [0, 1], 1: [2, 3]}
        )
        before = cache.generation
        cache.fill_for(0, 0x100)
        assert cache.generation != before
        before = cache.generation
        cache.fill_for(1, 0x100)  # present: a refill
        assert cache.generation == before

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    def test_applied_plans_leave_what_the_batched_lookups_leave(self, replacement):
        """Planned at one point, applied later after other hits: the same
        counters, stamps and changed sets as the batched calls made then."""
        caches = [small_cache(ways=2, sets=4, line=32, replacement=replacement) for _ in range(2)]
        stride = caches[0].config.same_set_stride
        for cache in caches:
            for addr in (0x00, 0x20, 0x40, stride):
                cache.fill(addr)
            cache.steady_key(0)  # clears the changed sets
        batched, planned = caches
        hits = planned.plan_hits(0x08, 19, 4)  # 0x08 .. 0x50: three lines
        reads = planned.plan_reads([0x00, stride + 4, 0x24, 0x04, stride])
        for cache in caches:
            cache.lookup(0x40)
        batched.record_hits(0x08, 19, 4)
        batched.record_reads([0x00, stride + 4, 0x24, 0x04, stride])
        planned.apply_plan(hits)
        planned.apply_plan(reads)
        state = [
            (cache.stats, cache._stamp, cache._touched, cache._sets, cache.generation)
            for cache in caches
        ]
        assert state[0] == state[1]
        assert planned.stats.read_hits == 1 + 19 + 5

    def test_plan_of_no_lookups_changes_nothing(self):
        cache = small_cache()
        cache.fill(0)
        plan = cache.plan_hits(0, 0, 4)
        cache.apply_plan(plan)
        assert plan == (0, ())
        assert (cache.stats.read_hits, cache._stamp) == (0, 1)


class TestStats:
    def test_read_and_write_counters(self):
        cache = small_cache()
        cache.lookup(0x100)                 # read miss
        cache.fill(0x100)
        cache.lookup(0x100)                 # read hit
        cache.lookup(0x100, is_write=True)  # write hit
        cache.lookup(0x200, is_write=True)  # write miss
        stats = cache.stats
        assert stats.read_misses == 1
        assert stats.read_hits == 1
        assert stats.write_hits == 1
        assert stats.write_misses == 1
        assert stats.accesses == 4
        assert stats.misses == 2

    def test_hit_rate(self):
        cache = small_cache()
        cache.fill(0x100)
        cache.lookup(0x100)
        cache.lookup(0x200)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_of_untouched_cache_is_zero(self):
        assert small_cache().stats.hit_rate == 0.0

    def test_fill_and_eviction_counters(self):
        cache = small_cache(ways=1, sets=1, line=32)
        cache.fill(0x00)
        cache.fill(0x20)
        assert cache.stats.fills == 2
        assert cache.stats.evictions == 1

    def test_stats_reset(self):
        cache = small_cache()
        cache.lookup(0x100)
        cache.stats.reset()
        assert cache.stats.accesses == 0

    def test_write_back_marks_dirty_on_write_hit(self):
        cache = small_cache(write_policy="write_back")
        cache.fill(0x100)
        cache.lookup(0x100, is_write=True)
        # The line stays resident; dirtiness is internal but must not crash
        # eviction bookkeeping.
        stride = cache.config.same_set_stride
        cache.fill(0x100 + stride)
        cache.fill(0x100 + 2 * stride)
        assert cache.stats.evictions == 1


class TestWayPartitionedCache:
    def make(self, ways: int = 4, sets: int = 4) -> WayPartitionedCache:
        config = CacheConfig(size_bytes=ways * sets * 32, ways=ways, line_size=32, hit_latency=2)
        partitions = {0: (0, 1), 1: (2, 3)}
        return WayPartitionedCache(config, partitions, name="l2")

    def test_partition_of_returns_assigned_ways(self):
        cache = self.make()
        assert cache.partition_of(0) == (0, 1)
        assert cache.partition_of(1) == (2, 3)

    def test_partition_of_unknown_owner(self):
        with pytest.raises(SimulationError):
            self.make().partition_of(5)

    def test_empty_partition_rejected(self):
        config = CacheConfig(size_bytes=4 * 4 * 32, ways=4, line_size=32)
        with pytest.raises(ConfigurationError):
            WayPartitionedCache(config, {0: ()})

    def test_out_of_range_way_rejected(self):
        config = CacheConfig(size_bytes=4 * 4 * 32, ways=4, line_size=32)
        with pytest.raises(ConfigurationError):
            WayPartitionedCache(config, {0: (7,)})

    def test_owner_eviction_stays_inside_partition(self):
        cache = self.make()
        stride = cache.config.same_set_stride
        # Owner 0 can hold two same-set lines; the third fill evicts one of its own.
        cache.fill_for(0, 0)
        cache.fill_for(0, stride)
        cache.fill_for(1, 2 * stride)
        victim = cache.fill_for(0, 3 * stride)
        assert victim in (0, stride)
        assert cache.contains(2 * stride), "the other owner's line must survive"

    def test_hits_across_partitions_are_visible(self):
        cache = self.make()
        cache.fill_for(0, 0x40)
        assert cache.lookup(0x40)

    def test_refill_of_resident_line_keeps_it(self):
        cache = self.make()
        cache.fill_for(0, 0x40)
        assert cache.fill_for(0, 0x40) is None

    def test_plain_fill_is_rejected(self):
        with pytest.raises(SimulationError):
            self.make().fill(0x40)
