"""Unit tests for the address-layout helpers used by the kernel generators."""

from __future__ import annotations

import pytest

from repro.config import CacheConfig, reference_config
from repro.errors import ProgramError
from repro.kernels.layout import (
    CORE_REGION_BYTES,
    core_address_space,
    footprint_fits_l2_partition,
    same_set_addresses,
)


class TestCoreAddressSpace:
    def test_regions_are_disjoint(self):
        spaces = [core_address_space(core) for core in range(4)]
        for first, second in zip(spaces, spaces[1:]):
            assert first.data_limit <= second.data_base

    def test_code_bases_are_distinct(self):
        bases = {core_address_space(core).code_base for core in range(4)}
        assert len(bases) == 4

    def test_region_size(self):
        space = core_address_space(0)
        assert space.data_limit - space.data_base == CORE_REGION_BYTES

    def test_negative_core_rejected(self):
        with pytest.raises(ProgramError):
            core_address_space(-1)


class TestSameSetAddresses:
    def test_addresses_collide_in_the_target_cache(self):
        cache = CacheConfig(size_bytes=16 * 1024, ways=4, line_size=32)
        addresses = same_set_addresses(cache, 5, base=0x1000_0000)
        shift = cache.line_size.bit_length() - 1
        indices = {(addr >> shift) & (cache.num_sets - 1) for addr in addresses}
        assert len(indices) == 1

    def test_stride_matches_cache_geometry(self):
        cache = CacheConfig(size_bytes=16 * 1024, ways=4, line_size=32)
        addresses = same_set_addresses(cache, 3)
        assert addresses[1] - addresses[0] == cache.same_set_stride

    def test_base_rounded_to_line(self):
        cache = CacheConfig(size_bytes=1024, ways=2, line_size=32)
        addresses = same_set_addresses(cache, 2, base=0x101)
        assert addresses[0] == 0x100

    def test_count_must_be_positive(self):
        cache = CacheConfig(size_bytes=1024, ways=2, line_size=32)
        with pytest.raises(ProgramError):
            same_set_addresses(cache, 0)

    def test_distinct_lines(self):
        cache = CacheConfig(size_bytes=16 * 1024, ways=4, line_size=32)
        addresses = same_set_addresses(cache, 8)
        assert len(set(addresses)) == 8


class TestFootprintCheck:
    def test_rsk_footprint_fits_reference_partition(self):
        config = reference_config()
        addresses = same_set_addresses(config.dl1, config.dl1.ways + 1, base=0x1000_0000)
        assert footprint_fits_l2_partition(config, addresses)

    def test_oversized_footprint_rejected(self):
        config = reference_config()
        # More same-L2-set lines than a single L2 way can hold.
        l2 = config.l2.cache
        addresses = [0x1000_0000 + index * l2.same_set_stride for index in range(8)]
        assert not footprint_fits_l2_partition(config, addresses)
