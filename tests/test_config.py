"""Unit tests for architecture configuration objects and presets."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.config import (
    ArchConfig,
    BusConfig,
    CacheConfig,
    DramConfig,
    L2Config,
    PRESETS,
    StoreBufferConfig,
    TopologyConfig,
    canonical_digest,
    get_preset,
    multi_resource_config,
    reference_config,
    small_config,
    split_bus_config,
    variant_config,
)
from repro.errors import ConfigurationError


class TestCacheConfig:
    def test_num_sets_reference_dl1(self):
        cache = CacheConfig(size_bytes=16 * 1024, ways=4, line_size=32)
        assert cache.num_sets == 128

    def test_way_size(self):
        cache = CacheConfig(size_bytes=16 * 1024, ways=4, line_size=32)
        assert cache.way_size_bytes == 4 * 1024

    def test_same_set_stride(self):
        cache = CacheConfig(size_bytes=16 * 1024, ways=4, line_size=32)
        assert cache.same_set_stride == 128 * 32

    def test_direct_mapped_allowed(self):
        cache = CacheConfig(size_bytes=1024, ways=1, line_size=32)
        assert cache.num_sets == 32

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=-1, ways=4)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1024, ways=0)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1024, ways=2, line_size=24)

    def test_rejects_size_not_multiple_of_way_times_line(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, ways=4, line_size=32)

    def test_rejects_unknown_replacement(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1024, ways=2, replacement="random")

    def test_rejects_unknown_write_policy(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1024, ways=2, write_policy="write_around")

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1024, ways=2, hit_latency=0)

    def test_fifo_replacement_accepted(self):
        cache = CacheConfig(size_bytes=1024, ways=2, replacement="fifo")
        assert cache.replacement == "fifo"


class TestBusConfig:
    def test_defaults_are_round_robin(self):
        bus = BusConfig()
        assert bus.arbitration == "round_robin"
        assert bus.transfer_latency == 3

    @pytest.mark.parametrize("policy", ["round_robin", "fifo", "fixed_priority", "tdma"])
    def test_all_policies_accepted(self, policy):
        assert BusConfig(arbitration=policy).arbitration == policy

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            BusConfig(arbitration="lottery")

    def test_rejects_zero_transfer_latency(self):
        with pytest.raises(ConfigurationError):
            BusConfig(transfer_latency=0)

    def test_rejects_zero_tdma_slot(self):
        with pytest.raises(ConfigurationError):
            BusConfig(tdma_slot=0)


class TestDramConfig:
    def test_row_hit_latency_composition(self):
        dram = DramConfig(t_cas=9, t_burst=4, controller_overhead=2)
        assert dram.row_hit_latency == 15

    def test_row_miss_latency_composition(self):
        dram = DramConfig(t_rp=9, t_rcd=9, t_cas=9, t_burst=4, controller_overhead=2)
        assert dram.row_miss_latency == 33

    def test_rejects_non_power_of_two_banks(self):
        with pytest.raises(ConfigurationError):
            DramConfig(num_banks=3)

    def test_rejects_zero_timing(self):
        with pytest.raises(ConfigurationError):
            DramConfig(t_cas=0)


class TestStoreBufferConfig:
    def test_default_entries(self):
        assert StoreBufferConfig().entries == 8

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            StoreBufferConfig(entries=0)


class TestArchConfig:
    def test_reference_ubd_is_27(self, ref_config):
        assert ref_config.bus_service_l2_hit == 9
        assert ref_config.ubd == 27

    def test_variant_only_changes_l1_latency(self, ref_config, var_config):
        assert var_config.dl1.hit_latency == 4
        assert var_config.il1.hit_latency == 4
        assert var_config.ubd == ref_config.ubd
        assert var_config.l2 == ref_config.l2

    def test_reference_injection_time(self, ref_config, var_config):
        assert ref_config.expected_rsk_injection_time == 1
        assert var_config.expected_rsk_injection_time == 4

    def test_reference_cache_geometry_matches_paper(self, ref_config):
        assert ref_config.dl1.size_bytes == 16 * 1024
        assert ref_config.dl1.ways == 4
        assert ref_config.dl1.line_size == 32
        assert ref_config.l2.cache.size_bytes == 256 * 1024
        assert ref_config.l2.cache.ways == 4

    def test_l2_way_partitioning_one_way_per_core(self, ref_config):
        ways = [ref_config.l2_ways_for_core(core) for core in range(4)]
        assert ways == [(0,), (1,), (2,), (3,)]

    def test_l2_ways_unpartitioned(self):
        cfg = reference_config(l2=L2Config(partitioned=False))
        assert cfg.l2_ways_for_core(0) == (0, 1, 2, 3)

    def test_l2_ways_invalid_core(self, ref_config):
        with pytest.raises(ConfigurationError):
            ref_config.l2_ways_for_core(7)

    def test_partitioned_l2_needs_enough_ways(self):
        with pytest.raises(ConfigurationError):
            reference_config(num_cores=8)

    def test_with_overrides_returns_new_object(self, ref_config):
        other = ref_config.with_overrides(num_cores=2)
        assert other.num_cores == 2
        assert ref_config.num_cores == 4

    def test_line_size_consistency_enforced(self):
        with pytest.raises(ConfigurationError):
            ArchConfig(
                dl1=CacheConfig(size_bytes=16 * 1024, ways=4, line_size=64),
            )

    def test_describe_contains_key_figures(self, ref_config):
        info = ref_config.describe()
        assert info["ubd"] == 27
        assert info["lbus"] == 9
        assert info["cores"] == 4

    def test_small_config_is_fast_but_valid(self, tiny_config):
        assert tiny_config.num_cores == 3
        assert tiny_config.ubd == (tiny_config.num_cores - 1) * tiny_config.bus_service_l2_hit

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            ArchConfig(num_cores=0)

    def test_rejects_zero_nop_latency(self):
        with pytest.raises(ConfigurationError):
            ArchConfig(nop_latency=0)


class TestPresets:
    def test_preset_names(self):
        assert set(PRESETS) == {"ref", "var", "small", "multi_resource", "split_bus"}

    @pytest.mark.parametrize("name", ["ref", "var", "small", "multi_resource", "split_bus"])
    def test_get_preset_builds(self, name):
        assert get_preset(name).name == name

    def test_get_preset_with_overrides(self):
        cfg = get_preset("ref", num_cores=2)
        assert cfg.num_cores == 2

    def test_get_preset_unknown(self):
        with pytest.raises(ConfigurationError):
            get_preset("p4080")

    def test_factories_accept_overrides(self):
        assert reference_config(freq_mhz=100).freq_mhz == 100
        assert variant_config(freq_mhz=100).freq_mhz == 100
        assert small_config(freq_mhz=100).freq_mhz == 100


class TestBusServiceTimes:
    def test_request_phases_occupy_transfer_plus_l2_and_responses_transfer_only(self, ref_config):
        lbus = ref_config.bus.transfer_latency + ref_config.l2.hit_latency
        assert ref_config.bus_service_l2_hit == lbus
        assert ref_config.bus_service_store == lbus
        assert ref_config.bus_service_miss_request == lbus
        assert ref_config.bus_service_response == ref_config.bus.transfer_latency


class TestTopologyFlags:
    @pytest.mark.parametrize(
        "name, memory_queues, response_channel",
        [
            ("bus_only", False, False),
            ("bus_bank_queues", True, False),
            ("split_bus", True, True),
        ],
    )
    def test_contention_points_of_each_topology(self, name, memory_queues, response_channel):
        topology = TopologyConfig(name=name)
        assert topology.has_memory_queues is memory_queues
        assert topology.has_response_channel is response_channel

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mem_tdma_slot": 0},
            {"response_tdma_slot": 0},
            {"response_arbitration": "lottery"},
        ],
        ids=["zero-memory-slot", "zero-response-slot", "unknown-response-policy"],
    )
    def test_invalid_memory_and_response_parameters_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            TopologyConfig(name="split_bus", **overrides)

    def test_with_topology_name_swaps_only_the_name(self):
        base = split_bus_config(
            topology=TopologyConfig(
                name="split_bus",
                mem_arbitration="round_robin",
                response_arbitration="round_robin",
                response_tdma_slot=5,
            )
        )
        chained = base.with_topology_name("bus_bank_queues")
        assert chained.topology == replace(base.topology, name="bus_bank_queues")
        assert base.topology.name == "split_bus"
        assert chained.with_overrides(topology=base.topology) == base

    @pytest.mark.parametrize(
        "factory, topology",
        [(multi_resource_config, "bus_bank_queues"), (split_bus_config, "split_bus")],
    )
    def test_chained_presets_are_ref_with_another_topology(self, factory, topology):
        config = factory()
        assert config.topology.name == topology
        assert config.topology.mem_arbitration == "fifo"
        assert config.with_overrides(name="ref", topology=TopologyConfig()) == reference_config()


class TestCanonicalDigest:
    def test_digest_ignores_key_order(self):
        assert canonical_digest({"a": 1, "b": [1, 2]}) == canonical_digest({"b": [1, 2], "a": 1})

    def test_digest_is_sha256_of_compact_sorted_json(self):
        expected = hashlib.sha256(b'{"a":1,"b":[1,2]}').hexdigest()
        assert canonical_digest({"b": [1, 2], "a": 1}) == expected
        assert canonical_digest({"b": [2, 1], "a": 1}) != expected
