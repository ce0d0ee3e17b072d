"""Tests for the partitioned L2 behaviour at system level and the package API."""

from __future__ import annotations

import pytest

import repro
from repro.config import L2Config, reference_config
from repro.errors import SimulationError
from repro.kernels.layout import core_address_space
from repro.kernels.rsk import build_rsk
from repro.sim.isa import Load, Program
from repro.sim.l2 import PartitionedL2
from repro.sim.system import System


class TestPartitionedL2Unit:
    def test_partition_ways_follow_config(self, ref_config):
        l2 = PartitionedL2(ref_config)
        assert l2.partition_ways(0) == (0,)
        assert l2.partition_ways(3) == (3,)

    def test_unpartitioned_l2_uses_all_ways(self):
        config = reference_config(l2=L2Config(partitioned=False))
        l2 = PartitionedL2(config)
        assert l2.partition_ways(2) == (0, 1, 2, 3)

    def test_lookup_and_fill_track_per_core_stats(self, ref_config):
        l2 = PartitionedL2(ref_config)
        assert not l2.lookup(0, 0x1000)
        l2.fill(0, 0x1000)
        assert l2.lookup(0, 0x1000)
        assert l2.per_core[0].hits == 1
        assert l2.per_core[0].misses == 1

    def test_preload_counts_lines(self, ref_config):
        l2 = PartitionedL2(ref_config)
        assert l2.preload(1, [0x0, 0x20, 0x40]) == 3
        assert l2.occupancy() == 3

    def test_invalid_core_rejected(self, ref_config):
        l2 = PartitionedL2(ref_config)
        with pytest.raises(SimulationError):
            l2.lookup(9, 0x0)

    def test_hit_latency_exposed(self, ref_config):
        assert PartitionedL2(ref_config).hit_latency == 6


class TestPartitionInterferenceIsolation:
    def test_one_core_cannot_evict_another_cores_partition(self, ref_config):
        """The property the NGMP partitioning provides: storage isolation."""
        l2 = PartitionedL2(ref_config)
        l2_cache = ref_config.l2.cache
        stride = l2_cache.same_set_stride
        victim_line = 0x0
        l2.fill(0, victim_line)
        # Core 1 hammers the same L2 set with far more lines than one way holds.
        for index in range(1, 20):
            l2.fill(1, index * stride)
        assert l2.contains(victim_line), "core 1 evicted core 0's line despite partitioning"

    def test_system_level_isolation_under_contention(self, ref_config):
        """A co-runner with a large L2 footprint must not add L2 misses (and
        hence DRAM traffic) to the observed core's rsk."""
        scua = build_rsk(ref_config, 0, iterations=30)
        # A contender walking a footprint larger than its own partition.
        space = core_address_space(1)
        hammer_lines = [
            Load(space.data_base + index * ref_config.l2.cache.same_set_stride)
            for index in range(16)
        ]
        hammer = Program(name="hammer", body=tuple(hammer_lines), iterations=None,
                         base_pc=space.code_base)
        system = System(ref_config, [scua, hammer], preload_il1=True, preload_l2=True)
        result = system.run(observed_cores=[0])
        assert result.pmc.core[0].bus_requests == 30 * (ref_config.dl1.ways + 1)
        # The scua's lines were preloaded into its own partition; the hammer
        # cannot evict them, so the scua never reaches DRAM.
        assert system.l2.per_core[0].misses == 0


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_key_entry_points_exposed(self):
        assert callable(repro.reference_config)
        assert callable(repro.UbdEstimator)
        assert callable(repro.ubd_analytical)
        assert repro.reference_config().ubd == 27
