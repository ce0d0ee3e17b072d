"""Tests for the random multiprogrammed workloads and the Figure 6(a) campaign."""

from __future__ import annotations

import pytest

from repro.campaign import KIND_RSK, KIND_SYNTHETIC, CampaignSpec, ParallelRunner
from repro.config import reference_config, small_config
from repro.errors import MethodologyError
from repro.kernels.synthetic import synthetic_kernel_names
from repro.methodology.workloads import random_workloads


class TestRandomWorkloads:
    def test_sizes_respected(self):
        workloads = random_workloads(8, 4, seed=1)
        assert len(workloads) == 8
        assert all(len(workload) == 4 for workload in workloads)

    def test_deterministic_for_seed(self):
        assert random_workloads(5, 4, seed=3) == random_workloads(5, 4, seed=3)

    def test_different_seeds_differ(self):
        assert random_workloads(5, 4, seed=3) != random_workloads(5, 4, seed=4)

    def test_names_come_from_pool(self):
        pool = ("a2time", "matrix")
        workloads = random_workloads(4, 3, seed=0, names=pool)
        assert all(name in pool for workload in workloads for name in workload)

    def test_default_pool_is_full_suite(self):
        workloads = random_workloads(30, 4, seed=0)
        used = {name for workload in workloads for name in workload}
        assert used.issubset(set(synthetic_kernel_names()))
        assert len(used) > 5

    def test_invalid_sizes_rejected(self):
        with pytest.raises(MethodologyError):
            random_workloads(0, 4)
        with pytest.raises(MethodologyError):
            random_workloads(4, 0)

    def test_empty_pool_rejected(self):
        with pytest.raises(MethodologyError):
            random_workloads(1, 1, names=())


@pytest.fixture(scope="module")
def ref_outcome():
    """Figure 6(a) on the campaign engine: three random workloads (the dark
    bars) and the rsk reference run (the light bars) of one ``ref`` grid
    point."""
    spec = CampaignSpec(
        presets=("ref",), seeds=(7,), num_workloads=3, iterations=8, rsk_iterations=100
    )
    return ParallelRunner().run(spec.expand())


@pytest.fixture(scope="module")
def ref_bucket(ref_outcome):
    """The summary bucket the Figure 6(a) benchmark reads."""
    return ref_outcome.summary()["per_platform"]["ref/round_robin"]


@pytest.fixture(scope="module")
def small_bucket():
    spec = CampaignSpec(
        presets=("small",), seeds=(1,), num_workloads=2, iterations=4, rsk_iterations=50
    )
    return ParallelRunner().run(spec.expand()).summary()["per_platform"]["small/round_robin"]


def _all_ready_share(bucket, num_cores):
    """Share of the rsk run's requests that found every other core ready."""
    rsk = bucket[KIND_RSK]
    return rsk["aggregated_contenders"].get(str(num_cores - 1), 0) / rsk["total_requests"]


class TestCampaign:
    def test_campaign_runs_requested_number_of_workloads(self, ref_outcome, ref_bucket):
        kinds = [record["kind"] for record in ref_outcome.records]
        assert kinds == [KIND_SYNTHETIC] * 3 + [KIND_RSK]
        assert (ref_bucket[KIND_SYNTHETIC]["runs"], ref_bucket[KIND_RSK]["runs"]) == (3, 1)

    def test_every_run_has_a_histogram(self, ref_outcome):
        for record in ref_outcome.records:
            assert record["metrics"]["contender_total_requests"] > 0
            assert record["metrics"]["execution_time"] > 0

    def test_real_workloads_mostly_find_an_idle_bus(self, ref_bucket):
        """The dark bars: bus empty or one contender most of the time."""
        assert ref_bucket[KIND_SYNTHETIC]["fraction_with_at_most_1"] > 0.5

    def test_aggregated_counts_sum_over_runs(self, ref_outcome, ref_bucket):
        for kind in (KIND_SYNTHETIC, KIND_RSK):
            runs = [record for record in ref_outcome.records if record["kind"] == kind]
            total = sum(record["metrics"]["contender_total_requests"] for record in runs)
            assert ref_bucket[kind]["total_requests"] == total
            assert sum(ref_bucket[kind]["aggregated_contenders"].values()) == total

    def test_campaign_on_small_platform_runs(self, small_bucket):
        assert small_bucket[KIND_SYNTHETIC]["runs"] == 2


class TestRskReferenceWorkload:
    def test_rsk_workload_finds_all_contenders_ready(self, ref_outcome, ref_bucket):
        """The light bars: with 4 rsk nearly every request sees all other
        cores contending, and the bus saturates."""
        assert _all_ready_share(ref_bucket, reference_config().num_cores) > 0.95
        (rsk_record,) = [record for record in ref_outcome.records if record["kind"] == KIND_RSK]
        assert rsk_record["metrics"]["bus_utilisation"] > 0.95

    def test_rsk_workload_on_small_platform(self, small_bucket):
        assert small_bucket[KIND_RSK]["runs"] == 1
        assert _all_ready_share(small_bucket, small_config().num_cores) > 0.9
