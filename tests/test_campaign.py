"""Tests for the parallel campaign engine (spec, runner, store, artifacts)."""

from __future__ import annotations

import json
import pickle
from dataclasses import replace

import pytest

from repro.campaign import (
    KIND_RSK,
    KIND_SYNTHETIC,
    MANIFEST_NAME,
    SCHEMA_VERSION,
    CampaignSpec,
    CampaignStreamWriter,
    ParallelRunner,
    ResultStore,
    RunDescriptor,
    ShardTask,
    build_manifest,
    campaign_digest,
    default_shard_size,
    execute_run,
    execute_shard,
    histogram_from_json,
    load_campaign,
    load_manifest,
    load_results,
    load_summary,
    summarize_records,
    write_campaign_artifacts,
    write_manifest,
)
from repro.campaign.runner import _json_histogram, execute_inline, pool_executor, worker_pool
from repro.config import config_from_dict, get_preset, small_config
from repro.errors import AnalysisError, ConfigurationError, MethodologyError
from repro.kernels.synthetic import synthetic_kernel_names
from repro.methodology.workloads import random_workloads
from repro.report.campaign import render_campaign_summary
from repro.sim.trace import clear_trace_cache, global_trace_cache

#: A campaign small enough for unit tests yet covering both run kinds.
TINY_SPEC = CampaignSpec(
    presets=("small",),
    num_workloads=2,
    iterations=4,
    rsk_iterations=20,
)


# --------------------------------------------------------------------------- #
# Configuration serialisation (the campaign engine's transport format).
# --------------------------------------------------------------------------- #


class TestConfigSerialisation:
    def test_round_trip_preserves_equality(self):
        for preset in ("ref", "var", "small"):
            config = get_preset(preset)
            assert config_from_dict(config.to_dict()) == config

    def test_round_trip_survives_json(self):
        config = small_config()
        rebuilt = config_from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        assert rebuilt.digest() == config.digest()

    def test_digest_changes_with_any_field(self):
        config = small_config()
        assert config.digest() != config.with_overrides(num_cores=2).digest()
        assert config.digest() != config.with_overrides(nop_latency=2).digest()

    def test_malformed_dict_rejected(self):
        data = small_config().to_dict()
        del data["bus"]
        with pytest.raises(ConfigurationError):
            config_from_dict(data)


# --------------------------------------------------------------------------- #
# Spec expansion and descriptor digests.
# --------------------------------------------------------------------------- #


class TestCampaignSpec:
    def test_expansion_is_deterministic(self):
        assert TINY_SPEC.expand() == TINY_SPEC.expand()

    def test_grid_size(self):
        spec = CampaignSpec(
            presets=("small", "ref"),
            arbiters=("round_robin", "tdma"),
            seeds=(1, 2, 3),
            num_workloads=2,
        )
        descriptors = spec.expand()
        # presets x arbiters x seeds x (workloads + rsk reference)
        assert len(descriptors) == 2 * 2 * 3 * (2 + 1)
        assert [d.run_id for d in descriptors] == [f"{i:05d}" for i in range(len(descriptors))]

    def test_arbiter_override_lands_in_config(self):
        spec = CampaignSpec(presets=("small",), arbiters=("tdma",), num_workloads=1)
        assert all(d.config.bus.arbitration == "tdma" for d in spec.expand())

    def test_topology_axis_expands_the_grid(self):
        spec = CampaignSpec(
            presets=("small",),
            topologies=("bus_only", "bus_bank_queues"),
            num_workloads=1,
        )
        descriptors = spec.expand()
        # topologies x (workloads + rsk reference)
        assert len(descriptors) == 2 * (1 + 1)
        names = {d.config.topology.name for d in descriptors}
        assert names == {"bus_only", "bus_bank_queues"}
        # Different resource chains must never share cache entries.
        digests = {d.config.topology.name: d.digest() for d in descriptors if d.kind == "rsk"}
        assert digests["bus_only"] != digests["bus_bank_queues"]

    def test_topology_override_keeps_preset_mem_arbitration(self):
        """The axis overrides the topology *name* only: a preset with
        non-default bank-queue arbitration must not be silently reset to
        FIFO banks when --topology selects the same (or another) chain."""
        from repro.config import PRESETS, TopologyConfig, small_config

        PRESETS["_rr_banks"] = lambda **overrides: small_config(
            topology=TopologyConfig(name="bus_bank_queues", mem_arbitration="round_robin"),
            **overrides,
        )
        try:
            spec = CampaignSpec(
                presets=("_rr_banks",),
                topologies=("bus_bank_queues",),
                num_workloads=1,
            )
            for descriptor in spec.expand():
                assert descriptor.config.topology.mem_arbitration == "round_robin"
        finally:
            PRESETS.pop("_rr_banks")

    def test_default_keeps_preset_topology(self):
        spec = CampaignSpec(presets=("multi_resource",), num_workloads=1, iterations=4)
        assert all(d.config.topology.name == "bus_bank_queues" for d in spec.expand())

    def test_unknown_topology_rejected(self):
        with pytest.raises(MethodologyError):
            CampaignSpec(presets=("small",), topologies=("mesh",))

    def test_contender_count_limits_occupied_cores(self):
        spec = CampaignSpec(presets=("small",), contender_counts=(1,), num_workloads=2)
        for descriptor in spec.expand():
            assert len(descriptor.tasks) == 2
            assert descriptor.contenders == 1

    def test_too_many_contenders_rejected(self):
        spec = CampaignSpec(presets=("small",), contender_counts=(3,))
        with pytest.raises(MethodologyError):
            spec.expand()

    def test_empty_campaign_rejected(self):
        spec = CampaignSpec(num_workloads=0, include_rsk_reference=False)
        with pytest.raises(MethodologyError):
            spec.expand()

    def test_digest_ignores_labels_but_not_inputs(self):
        descriptor = TINY_SPEC.expand()[0]
        relabelled = RunDescriptor(
            run_id="99999",
            preset="other-label",
            config=descriptor.config,
            kind=descriptor.kind,
            tasks=descriptor.tasks,
            observed_core=descriptor.observed_core,
            iterations=descriptor.iterations,
            seed=descriptor.seed,
        )
        assert relabelled.digest() == descriptor.digest()
        reseeded = RunDescriptor(
            run_id=descriptor.run_id,
            preset=descriptor.preset,
            config=descriptor.config,
            kind=descriptor.kind,
            tasks=descriptor.tasks,
            observed_core=descriptor.observed_core,
            iterations=descriptor.iterations,
            seed=descriptor.seed + 1,
        )
        assert reseeded.digest() != descriptor.digest()

    def test_digest_ignores_config_name_label(self):
        descriptor = TINY_SPEC.expand()[0]
        relabelled_config = descriptor.config.with_overrides(name="relabelled")
        twin = RunDescriptor(
            run_id=descriptor.run_id,
            preset=descriptor.preset,
            config=relabelled_config,
            kind=descriptor.kind,
            tasks=descriptor.tasks,
            observed_core=descriptor.observed_core,
            iterations=descriptor.iterations,
            seed=descriptor.seed,
        )
        assert twin.digest() == descriptor.digest()

    def test_descriptor_validation(self):
        descriptor = TINY_SPEC.expand()[0]
        with pytest.raises(MethodologyError):
            RunDescriptor(
                run_id="0",
                preset="small",
                config=descriptor.config,
                kind="bogus",
                tasks=descriptor.tasks,
                observed_core=0,
                iterations=1,
                seed=0,
            )
        with pytest.raises(MethodologyError):
            RunDescriptor(
                run_id="0",
                preset="small",
                config=descriptor.config,
                kind="rsk",
                tasks=tuple("rsk" for _ in range(descriptor.config.num_cores + 1)),
                observed_core=0,
                iterations=1,
                seed=0,
            )


# --------------------------------------------------------------------------- #
# Execution: serial/parallel equivalence and caching.
# --------------------------------------------------------------------------- #


class TestParallelRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(MethodologyError):
            ParallelRunner(jobs=0)

    def test_records_follow_descriptor_order(self):
        outcome = ParallelRunner(jobs=1).run(TINY_SPEC.expand())
        assert [r["run_id"] for r in outcome.records] == [d.run_id for d in TINY_SPEC.expand()]
        assert outcome.stats["simulated"] == len(outcome.records)
        assert outcome.stats["cached"] == 0

    def test_parallel_and_serial_artifacts_identical(self, tmp_path):
        descriptors = TINY_SPEC.expand()
        serial = write_campaign_artifacts(
            ParallelRunner(jobs=1).run(descriptors), tmp_path / "serial"
        )
        parallel = write_campaign_artifacts(
            ParallelRunner(jobs=2).run(descriptors), tmp_path / "parallel"
        )
        assert serial.results_path.read_bytes() == parallel.results_path.read_bytes()
        serial_summary = load_summary(serial.summary_path)
        parallel_summary = load_summary(parallel.summary_path)
        del serial_summary["timing"], parallel_summary["timing"]
        assert serial_summary == parallel_summary

    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        descriptors = TINY_SPEC.expand()
        store = ResultStore(tmp_path / "store")
        cold = ParallelRunner(jobs=1, cache=store).run(descriptors)
        assert cold.stats["simulated"] == len(descriptors)
        warm = ParallelRunner(jobs=2, cache=store).run(descriptors)
        assert warm.stats["simulated"] == 0
        assert warm.stats["cached"] == len(descriptors)
        assert warm.records == cold.records

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        descriptors = TINY_SPEC.expand()[:1]
        store = ResultStore(tmp_path / "store")
        ParallelRunner(jobs=1, cache=store).run(descriptors)
        for path in store.directory.glob("*.json"):
            path.write_text("{ not json", encoding="utf-8")
        rerun = ParallelRunner(jobs=1, cache=store).run(descriptors)
        assert rerun.stats["simulated"] == 1
        assert rerun.records[0]["digest"] == descriptors[0].digest()

    def test_cache_entry_under_wrong_name_is_a_miss(self, tmp_path):
        descriptors = TINY_SPEC.expand()[:2]
        ParallelRunner(jobs=1, cache=ResultStore(tmp_path / "store")).run(descriptors)
        first, second = (d.digest() for d in descriptors)
        # A mis-synced copy of the artifacts: the second record under the
        # first name.  Opening the copy adopts only the well-named record.
        copy = tmp_path / "copy"
        copy.mkdir()
        for digest in (first, second):
            (copy / f"{digest}.json").write_bytes(
                (tmp_path / "store" / f"{second}.json").read_bytes()
            )
        rerun = ParallelRunner(jobs=1, cache=ResultStore(copy)).run(descriptors)
        assert rerun.stats["simulated"] == 1
        assert rerun.records[0]["digest"] == first

    def test_duplicate_descriptors_simulated_once(self):
        descriptor = TINY_SPEC.expand()[0]
        twin = RunDescriptor(
            run_id="00001",
            preset=descriptor.preset,
            config=descriptor.config,
            kind=descriptor.kind,
            tasks=descriptor.tasks,
            observed_core=descriptor.observed_core,
            iterations=descriptor.iterations,
            seed=descriptor.seed,
        )
        outcome = ParallelRunner(jobs=1).run([descriptor, twin])
        assert outcome.stats["simulated"] == 1
        first, second = outcome.records
        assert first["run_id"] == "00000" and second["run_id"] == "00001"
        assert {k: v for k, v in first.items() if k != "run_id"} == {
            k: v for k, v in second.items() if k != "run_id"
        }

    def test_rsk_records_report_slowdown_and_delays(self):
        descriptors = [d for d in TINY_SPEC.expand() if d.kind == "rsk"]
        record = execute_run(descriptors[0])
        metrics = record["metrics"]
        assert metrics["slowdown"] == (
            metrics["execution_time"] - metrics["isolation"]["execution_time"]
        )
        assert metrics["slowdown"] > 0
        config = config_from_dict(record["config"])
        assert 0 < metrics["max_contention_delay"] <= config.ubd


# --------------------------------------------------------------------------- #
# Synthetic runs against a plain in-process simulation of each workload.
# --------------------------------------------------------------------------- #


class TestWorkloadCampaignBridge:
    def test_runner_path_matches_legacy_serial_path(self):
        """Worker processes give every synthetic run exactly the record a
        serial loop over the workloads computes in this process: the same
        ``System`` flags (trace on, L2/IL1/DL1 preloaded) and metrics."""
        from repro.analysis.contention import contender_histogram
        from repro.methodology.workloads import build_workload_programs
        from repro.sim.system import System

        spec = CampaignSpec(
            presets=("small",),
            seeds=(7,),
            num_workloads=3,
            iterations=5,
            include_rsk_reference=False,
        )
        descriptors = spec.expand()
        outcome = ParallelRunner(jobs=2).run(descriptors)
        assert len(outcome.records) == len(descriptors) == 3
        for descriptor, record in zip(descriptors, outcome.records):
            config, observed = descriptor.config, descriptor.observed_core
            programs = build_workload_programs(
                config, descriptor.tasks, observed, descriptor.iterations, seed=descriptor.seed
            )
            result = System(
                config,
                programs,
                trace=True,
                preload_l2=True,
                preload_il1=True,
                preload_dl1=True,
            ).run(observed_cores=[observed])
            ready = contender_histogram(result.trace, observed, config.num_cores)
            assert record["metrics"] == {
                "execution_time": result.execution_time(observed),
                "bus_utilisation": result.pmc.bus_utilisation(),
                "contender_histogram": _json_histogram(ready.counts),
                "contender_total_requests": ready.total_requests,
            }


# --------------------------------------------------------------------------- #
# Artifacts and the report renderer.
# --------------------------------------------------------------------------- #


class TestArtifacts:
    def test_load_round_trip(self, tmp_path):
        outcome = ParallelRunner(jobs=1).run(TINY_SPEC.expand())
        artifacts = write_campaign_artifacts(outcome, tmp_path / "campaign")
        records, summary = load_campaign(artifacts.directory)
        assert records == list(outcome.records)
        assert summary["total_runs"] == len(outcome.records)
        assert "timing" in summary

    def test_missing_files_raise_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            load_results(tmp_path / "nope.jsonl")
        with pytest.raises(AnalysisError):
            load_summary(tmp_path / "nope.json")

    def test_malformed_results_line_raises(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(AnalysisError):
            load_results(path)

    def test_arbiter_sweep_buckets_stay_separate(self):
        spec = CampaignSpec(
            presets=("small",),
            arbiters=("round_robin", "tdma"),
            num_workloads=1,
            iterations=4,
            rsk_iterations=20,
        )
        summary = ParallelRunner(jobs=1).run(spec.expand()).summary()
        platforms = summary["per_platform"]
        assert set(platforms) == {"small/round_robin", "small/tdma"}
        # Equation 1 bounds round-robin (and FIFO) arbitration only; delays
        # measured under TDMA must never be reported against that bound.
        round_robin = platforms["small/round_robin"]
        tdma = platforms["small/tdma"]
        assert round_robin["analytical_ubd"] == 6
        assert tdma["analytical_ubd"] is None
        assert round_robin["rsk"]["max_contention_delay"] <= 6
        assert tdma["rsk"]["max_contention_delay"] > 6

    def test_topology_sweep_buckets_stay_separate(self):
        spec = CampaignSpec(
            presets=("small",),
            topologies=("bus_only", "bus_bank_queues"),
            num_workloads=1,
            iterations=4,
            rsk_iterations=20,
        )
        outcome = ParallelRunner(jobs=1).run(spec.expand())
        assert {record["topology"] for record in outcome.records} == {
            "bus_only",
            "bus_bank_queues",
        }
        summary = outcome.summary()
        platforms = summary["per_platform"]
        # The historical key survives for the paper's platform; topology
        # sweeps get their own bucket so delays never merge across chains.
        assert set(platforms) == {
            "small/round_robin",
            "small/round_robin/bus_bank_queues/fifo",
        }
        assert summary["topologies"] == ["bus_bank_queues", "bus_only"]
        chained = platforms["small/round_robin/bus_bank_queues/fifo"]
        assert chained["topology"] == "bus_bank_queues"
        assert chained["mem_arbitration"] == "fifo"
        assert platforms["small/round_robin"]["mem_arbitration"] is None
        assert chained["end_to_end_ubd"] is not None
        assert chained["end_to_end_ubd"] > chained["analytical_ubd"]
        assert platforms["small/round_robin"]["end_to_end_ubd"] is None

    def test_summary_renders_both_workload_classes(self):
        outcome = ParallelRunner(jobs=1).run(TINY_SPEC.expand())
        text = render_campaign_summary(outcome.summary())
        assert "EEMBC-like workloads" in text
        assert "rsk reference workloads" in text
        assert "contenders=" in text
        assert "simulated" in text


# --------------------------------------------------------------------------- #
# Schema 4: per-resource measured-bound fields.
# --------------------------------------------------------------------------- #


class TestPerResourceArtifacts:
    """SCHEMA_VERSION 4: rsk records and summaries carry the per-resource
    observed worst cases next to the analytical terms, and the fields
    round-trip through the JSON artifacts."""

    @pytest.fixture(scope="class")
    def split_bus_outcome(self):
        spec = CampaignSpec(
            presets=("small",),
            topologies=("split_bus",),
            num_workloads=1,
            iterations=4,
            rsk_iterations=20,
        )
        return ParallelRunner(jobs=1).run(spec.expand())

    def test_schema_version_is_4(self, split_bus_outcome):
        from repro.campaign.spec import SCHEMA_VERSION

        assert SCHEMA_VERSION == 4
        assert all(r["schema"] == 4 for r in split_bus_outcome.records)

    def test_rsk_records_carry_stage_worst_cases(self, split_bus_outcome):
        record = next(r for r in split_bus_outcome.records if r["kind"] == "rsk")
        metrics = record["metrics"]
        config = config_from_dict(record["config"])
        assert "stage_worst_case" in metrics
        # The campaign's rsk reference runs are L2-preloaded, so only the
        # bus stage sees traffic — and its worst case obeys the bus term.
        assert metrics["stage_worst_case"]["bus"] <= config.ubd_terms["bus"]
        assert metrics["memory_requests"] == 0
        assert metrics["isolation"]["memory_requests"] == 0

    def test_summary_buckets_carry_analytical_terms(self, split_bus_outcome):
        summary = split_bus_outcome.summary()
        (bucket,) = summary["per_platform"].values()
        assert bucket["analytical_terms"] == {
            "bus": 6,
            "memory": 84,
            "bus_response": 2,
        }
        assert bucket["end_to_end_ubd"] == 92
        assert bucket["rsk"]["stage_worst_case"]["bus"] <= 6

    def test_per_resource_fields_round_trip(self, split_bus_outcome, tmp_path):
        artifacts = write_campaign_artifacts(split_bus_outcome, tmp_path / "c")
        records, summary = load_campaign(artifacts.directory)
        assert records == list(split_bus_outcome.records)
        record = next(r for r in records if r["kind"] == "rsk")
        assert record["metrics"]["stage_worst_case"] == {
            "bus": record["metrics"]["stage_worst_case"]["bus"]
        }
        (bucket,) = summary["per_platform"].values()
        assert bucket["analytical_terms"]["bus_response"] == 2

    def test_unfair_arbiter_buckets_report_no_terms(self):
        spec = CampaignSpec(
            presets=("small",),
            arbiters=("fixed_priority",),
            num_workloads=1,
            iterations=4,
            rsk_iterations=20,
        )
        outcome = ParallelRunner(jobs=1).run(spec.expand())
        (bucket,) = outcome.summary()["per_platform"].values()
        assert bucket["analytical_terms"] is None
        assert bucket["analytical_ubd"] is None


# --------------------------------------------------------------------------- #
# Streaming artifacts and the campaign manifest.
# --------------------------------------------------------------------------- #


class TestStreaming:
    def _stream(self, tmp_path, jobs):
        descriptors = TINY_SPEC.expand()
        stream = CampaignStreamWriter(tmp_path / f"stream-{jobs}", checkpoint_interval=0.0)
        outcome = ParallelRunner(jobs=jobs).run(descriptors, stream=stream)
        return stream.finalize(outcome.summary()), outcome

    def test_streamed_artifacts_match_one_shot_bytes(self, tmp_path):
        """Streaming changes when artifacts appear, never what they
        contain: results.jsonl and campaign.json must be byte-identical
        to write_campaign_artifacts, for serial and parallel runners."""
        one_shot = write_campaign_artifacts(
            ParallelRunner(jobs=1).run(TINY_SPEC.expand()), tmp_path / "one-shot"
        )
        for jobs in (1, 2):
            streamed, _ = self._stream(tmp_path, jobs)
            assert streamed.results_path.read_bytes() == one_shot.results_path.read_bytes()
            assert streamed.manifest_path.read_bytes() == one_shot.manifest_path.read_bytes()

    def test_finalized_manifest_is_completed_and_identifies_the_campaign(self, tmp_path):
        streamed, outcome = self._stream(tmp_path, 2)
        manifest = load_manifest(streamed.directory)
        assert manifest == {
            "schema": SCHEMA_VERSION,
            "campaign_id": campaign_digest([d.digest() for d in TINY_SPEC.expand()]),
            "total_runs": len(outcome.records),
            "completed": True,
        }

    def test_mid_flight_checkpoint_is_partial_and_loadable(self, tmp_path):
        stream = CampaignStreamWriter(tmp_path / "c", checkpoint_interval=0.0)
        records = ParallelRunner(jobs=1).run(TINY_SPEC.expand()).records
        stream.begin("cid", len(records))
        stream.append(records[:1])
        partial_records, partial_summary = load_campaign(stream.directory)
        assert partial_records == list(records[:1])
        assert partial_summary["timing"] == {
            "partial": True,
            "emitted": 1,
            "total_runs": len(records),
        }
        assert load_manifest(stream.directory)["completed"] is False
        stream.abandon()

    def test_crash_mid_campaign_leaves_an_incomplete_manifest(self, tmp_path):
        """A runner failure must abandon the stream: whatever was emitted
        stays on disk, and the manifest keeps completed: false — the crash
        signature the audit downgrades to WARN instead of failing."""
        descriptors = TINY_SPEC.expand()
        stream = CampaignStreamWriter(tmp_path / "crashed", checkpoint_interval=0.0)
        boom = RuntimeError("simulated crash")

        def explode(items):
            raise boom

        store = ResultStore(tmp_path / "store")
        store.put_many = explode
        with pytest.raises(RuntimeError, match="simulated crash"):
            ParallelRunner(jobs=1, cache=store).run(descriptors, stream=stream)
        assert load_manifest(stream.directory)["completed"] is False
        assert stream._handle is None  # stream closed, not leaked

    def test_append_before_begin_raises(self, tmp_path):
        stream = CampaignStreamWriter(tmp_path / "c")
        with pytest.raises(AnalysisError, match="before begin"):
            stream.append([{"digest": "d"}])

    def test_unreadable_manifest_raises(self, tmp_path):
        (tmp_path / "campaign.json").write_text("{ torn", encoding="utf-8")
        with pytest.raises(AnalysisError, match="manifest"):
            load_manifest(tmp_path)
        (tmp_path / "campaign.json").write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(AnalysisError, match="JSON object"):
            load_manifest(tmp_path)

    def test_missing_manifest_is_a_legacy_layout(self, tmp_path):
        assert load_manifest(tmp_path) is None


# --------------------------------------------------------------------------- #
# Shard planning.
# --------------------------------------------------------------------------- #


class TestSharding:
    def test_pickled_shard_holds_one_config_per_platform(self):
        """Grid points expanded from one spec share ArchConfig objects, and
        pickle writes an object shared within one ``dumps`` call once: a
        shard's round trip holds one config object per platform, not one
        per run, and executes to the same records byte for byte."""
        descriptors = replace(TINY_SPEC, arbiters=("round_robin", "fifo")).expand()
        shard = ShardTask(0, tuple((d.digest(), d) for d in descriptors))
        clone = pickle.loads(pickle.dumps(shard))
        assert len(clone.runs) == len(descriptors) == 6
        assert len({id(descriptor.config) for _, descriptor in clone.runs}) == 2
        assert [digest for digest, _ in clone.runs] == [d.digest() for d in descriptors]
        assert [descriptor for _, descriptor in clone.runs] == list(descriptors)

        def canonical(results):
            return [json.dumps(record, sort_keys=True) for _, record in results]

        assert canonical(execute_shard(clone)) == canonical(execute_shard(shard))

    def test_shard_execution_matches_run_execution(self):
        descriptors = TINY_SPEC.expand()
        shard = ShardTask(3, tuple((d.digest(), d) for d in descriptors))
        results = execute_shard(shard)
        assert [digest for digest, _ in results] == [d.digest() for d in descriptors]
        for (_, record), descriptor in zip(results, descriptors):
            assert record == execute_run(descriptor)

    def test_default_shard_size_bounds(self):
        assert default_shard_size(0, 4) == 1
        assert default_shard_size(1, 1) == 1
        assert default_shard_size(100, 4) >= 1
        # Enough shards for load balance: at least ~4 per worker.
        assert default_shard_size(100, 4) <= 100 // (4 * 4) + 1

    def test_automatic_shard_size_gives_small_grids_one_run_per_shard(self):
        descriptors = TINY_SPEC.expand()
        outcome = ParallelRunner(jobs=2).run(descriptors)
        assert outcome.stats["shards"] == len(descriptors)
        assert outcome.stats["shard_size"] == 1
        assert outcome.records == ParallelRunner(jobs=1).run(descriptors).records


# --------------------------------------------------------------------------- #
# Shard executors: how the one pipeline dispatches its shards.
# --------------------------------------------------------------------------- #


class TestShardExecutors:
    def test_explicit_executor_receives_the_shard_plan(self):
        descriptors = TINY_SPEC.expand()
        seen = []

        def recording(shards):
            seen.extend(shard.index for shard in shards)
            yield from execute_inline(shards)

        outcome = ParallelRunner(jobs=2).run(descriptors, executor=recording)
        assert seen == list(range(outcome.stats["shards"]))
        assert outcome.records == ParallelRunner(jobs=1).run(descriptors).records

    def test_pool_executor_yields_in_submission_order(self):
        descriptors = TINY_SPEC.expand()
        shards = [ShardTask(i, ((d.digest(), d),)) for i, d in enumerate(descriptors)]
        with worker_pool(2, None) as pool:
            results = list(pool_executor(pool)(shards))
        assert [fresh[0][0] for fresh in results] == [d.digest() for d in descriptors]
        assert results == list(execute_inline(shards))

    def test_absorb_failure_closes_the_executor(self, tmp_path):
        """A failing absorb stops the dispatch: the runner closes the
        executor before re-raising, so no further shard is started."""
        closed = []

        def executor(shards):
            try:
                yield from execute_inline(shards)
            finally:
                closed.append(True)

        def explode(items):
            raise RuntimeError("disk full")

        store = ResultStore(tmp_path / "store")
        store.put_many = explode
        with pytest.raises(RuntimeError, match="disk full"):
            ParallelRunner(jobs=1, cache=store).run(TINY_SPEC.expand(), executor=executor)
        assert closed == [True]

    def test_warm_run_dispatches_no_shards(self, tmp_path):
        descriptors = TINY_SPEC.expand()

        def refusing(shards):
            assert not shards, "a warm campaign must not dispatch work"
            yield from ()

        store = ResultStore(tmp_path / "store")
        ParallelRunner(jobs=1, cache=store).run(descriptors)
        warm = ParallelRunner(jobs=2, cache=store).run(descriptors, executor=refusing)
        assert warm.stats["simulated"] == 0 and warm.stats["shards"] == 0


# --------------------------------------------------------------------------- #
# Spec validation: a malformed grid fails at declaration, not mid-campaign.
# --------------------------------------------------------------------------- #


class TestSpecValidation:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"presets": ()}, "at least one preset"),
            ({"arbiters": ()}, "at least one arbiter"),
            ({"seeds": ()}, "at least one seed"),
            ({"num_workloads": -1}, "num_workloads"),
            ({"iterations": 0}, "iteration counts"),
            ({"rsk_iterations": 0}, "iteration counts"),
            ({"contender_counts": (1, 0)}, "contender counts"),
            ({"engine": "warp"}, "unknown simulation engine"),
        ],
        ids=[
            "no-presets",
            "no-arbiters",
            "no-seeds",
            "negative-workloads",
            "zero-iterations",
            "zero-rsk-iterations",
            "zero-contenders",
            "unknown-engine",
        ],
    )
    def test_malformed_grid_rejected_at_declaration(self, overrides, message):
        with pytest.raises(MethodologyError, match=message):
            replace(TINY_SPEC, **overrides)

    def test_unknown_preset_fails_at_expansion(self):
        spec = CampaignSpec(presets=("no-such-preset",), num_workloads=1)
        with pytest.raises(ConfigurationError, match="unknown preset"):
            spec.expand()

    def test_rsk_reference_alone_is_a_campaign(self):
        descriptors = replace(TINY_SPEC, num_workloads=0).expand()
        assert [d.kind for d in descriptors] == [KIND_RSK]
        (rsk,) = descriptors
        assert rsk.iterations == TINY_SPEC.rsk_iterations
        assert rsk.tasks == ("rsk-load",) * rsk.config.num_cores
        assert rsk.rsk_kind == "load"

    def test_workloads_without_the_rsk_reference(self):
        descriptors = replace(TINY_SPEC, include_rsk_reference=False).expand()
        assert [d.kind for d in descriptors] == [KIND_SYNTHETIC] * TINY_SPEC.num_workloads
        # Workload i of a seed runs with seed + i.
        assert [d.seed for d in descriptors] == [2015, 2016]
        assert all(d.iterations == TINY_SPEC.iterations for d in descriptors)

    def test_kernel_pool_restricts_the_drawn_tasks(self):
        pool = synthetic_kernel_names()[:2]
        spec = replace(TINY_SPEC, kernel_pool=pool, num_workloads=6, include_rsk_reference=False)
        drawn = {task for d in spec.expand() for task in d.tasks}
        assert drawn <= set(pool)

    @pytest.mark.parametrize("engine", ["stepped", "codegen", "replay"])
    def test_engine_choice_never_changes_digests(self, engine):
        """Every engine is cycle-exact, so the engine rides in the config
        but stays out of the cache key: campaigns share store entries
        whichever engine ran them."""
        descriptors = replace(TINY_SPEC, engine=engine).expand()
        assert all(d.config.engine == engine for d in descriptors)
        assert [d.digest() for d in descriptors] == [d.digest() for d in TINY_SPEC.expand()]


# --------------------------------------------------------------------------- #
# The random workloads of one grid point (the Figure 6(a) runs).
# --------------------------------------------------------------------------- #


class TestWorkloadDescriptors:
    def test_run_ids_seeds_and_tasks_follow_the_workload_order(self):
        config = small_config()
        workloads = random_workloads(3, config.num_cores, seed=40)
        spec = CampaignSpec(
            presets=("small",),
            seeds=(40,),
            num_workloads=3,
            iterations=6,
            include_rsk_reference=False,
        )
        descriptors = spec.expand()
        assert [d.run_id for d in descriptors] == ["00000", "00001", "00002"]
        assert [d.seed for d in descriptors] == [40, 41, 42]
        assert [d.tasks for d in descriptors] == [tuple(w) for w in workloads]
        # One configuration object per grid point: the rsk contender memo
        # of a shard is keyed on its identity.
        assert len({id(d.config) for d in descriptors}) == 1
        for descriptor in descriptors:
            assert descriptor.preset == "small"
            assert descriptor.config.num_cores == config.num_cores
            assert descriptor.kind == KIND_SYNTHETIC
            assert descriptor.observed_core == 0
            assert descriptor.iterations == 6

    def test_observed_core_outside_the_workload_is_rejected(self):
        name = synthetic_kernel_names()[0]
        with pytest.raises(MethodologyError, match="observed core"):
            RunDescriptor(
                run_id="00000",
                preset="small",
                config=small_config(),
                kind=KIND_SYNTHETIC,
                tasks=(name, name),
                observed_core=2,
                iterations=4,
                seed=0,
            )

    def test_empty_workload_list_has_no_descriptors(self):
        """Without random workloads a grid point expands to its rsk run only."""
        descriptors = CampaignSpec(presets=("small",), num_workloads=0).expand()
        assert [d.kind for d in descriptors] == [KIND_RSK]


# --------------------------------------------------------------------------- #
# Campaign identity, manifests and histogram transport.
# --------------------------------------------------------------------------- #


class TestCampaignIdentity:
    def test_campaign_digest_is_a_function_of_the_ordered_runs(self):
        digests = [d.digest() for d in TINY_SPEC.expand()]
        assert campaign_digest(digests) == campaign_digest(tuple(digests))
        assert campaign_digest(digests) != campaign_digest(digests[::-1])

    def test_a_repeated_run_changes_the_campaign_identity(self):
        digests = [d.digest() for d in TINY_SPEC.expand()]
        assert campaign_digest(digests) != campaign_digest(digests + digests[:1])

    def test_engine_choice_keeps_the_campaign_identity(self):
        event = [d.digest() for d in TINY_SPEC.expand()]
        codegen = [d.digest() for d in replace(TINY_SPEC, engine="codegen").expand()]
        assert campaign_digest(codegen) == campaign_digest(event)

    def test_build_manifest_is_the_identity_stamp(self):
        assert build_manifest("cid", 5, completed=False) == {
            "schema": SCHEMA_VERSION,
            "campaign_id": "cid",
            "total_runs": 5,
            "completed": False,
        }

    def test_write_manifest_round_trips_and_leaves_no_temporaries(self, tmp_path):
        manifest = build_manifest("cid", 5, completed=True)
        path = write_manifest(tmp_path, manifest)
        assert path == tmp_path / MANIFEST_NAME
        assert load_manifest(tmp_path) == manifest
        assert [entry.name for entry in tmp_path.iterdir()] == [MANIFEST_NAME]

    def test_rewriting_the_manifest_replaces_it(self, tmp_path):
        write_manifest(tmp_path, build_manifest("cid", 5, completed=False))
        write_manifest(tmp_path, build_manifest("cid", 5, completed=True))
        assert load_manifest(tmp_path)["completed"] is True

    def test_histogram_keys_are_strings_in_numeric_order(self):
        rendered = _json_histogram({10: 1, 2: 5, 0: 7})
        # Numeric, not lexicographic, order: "10" sorts after "2".
        assert list(rendered) == ["0", "2", "10"]
        assert histogram_from_json(json.loads(json.dumps(rendered))) == {0: 7, 2: 5, 10: 1}

    def test_record_histograms_load_back_with_int_keys(self):
        descriptor = next(d for d in TINY_SPEC.expand() if d.kind == KIND_SYNTHETIC)
        metrics = execute_run(descriptor)["metrics"]
        histogram = histogram_from_json(metrics["contender_histogram"])
        assert histogram
        assert all(0 <= key < descriptor.config.num_cores for key in histogram)
        assert sum(histogram.values()) == metrics["contender_total_requests"]


# --------------------------------------------------------------------------- #
# The one pipeline end to end: stats, failures, stores and the replay engine.
# --------------------------------------------------------------------------- #

#: The replay engine on an arbiter sweep: both arbiters share each run's
#: core side, so a store's ``traces/`` section fills on the first pass.
REPLAY_SPEC = replace(TINY_SPEC, arbiters=("round_robin", "fifo"), engine="replay")


def _summary_without_timing(path) -> dict:
    summary = load_summary(path)
    del summary["timing"]
    return summary


class TestOnePipeline:
    def test_outcome_summary_is_the_record_summary_plus_timing(self):
        outcome = ParallelRunner(jobs=1).run(TINY_SPEC.expand())
        summary = outcome.summary()
        assert summary.pop("timing") == outcome.stats
        assert summary == summarize_records(outcome.records)

    def test_stats_account_for_every_run(self):
        descriptors = TINY_SPEC.expand()
        outcome = ParallelRunner(jobs=1).run(list(descriptors) + [descriptors[0]])
        stats = outcome.stats
        assert stats["runs"] == len(descriptors) + 1
        assert stats["unique_runs"] == len(descriptors)
        assert stats["simulated"] == len(descriptors)
        assert stats["cached"] == 0
        assert stats["jobs"] == 1
        assert stats["shards"] * stats["shard_size"] >= stats["simulated"]
        assert "store" not in stats

    def test_inline_executor_yields_one_result_list_per_shard(self):
        descriptors = TINY_SPEC.expand()
        shards = [ShardTask(i, ((d.digest(), d),)) for i, d in enumerate(descriptors)]
        results = list(execute_inline(shards))
        assert [[digest for digest, _ in fresh] for fresh in results] == [
            [d.digest()] for d in descriptors
        ]

    def test_executor_failure_propagates_and_keeps_the_emitted_prefix(self, tmp_path):
        """A shard executor dying mid-campaign (a lost pool worker) fails
        the run; the stream keeps the records resolved before the failure
        and its manifest stays in flight."""
        descriptors = TINY_SPEC.expand()
        stream = CampaignStreamWriter(tmp_path / "crashed", checkpoint_interval=0.0)

        def dying(shards):
            yield from execute_inline(shards[:1])
            raise RuntimeError("worker lost")

        with pytest.raises(RuntimeError, match="worker lost"):
            ParallelRunner(jobs=1).run(descriptors, stream=stream, executor=dying)
        assert load_manifest(stream.directory)["completed"] is False
        emitted = load_results(stream.results_path)
        assert [record["run_id"] for record in emitted] == [descriptors[0].run_id]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_backed_stream_matches_a_storeless_run(self, jobs, tmp_path):
        """The store changes what is simulated, never what is written:
        cold and warm store-backed campaigns stream the same bytes as a
        storeless one."""
        descriptors = TINY_SPEC.expand()
        outcome = ParallelRunner(jobs=1).run(descriptors)
        plain = write_campaign_artifacts(outcome, tmp_path / "plain")
        expected_summary = _summary_without_timing(plain.summary_path)
        store = ResultStore(tmp_path / "store")
        for attempt in ("cold", "warm"):
            stream = CampaignStreamWriter(tmp_path / attempt, checkpoint_interval=0.0)
            outcome = ParallelRunner(jobs=jobs, cache=store).run(descriptors, stream=stream)
            streamed = stream.finalize(outcome.summary())
            assert streamed.results_path.read_bytes() == plain.results_path.read_bytes()
            assert streamed.manifest_path.read_bytes() == plain.manifest_path.read_bytes()
            assert _summary_without_timing(streamed.summary_path) == expected_summary
        assert outcome.stats["simulated"] == 0

    def test_warm_rerun_writes_no_artifacts(self, tmp_path):
        descriptors = TINY_SPEC.expand()
        store = ResultStore(tmp_path / "store")
        ParallelRunner(jobs=1, cache=store).run(descriptors)
        written = len(list(store.directory.glob("*.json")))
        store.counters.reset()
        warm = ParallelRunner(jobs=1, cache=store).run(descriptors)
        assert written == len(descriptors)
        assert warm.stats["store"]["artifact_writes"] == 0
        assert warm.stats["store"]["artifact_reads"] == len(descriptors)

    def test_replay_campaign_traces_do_not_depend_on_jobs(self, tmp_path):
        """Pool workers back their trace caches with the store, like the
        in-process runner: a replay campaign persists the same
        ``traces/`` entries at any job count."""

        def traces(directory):
            return sorted(path.name for path in (directory / "traces").glob("*.json"))

        descriptors = REPLAY_SPEC.expand()
        clear_trace_cache()
        try:
            serial = ParallelRunner(jobs=1, cache=ResultStore(tmp_path / "serial")).run(descriptors)
            clear_trace_cache()
            pooled = ParallelRunner(jobs=2, cache=ResultStore(tmp_path / "pooled")).run(descriptors)
        finally:
            clear_trace_cache()
        assert traces(tmp_path / "serial")
        assert traces(tmp_path / "pooled") == traces(tmp_path / "serial")
        assert pooled.records == serial.records

    def test_store_backs_replay_captures_only_during_its_campaign(self, tmp_path):
        """A campaign attaches its store to the process-wide trace cache
        for its own duration: a later campaign without a store must not
        write its captures into the earlier campaign's ``traces/``."""

        def traces(directory):
            return sorted(path.name for path in (directory / "traces").glob("*.json"))

        clear_trace_cache()
        cache = global_trace_cache()
        try:
            stored = ParallelRunner(jobs=1, cache=ResultStore(tmp_path / "store"))
            stored.run(REPLAY_SPEC.expand())
            written = traces(tmp_path / "store")
            assert cache.store is None
            captured = cache.counters["captures"]
            ParallelRunner(jobs=1).run(replace(REPLAY_SPEC, rsk_iterations=25).expand())
            assert cache.counters["captures"] > captured
        finally:
            clear_trace_cache()
        assert written
        assert traces(tmp_path / "store") == written

    def test_trace_cache_stats_count_only_their_own_campaign(self):
        """The process-wide trace cache outlives a campaign: a campaign's
        ``trace_cache`` stats count its own lookups and captures, the
        ``entries`` level aside, and a campaign that never replays reports
        none."""
        spec = CampaignSpec(presets=("small",), num_workloads=1, iterations=5, engine="replay")
        clear_trace_cache()
        cache = global_trace_cache()
        try:
            first = ParallelRunner(jobs=1).run(replace(spec, seeds=(1,)).expand())
            after_first = cache.stats()
            second = ParallelRunner(jobs=1).run(replace(spec, seeds=(2,)).expand())
            after_second = cache.stats()
            event = ParallelRunner(jobs=1).run(replace(spec, engine="event").expand())
        finally:
            clear_trace_cache()
        assert first.stats["trace_cache"] == after_first
        assert after_first["captures"] > 0
        assert second.stats["trace_cache"] == {
            name: (value if name == "entries" else value - after_first[name])
            for name, value in after_second.items()
        }
        assert second.stats["trace_cache"]["captures"] == 0
        assert second.stats["trace_cache"]["misses"] == 0
        assert "trace_cache" not in event.stats

    def test_replay_campaign_records_match_the_event_engine(self):
        clear_trace_cache()
        try:
            replayed = ParallelRunner(jobs=1).run(REPLAY_SPEC.expand())
        finally:
            clear_trace_cache()
        event = ParallelRunner(jobs=1).run(replace(REPLAY_SPEC, engine="event").expand())
        assert replayed.records == event.records
