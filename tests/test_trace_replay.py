"""Trace-capture/replay machinery tests: keys, cache, store backing, fallback.

The cycle-exactness of the ``replay`` engine is covered by the four-way
differential in ``test_engine_equivalence.py``; this module tests the
machinery around it:

* the core-side digest — :func:`core_side_key` and :func:`trace_key` hit
  across every interconnect/arbiter/engine change and miss on any
  kernel/cache/core-parameter change (the property the arbiter-sweep
  speedup rests on), exercised both directed and as a hypothesis property
  mirroring the codegen compile-cache test;
* the serialised :class:`CoreTrace` payload — round-trips exactly, stale
  schema stamps raise (and the cache treats them as misses, not data);
* the static safety screen — :func:`replay_blocker` rejects stores;
* the :class:`TraceCache` — LRU eviction, counters, negative entries, and
  the :class:`ResultStore` trace section backing it (persist, cross-cache
  hit, ``trace_stats``, gc by age);
* the :class:`ReplayEngine` — per-core fallback reasons while the run
  still completes with the oracle's observable state;
* the bench/compare surface — ``replay_spec`` is a trace-safe pure-rsk
  grid, and gating a metric absent from an older-schema baseline warns
  instead of raising ``KeyError``.
"""

from __future__ import annotations

import os
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.store import ResultStore
from repro.config import BusConfig, CacheConfig, L2Config, TopologyConfig, small_config
from repro.errors import SimulationError
from repro.kernels.rsk import build_rsk
from repro.bench.campaign_bench import CAMPAIGN_WORKLOADS
from repro.bench.compare import compare_payloads
from repro.sim.arbiter import RoundRobinArbiter
from repro.sim.core import Core
from repro.sim.isa import Program
from repro.sim.system import System
from repro.sim.trace import (
    CoreTrace,
    ReplayCore,
    ReplayEngine,
    TraceCache,
    TraceStep,
    TraceUnsafe,
    clear_trace_cache,
    core_side_key,
    core_side_payload,
    global_trace_cache,
    replay_blocker,
    trace_key,
    TRACE_SCHEMA_VERSION,
)


@pytest.fixture(autouse=True)
def _isolated_trace_cache():
    """Every test starts and ends with an empty process-wide trace cache."""
    clear_trace_cache()
    yield
    clear_trace_cache()


def _programs_for(config, kind="load", iterations=30):
    scua = build_rsk(config, 0, kind=kind, iterations=iterations)
    programs: List[Optional[Program]] = [None] * config.num_cores
    programs[0] = scua
    return programs


def _capture_one_trace(config=None) -> CoreTrace:
    """Run the replay engine cold once and return the captured trace."""
    config = (config or small_config()).with_overrides(engine="replay")
    system = System(config, _programs_for(config))
    system.run(observed_cores=[0])
    cache = global_trace_cache()
    assert cache.counters["captures"] == 1
    (entry,) = list(cache._entries.values())
    assert isinstance(entry, CoreTrace)
    return entry


# --------------------------------------------------------------------------- #
# Core-side digests.
# --------------------------------------------------------------------------- #


class TestCoreSideKey:
    def test_system_side_changes_share_a_key(self):
        """Interconnect, arbiter, memory, topology, engine and cosmetic
        fields are all stripped: an arbiter/topology sweep is one key."""
        base = small_config()
        for overrides in (
            {"bus": BusConfig(arbitration="tdma", transfer_latency=7, tdma_slot=11)},
            {"topology": TopologyConfig(name="split_bus")},
            {"engine": "codegen"},
            {"name": "renamed"},
            {"freq_mhz": 1000},
        ):
            variant = base.with_overrides(**overrides)
            assert core_side_key(variant) == core_side_key(base), overrides

    @pytest.mark.parametrize(
        "overrides",
        [
            {"il1": CacheConfig(size_bytes=2048, ways=2, hit_latency=1)},
            {"dl1": CacheConfig(size_bytes=1024, ways=2, hit_latency=3)},
            {"l2": L2Config(cache=CacheConfig(size_bytes=4096, ways=4, hit_latency=2))},
            {"num_cores": 4},
            {"alu_latency": 2},
            {"nop_latency": 2},
        ],
    )
    def test_core_side_changes_miss(self, overrides):
        """Anything that can change the demand-request sequence changes
        the key: private caches, the (live) L2 geometry, execute-stage
        latencies and the core count."""
        base = small_config()
        assert core_side_key(base.with_overrides(**overrides)) != core_side_key(base)

    def test_trace_key_depends_on_program_and_preloads(self):
        config = small_config()
        short = build_rsk(config, 0, kind="load", iterations=10)
        long = build_rsk(config, 0, kind="load", iterations=20)
        key = trace_key(config, short, False, False)
        assert trace_key(config, long, False, False) != key
        assert trace_key(config, short, True, False) != key
        assert trace_key(config, short, False, True) != key
        assert trace_key(config.with_overrides(engine="replay"), short, False, False) == key

    @settings(max_examples=60, deadline=None)
    @given(
        a_hit=st.integers(min_value=1, max_value=3),
        a_transfer=st.integers(min_value=1, max_value=4),
        a_topology=st.sampled_from(["bus_only", "split_bus"]),
        a_engine=st.sampled_from(["event", "codegen", "replay"]),
        b_hit=st.integers(min_value=1, max_value=3),
        b_transfer=st.integers(min_value=1, max_value=4),
        b_topology=st.sampled_from(["bus_only", "split_bus"]),
        b_engine=st.sampled_from(["event", "codegen", "replay"]),
    )
    def test_keys_collide_iff_core_side_payloads_are_equal(
        self, a_hit, a_transfer, a_topology, a_engine, b_hit, b_transfer, b_topology, b_engine
    ):
        """The digest property, mirroring the codegen compile-cache test:
        equal keys exactly when the configurations agree on every
        core-side field, however the system side differs."""

        def build(hit, transfer, topology, engine):
            return small_config(
                dl1=CacheConfig(size_bytes=1024, ways=2, hit_latency=hit),
                bus=BusConfig(transfer_latency=transfer),
                topology=TopologyConfig(name=topology),
                engine=engine,
            )

        a = build(a_hit, a_transfer, a_topology, a_engine)
        b = build(b_hit, b_transfer, b_topology, b_engine)
        assert (core_side_key(a) == core_side_key(b)) == (
            core_side_payload(a) == core_side_payload(b)
        )


# --------------------------------------------------------------------------- #
# Static safety screen and the captured payload.
# --------------------------------------------------------------------------- #


class TestSafetyAndPayload:
    def test_stores_are_never_trace_safe(self):
        config = small_config()
        store_kernel = build_rsk(config, 0, kind="store", iterations=10)
        reason = replay_blocker(store_kernel)
        assert reason is not None and "store" in reason
        assert replay_blocker(build_rsk(config, 0, kind="load", iterations=10)) is None

    def test_retire_counts_summarise_the_segment(self):
        step = TraceStep(
            gap=5,
            kind="load",
            addr=64,
            retirements=((0, "load"), (1, "nop"), (2, "alu"), (3, "store"), (4, "nop")),
        )
        assert step.retire_counts == (5, 1, 1, 2)

    def test_payload_round_trips_exactly(self):
        trace = _capture_one_trace()
        rebuilt = CoreTrace.from_payload(trace.to_payload())
        assert rebuilt == trace

    def test_stale_schema_raises(self):
        trace = _capture_one_trace()
        payload = trace.to_payload()
        payload["schema"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(SimulationError):
            CoreTrace.from_payload(payload)

    def test_stale_store_payload_is_a_miss(self, tmp_path):
        """A schema-bumped on-disk trace must be ignored, never misread."""
        trace = _capture_one_trace()
        stale = trace.to_payload()
        stale["schema"] = TRACE_SCHEMA_VERSION + 1
        with ResultStore(tmp_path / "store") as store:
            store.put_trace(trace.key, stale)
            cache = TraceCache()
            cache.attach_store(store)
            assert cache.get(trace.key) is None
            assert cache.counters["misses"] == 1
            assert cache.counters["store_hits"] == 0


# --------------------------------------------------------------------------- #
# The trace cache and its store backing.
# --------------------------------------------------------------------------- #


class TestTraceCache:
    def test_lru_evicts_the_coldest_entry(self):
        cache = TraceCache(max_entries=2)
        for index in range(3):
            cache._insert(f"k{index}", TraceUnsafe(f"r{index}"))
        assert len(cache) == 2
        assert cache.get("k0") is None  # evicted
        assert isinstance(cache.get("k2"), TraceUnsafe)

    def test_counters_track_every_outcome(self):
        cache = TraceCache()
        assert cache.get("absent") is None
        cache.put(CoreTrace(key="t", steps=(TraceStep(1, "load", 0),), done_offset=1))
        cache.put_unsafe("u", "because")
        assert cache.get("t") is not None
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "store_hits": 0,
            "captures": 1,
            "unsafe": 1,
            "entries": 2,
        }
        cache.reset_counters()
        assert cache.stats()["entries"] == 2
        assert cache.stats()["hits"] == 0

    def test_store_round_trip_feeds_a_fresh_cache(self, tmp_path):
        trace = _capture_one_trace()
        with ResultStore(tmp_path / "store") as store:
            writer = TraceCache()
            writer.attach_store(store)
            writer.put(trace)
            assert store.trace_stats()["entries"] == 1
            reader = TraceCache()
            reader.attach_store(store)
            got = reader.get(trace.key)
            assert got == trace
            assert reader.counters["store_hits"] == 1

    def test_negative_entries_stay_in_process(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            cache = TraceCache()
            cache.attach_store(store)
            cache.put_unsafe("deadbeef" * 8, "not safe")
            assert store.trace_stats()["entries"] == 0

    def test_store_gc_ages_traces_by_mtime(self, tmp_path):
        trace = _capture_one_trace()
        with ResultStore(tmp_path / "store") as store:
            store.put_trace(trace.key, trace.to_payload())
            # Backdate the artifact so a 1-day horizon expires it.
            path = store.traces_dir / f"{trace.key}.json"
            old = path.stat().st_mtime - 3 * 86400
            os.utime(path, (old, old))
            outcome = store.gc(keep_days=1.0)
            assert outcome.traces_removed == 1
            assert store.trace_stats()["entries"] == 0


# --------------------------------------------------------------------------- #
# The replay engine: capture-then-replay and per-core fallback.
# --------------------------------------------------------------------------- #


class TestReplayEngine:
    def test_second_run_replays_without_capturing(self):
        config = small_config(engine="replay")
        cold = System(config, _programs_for(config)).run(observed_cores=[0])
        cache = global_trace_cache()
        assert cache.counters["captures"] == 1

        cache.reset_counters()
        system = System(config, _programs_for(config))
        engine = ReplayEngine(system)
        engine.run([0], max_cycles=10_000_000)
        assert engine.replayed_cores == [0]
        assert engine.captured_cores == []
        assert engine.fallback_reasons == {}
        assert cache.counters == {
            "hits": 1,
            "misses": 0,
            "store_hits": 0,
            "captures": 0,
            "unsafe": 0,
        }
        assert isinstance(system.cores[0], ReplayCore)
        assert system.cores[0].done_cycle == cold.done_cycles[0]
        assert system.pmc.as_dict() == cold.pmc.as_dict()

    def test_store_kernel_falls_back_with_a_reason(self):
        config = small_config()
        programs = _programs_for(config, kind="store")
        oracle = System(config.with_overrides(engine="stepped"), programs).run(observed_cores=[0])

        system = System(config, _programs_for(config, kind="store"))
        engine = ReplayEngine(system)
        engine.run([0], max_cycles=10_000_000)
        assert 0 in engine.fallback_reasons
        assert "store" in engine.fallback_reasons[0]
        assert engine.replayed_cores == []
        assert isinstance(system.cores[0], Core)
        assert system.cores[0].done_cycle == oracle.done_cycles[0]
        # The failed capture is negative-cached: the next run skips the probe.
        system2 = System(config, _programs_for(config, kind="store"))
        engine2 = ReplayEngine(system2)
        engine2.run([0], max_cycles=10_000_000)
        assert engine2.captured_cores == []
        assert 0 in engine2.fallback_reasons

    def test_unspecialisable_chain_reports_the_codegen_fallback_reason(self):
        """Replay binds its loop through codegen, so on a chain codegen
        cannot specialise (an external arbiter subclass) it reports the same
        reason instead of falling back silently."""

        class PoliteRoundRobin(RoundRobinArbiter):
            pass

        def engine_after_run(engine: str):
            config = small_config(engine=engine)
            system = System(
                config, _programs_for(config), arbiter=PoliteRoundRobin(config.num_cores + 1)
            )
            system.run(observed_cores=[0])
            return system.engine

        codegen = engine_after_run("codegen")
        replay = engine_after_run("replay")
        assert codegen.fallback_reason is not None
        assert "PoliteRoundRobin" in codegen.fallback_reason
        assert replay.name == "replay"
        assert replay.fallback_reason == codegen.fallback_reason


# --------------------------------------------------------------------------- #
# Bench and compare surfaces.
# --------------------------------------------------------------------------- #


class TestBenchSurfaces:
    def test_replay_spec_is_a_trace_safe_arbiter_sweep(self):
        bench = next(b for b in CAMPAIGN_WORKLOADS if b.replay_compare)
        spec = bench.replay_spec(quick=True)
        assert spec.num_workloads == 0  # synthetic workloads contain stores
        assert spec.include_rsk_reference is True
        assert set(spec.arbiters) == set(bench.arbiters)
        assert len(spec.seeds) == 1
        full = bench.replay_spec(quick=False)
        assert full.rsk_iterations > spec.rsk_iterations

    def _payloads(self, old_entry, new_entry):
        base = {"schema": 4, "rev": "old", "quick": True}
        old = dict(base, campaigns=[old_entry])
        new = dict(base, schema=5, rev="new", campaigns=[new_entry])
        return old, new

    def test_metric_absent_from_baseline_warns_instead_of_raising(self):
        """An older-schema baseline simply predates campaign_replay_speedup:
        the gate must warn and pass, not crash with KeyError."""
        old, new = self._payloads(
            {"name": "sweep", "warm_speedup": 50.0},
            {"name": "sweep", "warm_speedup": 55.0, "campaign_replay_speedup": 2.4},
        )
        result = compare_payloads(old, new, metric="campaign_replay_speedup")
        assert result.ok
        assert any("NO BASELINE" in line for line in result.lines)
        assert any("absent from 1 baseline entry" in line for line in result.lines)

    def test_dropping_a_gated_metric_fails(self):
        old, new = self._payloads(
            {"name": "sweep", "warm_speedup": 50.0, "campaign_replay_speedup": 2.4},
            {"name": "sweep", "warm_speedup": 55.0},
        )
        result = compare_payloads(old, new, metric="campaign_replay_speedup")
        assert not result.ok
        assert any("METRIC LOST" in line for line in result.lines)
