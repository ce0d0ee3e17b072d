"""Codegen engine unit tests: compile cache, fallbacks, diagnostics, goldens.

The cycle-exactness of the generated loops is covered by the four-way
differential in ``test_engine_equivalence.py``; this module tests the
machinery around them:

* the content-addressed compile cache — equal :func:`loop_cache_key`
  digests reuse the identical :class:`CompiledLoop` object, unequal
  payloads never collide, and the digest-excluded ``engine`` field is
  explicitly exercised;
* the golden-source snapshots — one generated module per built-in
  topology, refreshed with ``pytest --regen``;
* the bind-time fallback — runtime-registered topologies and policies and
  externally injected arbiters route to the generic event engine with a
  reason, and still simulate correctly;
* the diagnostics variant — the self-checking loop agrees with the
  stepped oracle without tripping its own cross-checks.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    ENGINES,
    TOPOLOGIES,
    ArchConfig,
    BusConfig,
    TopologyConfig,
    small_config,
)
from repro.kernels.rsk import build_rsk, build_stress_contender_set
from repro.sim.arbiter import ARBITER_REGISTRY, RoundRobinArbiter, register_arbiter
from repro.sim.codegen import (
    CodegenEngine,
    clear_compile_cache,
    compile_cache_size,
    compile_loop,
    generate_loop_source,
    loop_cache_key,
    regenerate,
    specialisation_mismatch,
)
from repro.sim.scheduler import EventScheduler, make_engine
from repro.sim.system import System
from repro.sim.topology import TOPOLOGY_REGISTRY, register_topology

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _rsk_programs(config: ArchConfig, iterations: int = 40, kind: str = "load"):
    scua = build_rsk(config, 0, kind=kind, iterations=iterations)
    programs: List[Optional[object]] = [None] * config.num_cores
    programs[0] = scua
    for core, program in build_stress_contender_set(config, "bus", 0, kind=kind).items():
        programs[core] = program
    return programs


def _topology_config(name: str) -> ArchConfig:
    return small_config(topology=TopologyConfig(name=name))


# --------------------------------------------------------------------------- #
# The content-addressed compile cache.
# --------------------------------------------------------------------------- #


class TestCompileCache:
    def test_equal_digests_reuse_the_compiled_loop(self):
        """Two independently built but equal configurations hit the same
        cache slot and get back the *identical* CompiledLoop object."""
        clear_compile_cache()
        first = compile_loop(small_config())
        second = compile_loop(small_config())
        assert first is second
        assert compile_cache_size() == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_field_is_excluded_from_the_key(self, engine):
        """The engine choice selects which loop *runs*, never what the
        specialised loop must do: every engine twin shares one digest and
        therefore one compiled loop."""
        base = small_config()
        twin = small_config(engine=engine)
        assert loop_cache_key(twin) == loop_cache_key(base)
        assert compile_loop(twin) is compile_loop(base)

    def test_diagnostics_variant_is_cached_separately(self):
        clear_compile_cache()
        config = small_config()
        plain = compile_loop(config)
        diag = compile_loop(config, diagnostics=True)
        assert plain is not diag
        assert diag.diagnostics and not plain.diagnostics
        assert plain.key == diag.key
        assert compile_cache_size() == 2
        # Each variant still cache-hits its own slot.
        assert compile_loop(config) is plain
        assert compile_loop(config, diagnostics=True) is diag

    def test_regenerate_discards_the_cached_loop(self):
        config = small_config()
        stale = compile_loop(config)
        fresh = regenerate(config)
        assert fresh is not stale
        # Generation is deterministic, so the recompiled source is
        # byte-identical — and the fresh loop now serves the cache.
        assert fresh.source == stale.source
        assert compile_loop(config) is fresh

    @given(
        a_cores=st.integers(min_value=2, max_value=4),
        a_transfer=st.integers(min_value=1, max_value=3),
        a_slot=st.integers(min_value=3, max_value=6),
        a_topology=st.sampled_from(TOPOLOGIES),
        a_engine=st.sampled_from(ENGINES),
        b_cores=st.integers(min_value=2, max_value=4),
        b_transfer=st.integers(min_value=1, max_value=3),
        b_slot=st.integers(min_value=3, max_value=6),
        b_topology=st.sampled_from(TOPOLOGIES),
        b_engine=st.sampled_from(ENGINES),
    )
    @settings(max_examples=60, deadline=None)
    def test_keys_collide_iff_non_engine_payloads_are_equal(
        self,
        a_cores,
        a_transfer,
        a_slot,
        a_topology,
        a_engine,
        b_cores,
        b_transfer,
        b_slot,
        b_topology,
        b_engine,
    ):
        """The digest property: equal keys exactly when the serialised
        configurations differ in nothing but the ``engine`` field."""

        def build(cores, transfer, slot, topology, engine):
            return small_config(
                num_cores=cores,
                engine=engine,
                bus=BusConfig(arbitration="tdma", transfer_latency=transfer, tdma_slot=slot),
                topology=TopologyConfig(name=topology),
            )

        a = build(a_cores, a_transfer, a_slot, a_topology, a_engine)
        b = build(b_cores, b_transfer, b_slot, b_topology, b_engine)
        payload_a = a.to_dict()
        payload_a.pop("engine", None)
        payload_b = b.to_dict()
        payload_b.pop("engine", None)
        assert (loop_cache_key(a) == loop_cache_key(b)) == (payload_a == payload_b)


# --------------------------------------------------------------------------- #
# Golden generated-source snapshots (refresh with: pytest --regen).
# --------------------------------------------------------------------------- #


class TestGoldenSource:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_generated_source_matches_its_snapshot(self, topology, regen):
        config = _topology_config(topology)
        source = generate_loop_source(config)
        golden = GOLDEN_DIR / f"codegen_{topology}.py.txt"
        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden.write_text(source, encoding="utf-8")
            return
        assert golden.is_file(), (
            f"golden snapshot {golden} is missing; create it with "
            "`pytest tests/test_codegen.py --regen`"
        )
        assert source == golden.read_text(encoding="utf-8"), (
            f"the generated loop for {topology!r} drifted from its golden "
            "snapshot; review the change, then refresh with "
            "`pytest tests/test_codegen.py --regen`"
        )

    def test_generation_is_deterministic(self):
        config = _topology_config("split_bus")
        assert generate_loop_source(config) == generate_loop_source(config)


# --------------------------------------------------------------------------- #
# Bind-time fallback to the generic event engine.
# --------------------------------------------------------------------------- #


class TestFallback:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_builtin_chains_specialise(self, topology):
        config = _topology_config(topology)
        system = System(config, _rsk_programs(config), preload_l2=True)
        assert specialisation_mismatch(system) is None
        engine = make_engine("codegen", system)
        assert isinstance(engine, CodegenEngine)
        assert engine.fallback_reason is None
        assert engine.compiled is not None

    def test_registered_topology_falls_back_and_still_simulates(self):
        """A runtime-registered topology has no generated loop: the engine
        must say why and delegate to the generic EventScheduler, which runs
        it cycle-exactly."""
        name = "test_codegen_mirror"
        register_topology(name, "test-only mirror of bus_bank_queues")(
            TOPOLOGY_REGISTRY.require("bus_bank_queues").builder
        )
        try:
            config = small_config(topology=TopologyConfig(name=name))
            system = System(config, _rsk_programs(config))
            engine = make_engine("codegen", system)
            assert isinstance(engine, CodegenEngine)
            assert engine.fallback_reason is not None
            assert name in engine.fallback_reason
            assert isinstance(engine._fallback, EventScheduler)
            fallback_cycles = System(
                config.with_overrides(engine="codegen"), _rsk_programs(config)
            ).run(observed_cores=[0])
            oracle_cycles = System(
                config.with_overrides(engine="stepped"), _rsk_programs(config)
            ).run(observed_cores=[0])
            assert fallback_cycles.cycles == oracle_cycles.cycles
        finally:
            TOPOLOGY_REGISTRY.pop(name)

    def test_registered_arbiter_policy_falls_back_and_still_simulates(self):
        """A runtime-registered arbitration policy has no inlined grant
        logic — same deal: reasoned fallback, correct result."""

        class LowestPortArbiter(RoundRobinArbiter):
            policy_name = "test_codegen_lowest"

            def select(self, cycle, pending_ports):
                return min(pending_ports)

        name = "test_codegen_lowest"
        register_arbiter(name, "test-only policy")(
            lambda num_ports, tdma_slot: LowestPortArbiter(num_ports)
        )
        try:
            config = small_config(bus=BusConfig(arbitration=name))
            system = System(config, _rsk_programs(config), preload_l2=True)
            engine = make_engine("codegen", system)
            assert engine.fallback_reason is not None
            assert name in engine.fallback_reason
            fallback = System(
                config.with_overrides(engine="codegen"), _rsk_programs(config), preload_l2=True
            ).run(observed_cores=[0])
            oracle = System(
                config.with_overrides(engine="stepped"), _rsk_programs(config), preload_l2=True
            ).run(observed_cores=[0])
            assert fallback.cycles == oracle.cycles
        finally:
            ARBITER_REGISTRY.pop(name)

    def test_external_arbiter_instance_falls_back_and_still_simulates(self):
        """An arbiter injected via ``System(arbiter=...)`` may be a subclass
        overriding selection, so the ``type() is`` guard must refuse to run
        the specialised loop even though the configuration digest matches."""

        class PoliteRoundRobin(RoundRobinArbiter):
            pass

        config = small_config()
        ports = config.num_cores + 1  # bus_only: demand ports + response port

        def build(engine: str = "event") -> System:
            return System(
                config.with_overrides(engine=engine),
                _rsk_programs(config),
                preload_l2=True,
                arbiter=PoliteRoundRobin(ports),
            )

        engine = make_engine("codegen", build())
        assert engine.fallback_reason is not None
        assert "PoliteRoundRobin" in engine.fallback_reason
        fallback = build("codegen").run(observed_cores=[0])
        oracle = build("stepped").run(observed_cores=[0])
        assert fallback.cycles == oracle.cycles


# --------------------------------------------------------------------------- #
# The self-checking diagnostics variant.
# --------------------------------------------------------------------------- #


class TestDiagnosticsLoop:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_diagnostics_loop_agrees_without_tripping(self, topology):
        """The diagnostics loop cross-checks every inlined winner and every
        horizon against the generic resource methods; on a correct build it
        must finish silently, on the oracle's exact cycle."""
        config = _topology_config(topology)
        oracle = System(config.with_overrides(engine="stepped"), _rsk_programs(config)).run(
            observed_cores=[0]
        )
        loop = compile_loop(config, diagnostics=True)
        cycle, timed_out = loop.run(System(config, _rsk_programs(config)), [0], 2_000_000)
        assert not timed_out
        assert cycle + 1 == oracle.cycles
