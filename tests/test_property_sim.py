"""Property-based tests (hypothesis) for the simulator substrate."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.sim.arbiter import RoundRobinArbiter
from repro.sim.cache import SetAssociativeCache
from repro.sim.isa import Alu, Load, Nop, Program, Store
from repro.sim.system import System

# tests/ is not a package (no __init__.py); pytest's rootdir-relative sys.path
# insertion makes the sibling module importable absolutely.
from test_core import micro_config

# --------------------------------------------------------------------------- #
# Cache invariants.
# --------------------------------------------------------------------------- #

cache_configs = st.builds(
    CacheConfig,
    size_bytes=st.sampled_from([512, 1024, 2048, 4096]),
    ways=st.sampled_from([1, 2, 4]),
    line_size=st.sampled_from([16, 32, 64]),
    replacement=st.sampled_from(["lru", "fifo"]),
)

addresses = st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200)


class TestCacheProperties:
    @given(config=cache_configs, addrs=addresses)
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, config, addrs):
        cache = SetAssociativeCache(config)
        for addr in addrs:
            if not cache.lookup(addr):
                cache.fill(addr)
        assert cache.occupancy() <= config.ways * config.num_sets
        for line_set_index in range(config.num_sets):
            assert cache.ways_used(line_set_index * config.line_size) <= config.ways

    @given(config=cache_configs, addrs=addresses)
    @settings(max_examples=60, deadline=None)
    def test_filled_line_hits_immediately_afterwards(self, config, addrs):
        cache = SetAssociativeCache(config)
        for addr in addrs:
            cache.fill(addr)
            assert cache.lookup(addr), "a just-filled line must hit"

    @given(config=cache_configs, addrs=addresses)
    @settings(max_examples=60, deadline=None)
    def test_stats_accesses_equals_number_of_lookups(self, config, addrs):
        cache = SetAssociativeCache(config)
        for addr in addrs:
            cache.lookup(addr)
        assert cache.stats.accesses == len(addrs)
        assert cache.stats.read_hits + cache.stats.read_misses == len(addrs)


# --------------------------------------------------------------------------- #
# Round-robin arbiter invariants.
# --------------------------------------------------------------------------- #


class TestRoundRobinProperties:
    @given(
        num_ports=st.integers(min_value=1, max_value=8),
        grants=st.lists(st.integers(min_value=0, max_value=7), max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_priority_order_is_always_a_permutation(self, num_ports, grants):
        arbiter = RoundRobinArbiter(num_ports)
        for port in grants:
            arbiter.notify_grant(0, port % num_ports)
            assert sorted(arbiter.priority_order()) == list(range(num_ports))

    @given(num_ports=st.integers(min_value=2, max_value=8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_pending_port_served_within_one_round(self, num_ports, data):
        """Starvation freedom: with all ports pending, each port is granted
        exactly once in any window of num_ports consecutive grants."""
        arbiter = RoundRobinArbiter(
            num_ports,
            initial_owner=data.draw(st.integers(min_value=-1, max_value=num_ports - 1)),
        )
        pending = list(range(num_ports))
        granted = []
        for _ in range(num_ports):
            winner = arbiter.select(0, pending)
            granted.append(winner)
            arbiter.notify_grant(0, winner)
        assert sorted(granted) == pending


# --------------------------------------------------------------------------- #
# Whole-system invariants on randomly generated small programs.
# --------------------------------------------------------------------------- #


program_strategy = st.builds(
    lambda body, iterations: Program(name="random", body=tuple(body), iterations=iterations),
    body=st.lists(
        st.one_of(
            st.builds(Nop),
            st.builds(Alu, latency=st.integers(min_value=1, max_value=3)),
            st.builds(
                Load, addr=st.integers(min_value=0, max_value=15).map(lambda i: 0x100 + 32 * i)
            ),
            st.builds(
                Store, addr=st.integers(min_value=0, max_value=15).map(lambda i: 0x300 + 32 * i)
            ),
        ),
        min_size=1,
        max_size=10,
    ),
    iterations=st.integers(min_value=1, max_value=6),
)


class TestSystemProperties:
    @given(program=program_strategy)
    @settings(max_examples=40, deadline=None)
    def test_event_engine_never_changes_execution_time(self, program):
        config = micro_config(num_cores=1)
        times = []
        for engine in ("event", "stepped"):
            system = System(
                config.with_overrides(engine=engine), [program], preload_il1=True, preload_l2=True
            )
            times.append(system.run().execution_time(0))
        assert times[0] == times[1]

    @given(program=program_strategy)
    @settings(max_examples=40, deadline=None)
    def test_all_instructions_retire_and_time_is_bounded_below(self, program):
        config = micro_config(num_cores=1)
        system = System(config, [program], preload_il1=True, preload_l2=True)
        result = system.run()
        total = program.total_instructions
        assert result.instructions[0] == total
        # Every instruction needs at least one cycle.
        assert result.execution_time(0) >= total

    @given(program=program_strategy)
    @settings(max_examples=30, deadline=None)
    def test_bus_busy_cycles_consistent_with_requests(self, program):
        config = micro_config(num_cores=1)
        system = System(config, [program], trace=True, preload_il1=True, preload_l2=True)
        result = system.run()
        completed = result.trace.completed_records()
        assert result.pmc.bus_busy_cycles == sum(r.service_cycles for r in completed)

    @given(program=program_strategy, contended=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_contention_never_speeds_up_a_single_request_platform(self, program, contended):
        """On this in-order platform adding rsk contenders never shortens the
        observed execution time (no timing anomalies for these kernels)."""
        from repro.kernels.rsk import build_rsk

        config = micro_config(num_cores=2)
        alone = System(config, [program], preload_il1=True, preload_l2=True)
        time_alone = alone.run(observed_cores=[0]).execution_time(0)
        programs = [program, build_rsk(config, 1) if contended else None]
        both = System(config, programs, preload_il1=True, preload_l2=True)
        time_both = both.run(observed_cores=[0]).execution_time(0)
        assert time_both >= time_alone
