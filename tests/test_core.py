"""Unit tests for the in-order core timing model.

These tests run tiny programs on a single-core platform and check exact
cycle counts, which pins down the timing semantics the methodology relies on
(most importantly: the injection time of back-to-back missing loads equals
the DL1 latency).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import ArchConfig, BusConfig, CacheConfig, L2Config, StoreBufferConfig
from repro.sim.core import CoreState
from repro.sim.isa import Alu, Load, Nop, Program, Store
from repro.sim.system import System


def micro_config(
    num_cores: int = 1,
    l1_latency: int = 1,
    l2_latency: int = 2,
    transfer: int = 1,
    store_buffer_entries: int = 2,
) -> ArchConfig:
    """A minimal platform with easily hand-checkable latencies."""
    return ArchConfig(
        name="micro",
        num_cores=num_cores,
        il1=CacheConfig(size_bytes=1024, ways=2, hit_latency=l1_latency),
        dl1=CacheConfig(size_bytes=1024, ways=2, hit_latency=l1_latency),
        l2=L2Config(
            cache=CacheConfig(
                size_bytes=8 * 1024,
                ways=max(2, num_cores),
                line_size=32,
                hit_latency=l2_latency,
            )
        ),
        bus=BusConfig(transfer_latency=transfer),
        store_buffer=StoreBufferConfig(entries=store_buffer_entries),
    )


def run_single(config: ArchConfig, program: Program, **kwargs) -> int:
    """Execution time of ``program`` alone on core 0."""
    programs: List[Optional[Program]] = [program] + [None] * (config.num_cores - 1)
    system = System(config, programs, **kwargs)
    return system.run().execution_time(0)


LBUS = 3  # transfer (1) + L2 hit latency (2) of micro_config


class TestComputeTiming:
    def test_nop_takes_one_cycle_each(self):
        config = micro_config()
        program = Program(name="nops", body=tuple(Nop() for _ in range(10)), iterations=1)
        assert run_single(config, program, preload_il1=True) == 10

    def test_alu_latency_respected(self):
        config = micro_config()
        program = Program(name="alu", body=(Alu(latency=4),), iterations=5)
        assert run_single(config, program, preload_il1=True) == 20

    def test_mixed_compute(self):
        config = micro_config()
        program = Program(name="mix", body=(Nop(), Alu(latency=3)), iterations=2)
        assert run_single(config, program, preload_il1=True) == 2 * (1 + 3)

    def test_nop_latency_from_config(self):
        config = micro_config().with_overrides(nop_latency=2)
        program = Program(name="nops", body=(Nop(),), iterations=6)
        assert run_single(config, program, preload_il1=True) == 12


class TestLoadTiming:
    def test_dl1_hit_costs_l1_latency(self):
        config = micro_config(l1_latency=1)
        program = Program(name="hits", body=(Load(0x100),), iterations=8)
        # The DL1 is preloaded, so every access hits at the L1 latency.
        time = run_single(config, program, preload_il1=True, preload_dl1=True)
        assert time == 8 * config.dl1.hit_latency

    def test_l2_hit_load_costs_l1_plus_bus(self):
        config = micro_config(l1_latency=1)
        stride = config.dl1.same_set_stride
        addresses = [index * stride for index in range(config.dl1.ways + 1)]
        body = tuple(Load(addr) for addr in addresses)
        program = Program(name="l2hits", body=body, iterations=4)
        time = run_single(config, program, preload_il1=True, preload_l2=True)
        per_load = config.dl1.hit_latency + LBUS
        assert time == len(addresses) * 4 * per_load

    def test_variant_l1_latency_increases_per_load_cost(self):
        config = micro_config(l1_latency=4)
        stride = config.dl1.same_set_stride
        addresses = [index * stride for index in range(config.dl1.ways + 1)]
        program = Program(name="l2hits", body=tuple(Load(a) for a in addresses), iterations=2)
        time = run_single(config, program, preload_il1=True, preload_l2=True)
        assert time == len(addresses) * 2 * (4 + LBUS)

    def test_l2_miss_goes_to_dram_and_costs_more(self):
        config = micro_config()
        program = Program(name="cold", body=(Load(0x100),), iterations=1)
        cold_time = run_single(config, program, preload_il1=True)
        warm_time = run_single(config, program, preload_il1=True, preload_l2=True)
        assert cold_time > warm_time

    def test_store_buffer_forwarding_avoids_bus(self):
        config = micro_config()
        program = Program(name="fwd", body=(Store(0x100), Load(0x100)), iterations=1)
        programs: List[Optional[Program]] = [program]
        system = System(config, programs, trace=True, preload_il1=True, preload_l2=True)
        result = system.run()
        kinds = result.trace.count_by_kind()
        assert kinds.get("load", 0) == 0, "the load must be forwarded from the store buffer"
        assert kinds.get("store", 0) == 1


class TestStoreTiming:
    def test_store_retires_into_buffer_without_stall(self):
        config = micro_config(store_buffer_entries=8)
        program = Program(name="st", body=(Store(0x100), Nop(), Nop(), Nop()), iterations=1)
        time = run_single(config, program, preload_il1=True, preload_l2=True)
        # 1 cycle DL1 access for the store + 3 nops; draining happens off the
        # critical path.
        assert time == 4

    def test_full_store_buffer_stalls_the_core(self):
        config = micro_config(store_buffer_entries=1)
        body = tuple(Store(0x100 + 64 * index) for index in range(6))
        program = Program(name="stalls", body=body, iterations=1)
        time = run_single(config, program, preload_il1=True, preload_l2=True)
        # With a single-entry buffer the core is throttled by the bus drain
        # rate, so the run must take noticeably longer than 6 cycles.
        assert time > 6 + LBUS

    def test_stores_drain_through_the_bus(self):
        config = micro_config(store_buffer_entries=4)
        # Trailing nops keep the core busy long enough for all three buffered
        # stores to reach the bus before the program retires.
        body = tuple(Store(0x100 + 64 * index) for index in range(3)) + tuple(
            Nop() for _ in range(15)
        )
        program = Program(name="drain", body=body, iterations=1)
        system = System(config, [program], trace=True, preload_il1=True, preload_l2=True)
        result = system.run()
        assert result.trace.count_by_kind().get("store", 0) == 3


class TestInstructionFetch:
    def test_cold_ifetch_misses_reach_the_bus(self):
        config = micro_config()
        program = Program(name="code", body=tuple(Nop() for _ in range(16)), iterations=1)
        system = System(config, [program], trace=True, preload_l2=True)
        result = system.run()
        assert result.trace.count_by_kind().get("ifetch", 0) >= 1

    def test_warm_il1_removes_ifetch_traffic(self):
        config = micro_config()
        program = Program(name="code", body=tuple(Nop() for _ in range(16)), iterations=1)
        system = System(config, [program], trace=True, preload_il1=True, preload_l2=True)
        result = system.run()
        assert result.trace.count_by_kind().get("ifetch", 0) == 0

    def test_loop_body_only_cold_misses_once(self):
        config = micro_config()
        program = Program(name="loop", body=tuple(Nop() for _ in range(8)), iterations=10)
        system = System(config, [program], trace=True, preload_l2=True)
        result = system.run()
        # 8 nops * 4 bytes = 32 bytes = 1 line: exactly one ifetch miss.
        assert result.trace.count_by_kind().get("ifetch", 0) == 1


class TestCoreBookkeeping:
    def test_idle_core_reports_done(self):
        config = micro_config(num_cores=2)
        program = Program(name="p", body=(Nop(),), iterations=1)
        system = System(config, [program, None])
        assert system.cores[1].is_done
        system.run()
        assert system.cores[1].instructions_retired == 0

    def test_instruction_counts_match_program(self):
        config = micro_config()
        program = Program(name="p", body=(Load(0x100), Nop(), Store(0x140)), iterations=5)
        system = System(config, [program], preload_il1=True, preload_l2=True)
        result = system.run()
        assert result.instructions[0] == 15
        assert result.pmc.core[0].loads == 5
        assert result.pmc.core[0].stores == 5
        assert result.pmc.core[0].nops == 5

    def test_injection_time_equals_l1_latency(self):
        """The property Sections 3 and 5 rely on: delta_rsk = DL1 latency."""
        for l1_latency in (1, 2, 4):
            config = micro_config(l1_latency=l1_latency)
            stride = config.dl1.same_set_stride
            addresses = [index * stride for index in range(config.dl1.ways + 1)]
            program = Program(name="rsk-like", body=tuple(Load(a) for a in addresses), iterations=3)
            system = System(config, [program], trace=True, preload_il1=True, preload_l2=True)
            result = system.run()
            deltas = set(result.trace.injection_times(0, kinds=["load"]))
            assert deltas == {l1_latency}

    def test_fetch_order_follows_the_program_stream(self):
        """The core's program cursor fetches exactly the order of
        ``Program.instruction_stream``: prologue, then the body once per
        iteration.  Checked on the stepped oracle, which fetches one
        instruction at a time."""
        config = micro_config().with_overrides(engine="stepped")
        program = Program(
            name="p",
            body=(Load(0x100), Nop(), Alu(latency=2), Store(0x140)),
            prologue=(Nop(), Load(0x180)),
            iterations=3,
        )
        system = System(config, [program], preload_il1=True, preload_l2=True)
        core = system.cores[0]
        fetched = []
        lookup = core.il1.lookup

        def record(addr, is_write=False):
            fetched.append(addr)
            return lookup(addr, is_write)

        core.il1.lookup = record
        system.run()
        assert fetched == [pc for pc, _ in program.instruction_stream()]

    def test_done_cycle_recorded_once(self):
        config = micro_config()
        program = Program(name="p", body=(Nop(),), iterations=3)
        system = System(config, [program], preload_il1=True)
        result = system.run()
        assert result.done_cycles[0] == 3
        assert system.cores[0].state is CoreState.DONE
