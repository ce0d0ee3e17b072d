"""Unit tests for the rsk / rsk-nop / nop kernel generators."""

from __future__ import annotations

import pytest

from repro.config import reference_config, small_config
from repro.errors import ProgramError
from repro.kernels.rsk import (
    build_bank_conflict_rsk,
    build_nop_kernel,
    build_rsk,
    build_rsk_nop,
    rsk_request_count,
)
from repro.sim.isa import Alu, Load, Nop, Store
from repro.sim.system import System


@pytest.fixture(scope="module")
def ref():
    return reference_config()


class TestBuildRsk:
    def test_body_has_w_plus_one_memory_operations(self, ref):
        program = build_rsk(ref, 0, iterations=10)
        assert program.body_length == ref.dl1.ways + 1
        assert all(isinstance(instr, Load) for instr in program.body)

    def test_store_variant(self, ref):
        program = build_rsk(ref, 0, kind="store", iterations=10)
        assert all(isinstance(instr, Store) for instr in program.body)

    def test_unknown_kind_rejected(self, ref):
        with pytest.raises(ProgramError):
            build_rsk(ref, 0, kind="atomic")

    def test_contender_is_infinite_by_default(self, ref):
        assert build_rsk(ref, 1).is_infinite

    def test_addresses_map_to_one_dl1_set(self, ref):
        program = build_rsk(ref, 0, iterations=1)
        shift = ref.dl1.line_size.bit_length() - 1
        sets = {(instr.addr >> shift) & (ref.dl1.num_sets - 1) for instr in program.body}
        assert len(sets) == 1

    def test_cores_use_disjoint_addresses(self, ref):
        a = build_rsk(ref, 0, iterations=1)
        b = build_rsk(ref, 1, iterations=1)
        assert a.data_lines(32).isdisjoint(b.data_lines(32))
        assert a.base_pc != b.base_pc

    def test_loop_control_overhead_appends_alu(self, ref):
        program = build_rsk(ref, 0, iterations=1, loop_control_overhead=2)
        assert isinstance(program.body[-1], Alu)
        assert program.body[-1].latency == 2

    def test_extra_conflict_lines_must_be_positive(self, ref):
        with pytest.raises(ProgramError):
            build_rsk(ref, 0, extra_conflict_lines=0)

    def test_rsk_always_misses_dl1_and_hits_l2(self, ref):
        """The defining property from Section 2 of the paper."""
        program = build_rsk(ref, 0, iterations=20)
        system = System(ref, [program], preload_il1=True, preload_l2=True)
        result = system.run()
        core = system.cores[0]
        assert core.dl1.stats.read_hits == 0
        assert result.pmc.dram_accesses == 0
        assert result.pmc.core[0].bus_requests == rsk_request_count(program)


class TestBuildRskNop:
    def test_nops_inserted_after_each_memory_operation(self, ref):
        program = build_rsk_nop(ref, 0, k=3, iterations=5)
        memory_ops = ref.dl1.ways + 1
        assert program.body_length == memory_ops * (1 + 3)
        nops = sum(1 for instr in program.body if isinstance(instr, Nop))
        assert nops == memory_ops * 3

    def test_k_zero_reduces_to_plain_rsk_body(self, ref):
        plain = build_rsk(ref, 0, iterations=5)
        with_nop = build_rsk_nop(ref, 0, k=0, iterations=5)
        assert with_nop.body == plain.body

    def test_negative_k_rejected(self, ref):
        with pytest.raises(ProgramError):
            build_rsk_nop(ref, 0, k=-1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda config: build_rsk_nop(config, 0, k=1, iterations=0),
            lambda config: build_rsk(config, 0, iterations=0),
        ],
        ids=["rsk-nop", "rsk"],
    )
    def test_must_be_finite(self, ref, build):
        with pytest.raises(ProgramError, match="at least one iteration"):
            build(ref)

    def test_store_variant_with_nops(self, ref):
        program = build_rsk_nop(ref, 0, kind="store", k=2, iterations=5)
        stores = sum(1 for instr in program.body if isinstance(instr, Store))
        assert stores == ref.dl1.ways + 1

    def test_request_count_independent_of_k(self, ref):
        for k in (0, 1, 10):
            program = build_rsk_nop(ref, 0, k=k, iterations=7)
            assert rsk_request_count(program) == 7 * (ref.dl1.ways + 1)

    def test_name_mentions_k_and_kind(self, ref):
        program = build_rsk_nop(ref, 2, kind="store", k=4, iterations=1)
        assert "store" in program.name
        assert "k=4" in program.name
        assert "core2" in program.name


class TestBuildNopKernel:
    def test_body_is_all_nops(self, ref):
        program = build_nop_kernel(ref, 0, iterations=2)
        assert all(isinstance(instr, Nop) for instr in program.body)

    def test_body_fits_in_il1(self, ref):
        program = build_nop_kernel(ref, 0, iterations=1)
        code_bytes = program.body_length * 4
        assert code_bytes < ref.il1.size_bytes

    def test_fraction_bounds_enforced(self, ref):
        with pytest.raises(ProgramError):
            build_nop_kernel(ref, 0, body_fraction_of_il1=1.5)

    def test_iterations_must_be_positive(self, ref):
        with pytest.raises(ProgramError):
            build_nop_kernel(ref, 0, iterations=0)


class TestRequestCount:
    def test_counts_dynamic_memory_operations(self, ref):
        program = build_rsk(ref, 0, iterations=12)
        assert rsk_request_count(program) == 12 * (ref.dl1.ways + 1)

    def test_infinite_program_rejected(self, ref):
        with pytest.raises(ProgramError):
            rsk_request_count(build_rsk(ref, 0))

    def test_small_platform_kernels_also_valid(self):
        config = small_config()
        program = build_rsk(config, 0, iterations=4)
        assert rsk_request_count(program) == 4 * (config.dl1.ways + 1)


class TestBuildBankConflictRsk:
    def test_addresses_collide_in_dl1_l2_and_one_bank(self, ref):
        from repro.sim.dram import Dram

        program = build_bank_conflict_rsk(ref, 0, iterations=5)
        addresses = [instr.addr for instr in program.body]
        # More lines than DL1 ways and than the core's L2 partition ways.
        assert len(addresses) == max(ref.dl1.ways, len(ref.l2_ways_for_core(0))) + 1
        dl1_sets = {(addr // ref.dl1.line_size) % ref.dl1.num_sets for addr in addresses}
        assert len(dl1_sets) == 1
        l2 = ref.l2.cache
        l2_sets = {(addr // l2.line_size) % l2.num_sets for addr in addresses}
        assert len(l2_sets) == 1
        dram = Dram(ref.dram)
        assert {dram.bank_of(addr) for addr in addresses} == {0}

    def test_every_core_targets_the_same_bank(self, ref):
        from repro.sim.dram import Dram

        dram = Dram(ref.dram)
        banks = set()
        for core in range(ref.num_cores):
            program = build_bank_conflict_rsk(ref, core, iterations=None)
            banks |= {dram.bank_of(instr.addr) for instr in program.body}
        assert banks == {0}

    def test_target_bank_is_respected(self, ref):
        from repro.sim.dram import Dram

        dram = Dram(ref.dram)
        program = build_bank_conflict_rsk(ref, 0, iterations=2, target_bank=2)
        assert {dram.bank_of(instr.addr) for instr in program.body} == {2}

    def test_footprint_must_miss_the_l2(self, ref):
        from repro.kernels.layout import footprint_fits_l2_partition

        program = build_bank_conflict_rsk(ref, 0, iterations=2)
        addresses = [instr.addr for instr in program.body]
        # The whole point: unlike the plain rsk, the footprint does NOT fit
        # the core's partition, so every access reaches the memory stage.
        assert not footprint_fits_l2_partition(ref, addresses)

    def test_invalid_bank_rejected(self, ref):
        with pytest.raises(ProgramError):
            build_bank_conflict_rsk(ref, 0, target_bank=ref.dram.num_banks)

    def test_store_variant_builds(self, ref):
        program = build_bank_conflict_rsk(ref, 1, kind="store", iterations=3)
        assert all(isinstance(instr, Store) for instr in program.body)

    def test_sustained_dram_traffic_and_queue_contention(self):
        """Simulation-level acceptance: on bus_bank_queues the kernel keeps
        missing both cache levels every iteration (sustained DRAM traffic,
        unlike the plain rsk whose lines settle into the L2) and Nc bank
        kernels produce genuine bank-queue waits bounded by the memory
        term."""
        from repro.config import TopologyConfig

        config = small_config(topology=TopologyConfig(name="bus_bank_queues"))
        iterations = 20
        programs = [
            build_bank_conflict_rsk(config, core, iterations=None)
            for core in range(config.num_cores)
        ]
        programs[0] = build_bank_conflict_rsk(config, 0, iterations=iterations)
        system = System(config, programs, preload_il1=True)
        result = system.run(observed_cores=[0])
        lines_per_iteration = len(programs[0].body)
        # Every load of every iteration reached the DRAM.
        assert result.pmc.core[0].loads == iterations * lines_per_iteration
        assert result.pmc.dram_accesses >= iterations * lines_per_iteration
        stats = system.memctrl.stats
        assert stats.queue_grants > 0
        assert 0 < stats.max_queue_wait <= config.ubd_terms["memory"]


class TestRskRegistry:
    """The resource -> worst-case-stressor registry the measured-bound
    pipeline selects kernels from."""

    def test_built_in_resources_registered(self):
        from repro.kernels.rsk import registered_rsks

        assert registered_rsks() == ("bus", "memory", "bus_response")

    def test_entries_build_the_expected_kernels(self):
        from repro.kernels.rsk import rsk_for_resource

        config = small_config()
        assert rsk_for_resource("bus").build(config, 0, iterations=5).name.startswith("rsk-load")
        assert rsk_for_resource("memory").build(config, 1).name.startswith("rsk-bank")
        assert rsk_for_resource("bus_response").build(config, 2).name.startswith("rsk-response")

    def test_unknown_resource_names_alternatives(self):
        from repro.errors import ConfigurationError
        from repro.kernels.rsk import rsk_for_resource

        with pytest.raises(ConfigurationError, match="bus_response"):
            rsk_for_resource("crossbar")

    def test_duplicate_registration_rejected(self):
        from repro.errors import ConfigurationError
        from repro.kernels.rsk import register_rsk

        with pytest.raises(ConfigurationError):
            register_rsk("bus")(lambda config, core, kind, iterations: None)

    def test_stress_contender_set_covers_other_cores(self):
        from repro.kernels.rsk import build_stress_contender_set

        config = small_config()
        contenders = build_stress_contender_set(config, "memory", scua_core=1)
        assert set(contenders) == {0, 2}
        assert all(program.is_infinite for program in contenders.values())

    def test_stress_contender_set_validates_core(self):
        from repro.errors import MethodologyError
        from repro.kernels.rsk import build_stress_contender_set

        with pytest.raises(MethodologyError):
            build_stress_contender_set(small_config(), "bus", scua_core=7)


class TestBuildResponseConflictRsk:
    def test_every_access_misses_both_cache_levels(self):
        """Both conflict groups exceed the DL1 ways and the core's L2
        partition, so the kernel sustains DRAM traffic like the bank rsk."""
        from repro.kernels.rsk import build_response_conflict_rsk

        config = small_config()
        program = build_response_conflict_rsk(config, 0, iterations=1)
        addresses = [i.addr for i in program.body if isinstance(i, Load)]
        dl1 = config.dl1
        sets = {(addr // dl1.line_size) % dl1.num_sets for addr in addresses}
        # Two conflict groups: the bank-conflict set and its one-line-over
        # partner set.
        assert len(sets) == 2

    def test_per_core_banks_and_period_skew(self):
        from repro.kernels.rsk import build_response_conflict_rsk

        config = small_config()
        lengths = []
        for core in range(config.num_cores):
            program = build_response_conflict_rsk(config, core, iterations=1)
            addresses = [i.addr for i in program.body if isinstance(i, Load)]
            row = config.dram.row_size_bytes
            banks = {(addr // row) % config.dram.num_banks for addr in addresses}
            assert banks == {core % config.dram.num_banks}
            lengths.append(len(program.body))
        # Core c replays c extra addresses: no two cores share a loop period.
        assert lengths == sorted(set(lengths))

    def test_same_row_partner_is_one_line_over(self):
        from repro.kernels.rsk import build_response_conflict_rsk

        config = small_config()
        program = build_response_conflict_rsk(config, 0, iterations=1)
        addresses = [i.addr for i in program.body if isinstance(i, Load)]
        row = config.dram.row_size_bytes
        # The paired accesses land in the same DRAM row.
        assert addresses[1] == addresses[0] + config.line_size
        assert addresses[0] // row == addresses[1] // row

    def test_store_variant_supported(self):
        from repro.kernels.rsk import build_response_conflict_rsk

        program = build_response_conflict_rsk(small_config(), 0, kind="store")
        assert program.is_infinite
        assert all(isinstance(i, Store) for i in program.body)
