"""Unit tests for the instruction and program model."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import pytest

from repro.errors import ProgramError
from repro.sim.isa import (
    INSTRUCTION_BYTES,
    Alu,
    Load,
    Nop,
    Program,
    Store,
    concatenate_bodies,
)


class TestInstructions:
    def test_nop_is_not_memory(self):
        assert not Nop().is_memory

    def test_alu_default_latency(self):
        assert Alu().latency == 1

    def test_alu_rejects_zero_latency(self):
        with pytest.raises(ProgramError):
            Alu(latency=0)

    def test_load_is_memory(self):
        assert Load(0x100).is_memory

    def test_store_is_memory(self):
        assert Store(0x100).is_memory

    def test_load_rejects_negative_address(self):
        with pytest.raises(ProgramError):
            Load(-4)

    def test_store_rejects_negative_address(self):
        with pytest.raises(ProgramError):
            Store(-4)

    def test_mnemonics(self):
        assert Nop().mnemonic == "nop"
        assert Alu().mnemonic == "alu"
        assert Load(0).mnemonic == "load"
        assert Store(0).mnemonic == "store"

    def test_mnemonic_is_the_lowercase_class_name_of_each_subclass(self):
        @dataclass(frozen=True)
        class FusedLoad(Load):
            pass

        assert Load.mnemonic == "load"
        assert FusedLoad.mnemonic == FusedLoad(0).mnemonic == "fusedload"
        assert [field.name for field in fields(Load)] == ["addr"]

    def test_instructions_are_hashable_and_reusable(self):
        body = (Load(0x40),) * 3
        assert len({id(instr) for instr in body}) == 1


class TestProgramValidation:
    def test_empty_body_rejected(self):
        with pytest.raises(ProgramError):
            Program(name="empty", body=())

    def test_negative_iterations_rejected(self):
        with pytest.raises(ProgramError):
            Program(name="bad", body=(Nop(),), iterations=-1)

    def test_unaligned_base_pc_rejected(self):
        with pytest.raises(ProgramError):
            Program(name="bad", body=(Nop(),), base_pc=2)

    def test_non_instruction_in_body_rejected(self):
        with pytest.raises(ProgramError):
            Program(name="bad", body=(Nop(), "load r1"), iterations=1)

    def test_zero_iterations_allowed(self):
        program = Program(name="noop", body=(Nop(),), iterations=0)
        assert program.total_instructions == 0


class TestProgramProperties:
    def test_infinite_program(self):
        program = Program(name="inf", body=(Nop(),), iterations=None)
        assert program.is_infinite
        assert program.total_instructions is None
        assert program.count_memory_instructions() is None

    def test_total_instructions_counts_prologue(self):
        program = Program(name="p", body=(Nop(), Nop()), iterations=3, prologue=(Alu(),))
        assert program.total_instructions == 1 + 3 * 2

    def test_memory_instruction_count(self):
        body = (Load(0), Nop(), Store(64))
        program = Program(name="p", body=body, iterations=5)
        assert program.count_memory_instructions() == 10

    def test_data_lines_are_line_aligned(self):
        program = Program(name="p", body=(Load(0x101), Store(0x13F)), iterations=1)
        assert program.data_lines(32) == {0x100, 0x120}

    def test_code_lines_cover_prologue_and_body(self):
        program = Program(
            name="p",
            body=tuple(Nop() for _ in range(10)),
            prologue=(Nop(),),
            iterations=1,
            base_pc=0x1000,
        )
        lines = program.code_lines(32)
        # 11 instructions of 4 bytes = 44 bytes starting at 0x1000 -> 2 lines.
        assert lines == {0x1000, 0x1020}

    def test_body_length(self):
        program = Program(name="p", body=(Nop(), Nop(), Nop()), iterations=1)
        assert program.body_length == 3

    def test_with_iterations_preserves_other_fields(self):
        program = Program(name="p", body=(Load(0),), iterations=2, base_pc=0x2000)
        other = program.with_iterations(None)
        assert other.is_infinite
        assert other.base_pc == 0x2000
        assert other.body == program.body

    def test_summary_mentions_mix_and_iterations(self):
        program = Program(name="mix", body=(Load(0), Nop()), iterations=7)
        summary = program.summary()
        assert "mix" in summary
        assert "7" in summary
        assert "load" in summary


class TestInstructionStream:
    def test_finite_stream_length(self):
        program = Program(name="p", body=(Nop(), Nop()), iterations=3)
        assert len(list(program.instruction_stream())) == 6

    def test_stream_pcs_repeat_across_iterations(self):
        program = Program(name="p", body=(Nop(), Nop()), iterations=2, base_pc=0x100)
        pcs = [pc for pc, _ in program.instruction_stream()]
        assert pcs == [0x100, 0x104, 0x100, 0x104]

    def test_prologue_comes_first_with_distinct_pcs(self):
        program = Program(name="p", body=(Nop(),), iterations=2, prologue=(Alu(),), base_pc=0x100)
        stream = list(program.instruction_stream())
        assert stream[0][0] == 0x100
        assert isinstance(stream[0][1], Alu)
        assert stream[1][0] == 0x100 + INSTRUCTION_BYTES

    def test_infinite_stream_keeps_producing(self):
        program = Program(name="inf", body=(Nop(),), iterations=None)
        first_ten = list(itertools.islice(program.instruction_stream(), 10))
        assert len(first_ten) == 10

    def test_stream_preserves_instruction_identity(self):
        load = Load(0x40)
        program = Program(name="p", body=(load,), iterations=3)
        instrs = [instr for _, instr in program.instruction_stream()]
        assert all(instr is load for instr in instrs)


class TestConcatenateBodies:
    def test_concatenates_in_order(self):
        a = (Load(0),)
        b = (Nop(), Nop())
        combined = concatenate_bodies(a, b)
        assert combined == (Load(0), Nop(), Nop())

    def test_empty_parts_allowed(self):
        assert concatenate_bodies((), (Nop(),)) == (Nop(),)
