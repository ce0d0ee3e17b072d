"""The tables a program shares, and the plans it must not.

A :class:`~repro.sim.isa.Program` object holds what is derived from it
alone: the cores' :class:`~repro.sim.core.CompiledProgram` tables (once per
DL1 hit and nop latency) and its line footprint (once per line size).  Every
core and every run of that object reads the same tables, so these tests
check each table against its definition, kept here as the per-instruction
code it replaced; the engine differential cannot, because the ``stepped``
oracle reads the same tables.  A segment plan holds one cache's own lines,
so plans stay on the core: a program shared by two cores, or by two systems
in turn, must run exactly like fresh copies of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ArchConfig, get_preset, small_config
from repro.methodology.workloads import build_workload_programs
from repro.sim.core import CompiledProgram
from repro.sim.isa import INSTRUCTION_BYTES, Alu, Instruction, Load, Nop, Program, Store
from repro.sim.system import System

# tests/ is not a package (no __init__.py); pytest's rootdir-relative sys.path
# insertion makes the sibling module importable absolutely.
from test_engine_equivalence import _private_cache_state


@dataclass(frozen=True)
class SubNop(Nop):
    pass


@dataclass(frozen=True)
class SubAlu(Alu):
    pass


@dataclass(frozen=True)
class SubLoad(Load):
    pass


@dataclass(frozen=True)
class SubStore(Store):
    pass


def _reference_compile(program: Optional[Program], config: ArchConfig) -> Dict[str, object]:
    """The tables as the one-instruction-at-a-time compile built them."""
    prologue: tuple = ()
    body: tuple = ()
    body_pc = 0
    total: Optional[int] = 0
    if program is not None:
        prologue = program.prologue
        body = program.body
        body_pc = program.base_pc + len(program.prologue) * INSTRUCTION_BYTES
        total = program.total_instructions
    size = len(body)
    run_stop: List[int] = list(range(size))
    latency: List[int] = [0] * (size + 1)
    nops: List[int] = [0] * (size + 1)
    loads: List[int] = [0] * (size + 1)
    load_at: List[int] = []
    load_addr: List[int] = []
    stop = size
    for index in range(size - 1, -1, -1):
        if type(body[index]) in (Nop, Alu, Load):
            run_stop[index] = stop
        else:
            stop = index
    for index, instr in enumerate(body):
        if isinstance(instr, Alu):
            cost = instr.latency
        elif isinstance(instr, (Load, Store)):
            cost = config.dl1.hit_latency
        else:
            cost = config.nop_latency
        latency[index + 1] = latency[index] + cost
        nops[index + 1] = nops[index] + isinstance(instr, Nop)
        if isinstance(instr, Load):
            load_at.append(index)
            load_addr.append(instr.addr)
        loads[index + 1] = len(load_at)
    return {
        "prologue": prologue,
        "body": body,
        "body_pc": body_pc,
        "total": total,
        "run_stop": run_stop,
        "latency": latency,
        "nops": nops,
        "loads": loads,
        "load_at": load_at,
        "load_addr": load_addr,
    }


def _reference_data_lines(program: Program, line_size: int) -> Set[int]:
    lines: Set[int] = set()
    for instr in tuple(program.prologue) + tuple(program.body):
        if isinstance(instr, (Load, Store)):
            lines.add(instr.addr - (instr.addr % line_size))
    return lines


def _reference_code_lines(program: Program, line_size: int) -> Set[int]:
    lines: Set[int] = set()
    pc = program.base_pc
    for _ in range(len(program.prologue) + len(program.body)):
        lines.add(pc - (pc % line_size))
        pc += INSTRUCTION_BYTES
    return lines


_addresses = st.integers(min_value=0, max_value=1 << 16)
_instructions = st.one_of(
    st.builds(Nop),
    st.builds(Alu, latency=st.integers(min_value=1, max_value=5)),
    st.builds(Load, addr=_addresses),
    st.builds(Store, addr=_addresses),
    st.builds(SubNop),
    st.builds(SubAlu, latency=st.integers(min_value=1, max_value=5)),
    st.builds(SubLoad, addr=_addresses),
    st.builds(SubStore, addr=_addresses),
)
_programs = st.builds(
    Program,
    name=st.just("drawn"),
    body=st.lists(_instructions, min_size=1, max_size=400).map(tuple),
    iterations=st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
    base_pc=st.integers(min_value=0, max_value=1 << 20).map(lambda word: word * 4),
    prologue=st.lists(_instructions, max_size=4).map(tuple),
)
_latencies = st.integers(min_value=1, max_value=4)


def _config(dl1_latency: int, nop_latency: int) -> ArchConfig:
    config = small_config()
    return config.with_overrides(
        dl1=replace(config.dl1, hit_latency=dl1_latency), nop_latency=nop_latency
    )


class TestDerivedTablesMatchTheirDefinitions:
    @given(program=_programs, dl1_latency=_latencies, nop_latency=_latencies)
    @settings(max_examples=300, deadline=None)
    def test_compiled_tables_equal_the_reference_compile(self, program, dl1_latency, nop_latency):
        config = _config(dl1_latency, nop_latency)
        code = CompiledProgram.of(program, config)
        expected = _reference_compile(program, config)
        assert {name: getattr(code, name) for name in expected} == expected
        # Built once per program object and latency pair.
        assert CompiledProgram.of(program, config) is code
        assert CompiledProgram.of(replace(program), config) is not code

    @given(program=_programs)
    @settings(max_examples=100, deadline=None)
    def test_subclasses_stay_out_of_runs_and_tails(self, program):
        code = CompiledProgram.of(program, small_config())
        for position, instr in enumerate(program.body):
            if type(instr) not in (Nop, Alu, Load):
                assert code.run_stop[position] == position
        # A run ends at the end of the body or at an instruction outside runs.
        for position, stop in enumerate(code.run_stop):
            assert stop in (position, len(program.body)) or code.run_stop[stop] == stop

    @given(program=_programs, line_size=st.sampled_from([16, 32, 64, 128]))
    @settings(max_examples=300, deadline=None)
    def test_line_footprints_equal_their_definitions(self, program, line_size):
        data, code = program.footprint(line_size)
        assert program.data_lines(line_size) == _reference_data_lines(program, line_size)
        assert program.code_lines(line_size) == _reference_code_lines(program, line_size)
        assert list(data) == sorted(_reference_data_lines(program, line_size))
        assert list(code) == sorted(_reference_code_lines(program, line_size))
        assert program.footprint(line_size) is program.footprint(line_size)

    def test_idle_core_tables(self):
        expected = _reference_compile(None, small_config())
        code = CompiledProgram.of(None, small_config())
        assert {name: getattr(code, name) for name in expected} == expected

    def test_an_unknown_instruction_costs_a_nop_and_ends_runs(self):
        body = (Nop(), Instruction(), Nop())
        program = Program(name="odd", body=body, iterations=1)
        config = _config(3, 2)
        code = CompiledProgram.of(program, config)
        assert code.latency == _reference_compile(program, config)["latency"] == [0, 2, 4, 6]
        assert code.run_stop == [1, 1, 3]

    def test_tables_stay_off_equality_hash_and_repr(self):
        program = Program(name="p", body=(Nop(), Load(0x40)), iterations=3)
        twin = Program(name="p", body=(Nop(), Load(0x40)), iterations=3)
        CompiledProgram.of(program, small_config())
        program.footprint(32)
        assert program == twin and hash(program) == hash(twin)
        assert repr(program) == repr(twin)


def _synthetic_programs(config: ArchConfig) -> List[Optional[Program]]:
    """DL1-resident synthetic tasks (every load hits, so segments run from
    store to store and get planned); core 1 runs the very object core 0
    does."""
    programs = build_workload_programs(
        config, ("basefp", "bitmnp", "rspeed", "basefp"), 0, 40, seed=9
    )
    programs[1] = programs[0]
    return programs


def _fresh(programs: List[Optional[Program]]) -> List[Optional[Program]]:
    """Equal programs that share no table with ``programs``."""
    return [None if program is None else replace(program) for program in programs]


def _run(config: ArchConfig, engine: str, programs: List[Optional[Program]]):
    system = System(
        config.with_overrides(engine=engine),
        programs,
        preload_l2=True,
        preload_il1=True,
        preload_dl1=True,
    )
    result = system.run(observed_cores=[0])
    state = {
        "cycles": result.cycles,
        "done_cycles": result.done_cycles,
        "instructions": result.instructions,
        "pmc": result.pmc.as_dict(),
        "caches": _private_cache_state(system),
    }
    return system, state, result.skip


class TestSegmentPlansStayPerCore:
    """Sharing a program object must not share its segment plans: a plan
    replays stamps into one cache's line lists."""

    @pytest.fixture(scope="class")
    def config(self):
        return get_preset("ref")

    def test_one_program_object_on_two_cores(self, config):
        programs = _synthetic_programs(config)
        system, state, skip = _run(config, "event", programs)
        assert system.cores[0]._code is system.cores[1]._code
        assert system.cores[0]._plans is not system.cores[1]._plans
        for core in system.cores[:2]:
            assert any(plan.stop for plan in core._plans.values())
        _, fresh_state, fresh_skip = _run(config, "event", _fresh(programs))
        assert state == fresh_state
        assert skip == fresh_skip
        _, oracle_state, _ = _run(config, "stepped", _fresh(programs))
        assert state == oracle_state

    def test_one_program_object_in_two_systems_in_turn(self, config):
        programs = _synthetic_programs(config)
        first, first_state, first_skip = _run(config, "event", programs)
        second, second_state, second_skip = _run(config, "event", programs)
        assert second.cores[0]._code is first.cores[0]._code
        assert any(plan.stop for plan in second.cores[0]._plans.values())
        _, fresh_state, fresh_skip = _run(config, "event", _fresh(programs))
        assert first_state == second_state == fresh_state
        assert first_skip == second_skip == fresh_skip
        _, oracle_state, _ = _run(config, "stepped", _fresh(programs))
        assert second_state == oracle_state
