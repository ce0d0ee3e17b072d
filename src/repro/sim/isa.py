"""Minimal instruction-set and program model executed by the simulated cores.

The paper's kernels (rsk, rsk-nop and the EEMBC-like workloads) only need a
handful of instruction kinds:

* :class:`Load` — reads one word; may miss in the DL1 and generate a bus
  request to the shared L2.
* :class:`Store` — write-through store; retires into the store buffer and
  generates a bus request asynchronously.
* :class:`Nop` — the low-latency filler instruction used by ``rsk-nop`` to
  stretch the injection time between bus requests.
* :class:`Alu` — a generic single-register operation with a configurable
  latency, used to model loop-control overhead and the compute phases of the
  synthetic workloads.

A :class:`Program` is a loop body (a finite sequence of instructions with
consecutive program counters) executed for a given number of iterations, or
forever (contender kernels must never finish before the software under
analysis, Section 3.1 of the paper).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Hashable,
    Iterator,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..errors import ProgramError

#: Size of one encoded instruction in bytes (SPARC V8 instructions are 4 bytes).
INSTRUCTION_BYTES = 4

_T = TypeVar("_T")


@dataclass(frozen=True)
class Instruction:
    """Base class for all instructions.

    Concrete instructions are immutable so a single loop-body object can be
    reused across millions of iterations without copying.
    """

    #: Short human-readable name used in traces and reports: the lowercase
    #: class name, set once per class (every retirement reads it).
    mnemonic: ClassVar[str] = "instruction"
    #: True if the instruction reads or writes data memory; a class
    #: attribute, so counting a program's memory instructions calls nothing.
    is_memory: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.mnemonic = cls.__name__.lower()


@dataclass(frozen=True)
class Nop(Instruction):
    """A no-operation instruction; its latency is taken from the architecture."""


@dataclass(frozen=True)
class Alu(Instruction):
    """A register-to-register operation with an explicit latency in cycles."""

    latency: int = 1

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ProgramError(f"ALU latency must be >= 1, got {self.latency}")


@dataclass(frozen=True)
class Load(Instruction):
    """A load from ``addr``; the unit of access is one word inside a line."""

    is_memory: ClassVar[bool] = True
    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ProgramError(f"load address must be non-negative, got {self.addr}")


@dataclass(frozen=True)
class Store(Instruction):
    """A store to ``addr``; write-through, completes into the store buffer."""

    is_memory: ClassVar[bool] = True
    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ProgramError(f"store address must be non-negative, got {self.addr}")


@dataclass(frozen=True)
class Program:
    """A loop of instructions executed by one core.

    Attributes:
        name: label used in traces, reports and error messages.
        body: the loop body; every element is an :class:`Instruction`.
        iterations: number of times the body is executed, or ``None`` to run
            forever (used for contender kernels which must outlive the
            software under analysis).
        base_pc: program counter of the first body instruction; bodies of
            different programs should not overlap so instruction-cache
            behaviour stays realistic.
        prologue: instructions executed once before the loop starts (for
            example cache-warming accesses).

    A program also holds the tables derived from it (:meth:`derived`), each
    built the first time a run asks for it: the cores' compiled tables and
    the line footprints the system preloads.  The program is frozen, so they
    never go stale; they are not fields, so equality, hash and repr stay
    field-based.
    """

    name: str
    body: Tuple[Instruction, ...]
    iterations: Optional[int] = None
    base_pc: int = 0x4000_0000
    prologue: Tuple[Instruction, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_derived", {})
        if not self.body:
            raise ProgramError(f"program {self.name!r} has an empty loop body")
        if self.iterations is not None and self.iterations < 0:
            raise ProgramError(
                f"program {self.name!r} has negative iteration count {self.iterations}"
            )
        if self.base_pc < 0 or self.base_pc % INSTRUCTION_BYTES != 0:
            raise ProgramError(
                f"program {self.name!r} base_pc must be a non-negative multiple of "
                f"{INSTRUCTION_BYTES}"
            )
        for instr in tuple(self.prologue) + tuple(self.body):
            if not isinstance(instr, Instruction):
                raise ProgramError(
                    f"program {self.name!r} contains a non-instruction object: {instr!r}"
                )

    # ------------------------------------------------------------------ #
    # Introspection helpers.
    # ------------------------------------------------------------------ #
    @property
    def is_infinite(self) -> bool:
        """True if the program never terminates on its own."""
        return self.iterations is None

    @property
    def body_length(self) -> int:
        """Number of instructions in the loop body."""
        return len(self.body)

    @property
    def total_instructions(self) -> Optional[int]:
        """Total dynamic instruction count, or ``None`` for infinite programs."""
        if self.iterations is None:
            return None
        return len(self.prologue) + self.iterations * len(self.body)

    def count_memory_instructions(self) -> Optional[int]:
        """Dynamic number of loads and stores, or ``None`` for infinite programs."""
        if self.iterations is None:
            return None
        per_body = sum(1 for instr in self.body if instr.is_memory)
        in_prologue = sum(1 for instr in self.prologue if instr.is_memory)
        return in_prologue + self.iterations * per_body

    def derived(self, key: Hashable, build: Callable[["Program"], _T]) -> _T:
        """``build(self)``, built once per ``key`` for this program object."""
        memo: Dict[Hashable, Any] = self._derived  # type: ignore[attr-defined]
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = build(self)
            return value

    def footprint(self, line_size: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The data-line and the code-line addresses of :meth:`data_lines`
        and :meth:`code_lines`, each sorted, derived once per line size
        (``line_size`` is a power of two, as every cache's is)."""
        return self.derived(
            ("footprint", line_size), lambda program: program._footprint(line_size)
        )

    def _footprint(self, line_size: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        data = {
            instr.addr - instr.addr % line_size
            for instr in self.prologue + self.body
            if isinstance(instr, (Load, Store))
        }
        # The instructions fill [base_pc, end) without a gap, so every line
        # from the first one's to the last one's holds at least one of them.
        end = self.base_pc + (len(self.prologue) + len(self.body)) * INSTRUCTION_BYTES
        first = self.base_pc - self.base_pc % line_size
        return tuple(sorted(data)), tuple(range(first, end, max(line_size, INSTRUCTION_BYTES)))

    def data_lines(self, line_size: int) -> Set[int]:
        """Return the set of data line addresses the static program touches."""
        return set(self.footprint(line_size)[0])

    def code_lines(self, line_size: int) -> Set[int]:
        """Return the set of instruction line addresses occupied by the program."""
        return set(self.footprint(line_size)[1])

    # ------------------------------------------------------------------ #
    # Execution stream.
    # ------------------------------------------------------------------ #
    def instruction_stream(self) -> Iterator[Tuple[int, Instruction]]:
        """Yield ``(pc, instruction)`` pairs in program order.

        The prologue occupies the program counters immediately before the
        loop body so its lines land in the instruction cache naturally.  The
        loop body reuses the same program counters on every iteration, which
        lets the instruction cache model capture the fact that small kernels
        only take cold misses.  :class:`repro.sim.core.Core` walks the same
        order with an index cursor; this generator is the reference the
        tests check that cursor against.
        """
        prologue_pc = self.base_pc
        for index, instr in enumerate(self.prologue):
            yield prologue_pc + index * INSTRUCTION_BYTES, instr

        body_base = self.base_pc + len(self.prologue) * INSTRUCTION_BYTES
        body_pcs = tuple(body_base + index * INSTRUCTION_BYTES for index in range(len(self.body)))
        counter = (range(self.iterations) if self.iterations is not None else itertools.count())
        for _ in counter:
            for pc, instr in zip(body_pcs, self.body):
                yield pc, instr

    def with_iterations(self, iterations: Optional[int]) -> "Program":
        """Return a copy of the program with a different iteration count."""
        return Program(
            name=self.name,
            body=self.body,
            iterations=iterations,
            base_pc=self.base_pc,
            prologue=self.prologue,
        )

    def summary(self) -> str:
        """One-line description used by reports."""
        kinds = {}
        for instr in self.body:
            kinds[instr.mnemonic] = kinds.get(instr.mnemonic, 0) + 1
        mix = ", ".join(f"{count}x {name}" for name, count in sorted(kinds.items()))
        reps = "inf" if self.iterations is None else str(self.iterations)
        return f"{self.name}: body[{mix}] x {reps}"


def concatenate_bodies(*parts: Sequence[Instruction]) -> Tuple[Instruction, ...]:
    """Concatenate several instruction sequences into one loop body tuple."""
    body = []
    for part in parts:
        body.extend(part)
    return tuple(body)
