"""Synthetic EEMBC-Autobench-like workload suite.

The paper's Figure 6(a) experiment runs randomly composed 4-task workloads of
EEMBC Autobench benchmarks (automotive kernels such as angle-to-time
conversion, CAN message handling, table lookups, FIR/IIR filters or matrix
arithmetic).  EEMBC is proprietary and cannot be redistributed, so this
module provides the closest synthetic equivalent: a suite of small kernels
whose *memory behaviour* spans the same range — from cache-resident
compute-bound loops that rarely touch the bus to table-walking kernels whose
working set exceeds the DL1 and therefore produces a steady trickle of L2
accesses.

What matters for the reproduced experiment is only that (a) real workloads
issue bus requests sparsely and at irregular intervals, unlike the rsk, and
(b) different workloads differ in intensity.  Both properties hold by
construction here, and every generator is deterministic given its seed.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..config import ArchConfig
from ..errors import ProgramError
from .layout import core_address_space

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..sim.isa import Instruction, Program


@dataclass(frozen=True)
class SyntheticKernelSpec:
    """Static description of one synthetic kernel.

    Attributes:
        name: short identifier (EEMBC-Autobench flavoured).
        description: what the kernel imitates.
        body_length: number of instructions in the loop body.
        working_set_bytes: span of the data the kernel touches; footprints
            larger than the DL1 produce recurring bus traffic.
        load_fraction: fraction of body slots that are loads.
        store_fraction: fraction of body slots that are stores.
        pattern: ``"sequential"``, ``"strided"`` or ``"random"`` address
            generation within the working set.
        alu_latency: latency of the compute instructions filling the rest of
            the body.
        default_iterations: loop count used when the caller does not override.
    """

    name: str
    description: str
    body_length: int
    working_set_bytes: int
    load_fraction: float
    store_fraction: float
    pattern: str
    alu_latency: int = 1
    default_iterations: int = 40

    def __post_init__(self) -> None:
        if self.body_length < 4:
            raise ProgramError(f"kernel {self.name!r}: body too short")
        if not 0.0 <= self.load_fraction <= 1.0:
            raise ProgramError(f"kernel {self.name!r}: bad load fraction")
        if not 0.0 <= self.store_fraction <= 1.0:
            raise ProgramError(f"kernel {self.name!r}: bad store fraction")
        if self.load_fraction + self.store_fraction > 1.0:
            raise ProgramError(f"kernel {self.name!r}: memory fractions exceed 1")
        if self.pattern not in ("sequential", "strided", "random"):
            raise ProgramError(f"kernel {self.name!r}: unknown pattern {self.pattern!r}")
        if self.working_set_bytes < 64:
            raise ProgramError(f"kernel {self.name!r}: working set too small")


#: The synthetic suite.  Working sets are chosen relative to the reference
#: platform's 16KB DL1 and 64KB per-core L2 partition.
SYNTHETIC_KERNELS: Dict[str, SyntheticKernelSpec] = {
    spec.name: spec
    for spec in (
        SyntheticKernelSpec(
            name="a2time",
            description="angle-to-time conversion: compute bound, small lookup table",
            body_length=96,
            working_set_bytes=2 * 1024,
            load_fraction=0.10,
            store_fraction=0.02,
            pattern="random",
            alu_latency=2,
        ),
        SyntheticKernelSpec(
            name="aifirf",
            description="FIR filter: streaming loads over a coefficient window",
            body_length=128,
            working_set_bytes=6 * 1024,
            load_fraction=0.16,
            store_fraction=0.02,
            pattern="sequential",
            alu_latency=1,
        ),
        SyntheticKernelSpec(
            name="basefp",
            description="basic floating point: long-latency compute, little memory",
            body_length=80,
            working_set_bytes=1024,
            load_fraction=0.08,
            store_fraction=0.01,
            pattern="sequential",
            alu_latency=5,
        ),
        SyntheticKernelSpec(
            name="bitmnp",
            description="bit manipulation: ALU heavy with a tiny table",
            body_length=72,
            working_set_bytes=512,
            load_fraction=0.10,
            store_fraction=0.02,
            pattern="random",
            alu_latency=1,
        ),
        SyntheticKernelSpec(
            name="cacheb",
            description="cache buster: working set well beyond the DL1",
            body_length=96,
            working_set_bytes=32 * 1024,
            load_fraction=0.22,
            store_fraction=0.03,
            pattern="strided",
            alu_latency=1,
        ),
        SyntheticKernelSpec(
            name="canrdr",
            description="CAN remote data request: parse and copy small frames",
            body_length=88,
            working_set_bytes=4 * 1024,
            load_fraction=0.15,
            store_fraction=0.04,
            pattern="sequential",
            alu_latency=1,
        ),
        SyntheticKernelSpec(
            name="idctrn",
            description="inverse DCT: blocked matrix walk slightly above the DL1",
            body_length=112,
            working_set_bytes=20 * 1024,
            load_fraction=0.16,
            store_fraction=0.03,
            pattern="strided",
            alu_latency=2,
        ),
        SyntheticKernelSpec(
            name="iirflt",
            description="IIR filter: small recurrent state, compute bound",
            body_length=64,
            working_set_bytes=2 * 1024,
            load_fraction=0.14,
            store_fraction=0.03,
            pattern="sequential",
            alu_latency=3,
        ),
        SyntheticKernelSpec(
            name="matrix",
            description="matrix arithmetic: column walks exceeding the DL1",
            body_length=120,
            working_set_bytes=24 * 1024,
            load_fraction=0.18,
            store_fraction=0.03,
            pattern="strided",
            alu_latency=1,
        ),
        SyntheticKernelSpec(
            name="puwmod",
            description="pulse width modulation: periodic stores to output registers",
            body_length=72,
            working_set_bytes=3 * 1024,
            load_fraction=0.08,
            store_fraction=0.04,
            pattern="sequential",
            alu_latency=2,
        ),
        SyntheticKernelSpec(
            name="rspeed",
            description="road speed calculation: mixed compute and lookups",
            body_length=84,
            working_set_bytes=6 * 1024,
            load_fraction=0.12,
            store_fraction=0.03,
            pattern="random",
            alu_latency=2,
        ),
        SyntheticKernelSpec(
            name="tblook",
            description="table lookup: pseudo-random indexing over a large table",
            body_length=96,
            working_set_bytes=28 * 1024,
            load_fraction=0.20,
            store_fraction=0.02,
            pattern="random",
            alu_latency=1,
        ),
        SyntheticKernelSpec(
            name="ttsprk",
            description="tooth to spark: interleaved sensor reads and actuator writes",
            body_length=104,
            working_set_bytes=10 * 1024,
            load_fraction=0.14,
            store_fraction=0.04,
            pattern="random",
            alu_latency=1,
        ),
    )
}


def synthetic_kernel_names() -> Tuple[str, ...]:
    """Names of all kernels in the suite, in a stable order."""
    return tuple(sorted(SYNTHETIC_KERNELS))


def _addresses(
    spec: SyntheticKernelSpec,
    rng: random.Random,
    count: int,
    base: int,
    line_size: int,
) -> List[int]:
    """Generate ``count`` data addresses following the spec's pattern."""
    span = spec.working_set_bytes
    addresses: List[int] = []
    if spec.pattern == "sequential":
        step = line_size // 2
        cursor = 0
        for _ in range(count):
            addresses.append(base + cursor % span)
            cursor += step
    elif spec.pattern == "strided":
        stride = max(line_size, span // max(count, 1) // line_size * line_size or line_size)
        cursor = 0
        for _ in range(count):
            addresses.append(base + cursor % span)
            cursor += stride
    else:  # random
        for _ in range(count):
            offset = rng.randrange(0, span, 4)
            addresses.append(base + offset)
    return addresses


def build_synthetic_kernel(
    config: ArchConfig,
    name: str,
    core_id: int,
    iterations: Optional[int] = None,
    seed: int = 0,
) -> Program:
    """Instantiate the synthetic kernel ``name`` for ``core_id``.

    Args:
        config: target platform (provides the line size used for address
            generation).
        name: one of :func:`synthetic_kernel_names`.
        core_id: core the kernel will run on; selects its address region.
        iterations: loop iterations, or ``None`` to use the kernel default;
            pass ``0`` only through :meth:`Program.with_iterations` if an
            infinite contender is needed.
        seed: seed of the deterministic address generator; two kernels built
            with the same arguments are identical.
    """
    # Imported here: listing kernel names (campaign expansion) needs no ISA.
    from ..sim.isa import Alu, Load, Nop, Program, Store

    try:
        spec = SYNTHETIC_KERNELS[name]
    except KeyError as exc:
        raise ProgramError(
            f"unknown synthetic kernel {name!r}; available: {', '.join(synthetic_kernel_names())}"
        ) from exc
    space = core_address_space(core_id)
    # crc32, not hash(): string hashing is randomised per interpreter process
    # (PYTHONHASHSEED), which would make kernels differ between the serial
    # path and pool workers — and between any two invocations of the tools.
    rng = random.Random((seed * 1_000_003 + core_id) ^ zlib.crc32(name.encode("utf-8")))
    n_loads = int(round(spec.body_length * spec.load_fraction))
    n_stores = int(round(spec.body_length * spec.store_fraction))
    n_compute = spec.body_length - n_loads - n_stores

    load_addresses = _addresses(spec, rng, n_loads, space.data_base, config.line_size)
    store_addresses = _addresses(
        spec, rng, n_stores, space.data_base + spec.working_set_bytes, config.line_size
    )

    slots: List[Instruction] = []
    slots.extend(Load(addr) for addr in load_addresses)
    slots.extend(Store(addr) for addr in store_addresses)
    slots.extend(
        Alu(latency=spec.alu_latency) if index % 7 else Nop() for index in range(n_compute)
    )
    rng.shuffle(slots)
    return Program(
        name=f"{spec.name}[core{core_id}]",
        body=tuple(slots),
        iterations=spec.default_iterations if iterations is None else iterations,
        base_pc=space.code_base,
    )
