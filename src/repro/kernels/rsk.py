"""Resource-stressing kernels (rsk) and the paper's rsk-nop variant.

Three generators are provided, mirroring Figure 1 and Section 4 of the paper:

* :func:`build_rsk` — ``rsk(t)``: a tight loop of ``W + 1`` memory operations
  of type ``t`` (loads or stores) whose addresses map to the same DL1 set, so
  every operation misses in the DL1 and hits in the L2.  Used both as the
  *contender* kernel and, in Section 3.2, as the software under analysis.
* :func:`build_rsk_nop` — ``rsk-nop(t, k)``: the same loop with ``k`` nop
  instructions inserted between consecutive memory operations, which
  stretches the injection time by ``k * delta_nop`` cycles.  Sweeping ``k``
  exposes the saw-tooth whose period equals ``ubd``.
* :func:`build_nop_kernel` — a loop containing only nop instructions, used to
  measure ``delta_nop`` (execution time divided by the number of nops).

On multi-resource topologies every shared resource needs its *own*
worst-case generator — the whole premise of the measured-bound methodology
is that the stressing kernel saturates the resource being bounded.  The
**rsk registry** (:data:`RSK_REGISTRY`, one more instance of the shared
:class:`repro.registry.Registry`) maps each ``ArchConfig.ubd_terms``
resource name to the kernel that drives that resource to its worst case:

* ``bus`` — :func:`build_rsk` (every access hits the L2, saturating the
  arbitrated demand channel);
* ``memory`` — :func:`build_bank_conflict_rsk` (every access misses both
  cache levels and all cores collide on one DRAM bank queue);
* ``bus_response`` — :func:`build_response_conflict_rsk` (every access
  misses both cache levels but each core hammers its *own* bank, so DRAM
  services overlap and the returning data piles up on the response
  channel).

The measured-bound pipeline (:mod:`repro.methodology.ubd`) selects kernels
purely through this registry, so a new topology whose ``ubd_terms`` entry
names a registered resource gets a measured bound without touching the
methodology layer.

All generators return :class:`repro.sim.isa.Program` objects placed in the
private address region of the target core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..config import ArchConfig
from ..errors import MethodologyError, ProgramError
from ..registry import Registry
from ..sim.isa import INSTRUCTION_BYTES, Instruction, Load, Nop, Program, Store
from .layout import (
    core_address_space,
    footprint_fits_l2_partition,
    same_bank_same_set_addresses,
    same_set_addresses,
)

#: Default number of loop iterations for a finite kernel used as the scua.
DEFAULT_ITERATIONS = 200


def _memory_instruction(kind: str, addr: int) -> Instruction:
    if kind == "load":
        return Load(addr)
    if kind == "store":
        return Store(addr)
    raise ProgramError(f"unsupported rsk access type {kind!r} (use 'load' or 'store')")


def build_rsk(
    config: ArchConfig,
    core_id: int,
    kind: str = "load",
    iterations: Optional[int] = None,
) -> Program:
    """Build ``rsk(t)`` for ``core_id``.

    Args:
        config: target platform (provides the DL1 geometry).
        core_id: core the kernel will run on; selects its address region.
        kind: ``"load"`` or ``"store"`` — the bus access type ``t``.
        iterations: loop iterations (>= 1); ``None`` builds an infinite
            contender.

    The loop is fully unrolled (the paper unrolls aggressively to keep
    loop-control overhead below 2%), so its body holds only the accesses.
    """
    if iterations is not None and iterations < 1:
        raise ProgramError(f"rsk must run at least one iteration, got {iterations}")
    space = core_address_space(core_id)
    # The paper's W + 1 lines: one more than the DL1 associativity, all in
    # one set, so every access misses in the DL1.
    addresses = same_set_addresses(config.dl1, config.dl1.ways + 1, base=space.data_base)
    if not footprint_fits_l2_partition(config, addresses):
        raise ProgramError(
            "rsk footprint does not fit the core's L2 partition; the kernel would "
            "not hit in L2 as the methodology requires"
        )
    body: List[Instruction] = [_memory_instruction(kind, addr) for addr in addresses]
    return Program(
        name=f"rsk-{kind}[core{core_id}]",
        body=tuple(body),
        iterations=iterations,
        base_pc=space.code_base,
    )


def build_rsk_nop(
    config: ArchConfig,
    core_id: int,
    kind: str = "load",
    k: int = 0,
    iterations: int = DEFAULT_ITERATIONS,
) -> Program:
    """Build ``rsk-nop(t, k)`` for ``core_id`` (Figure 1(b)).

    ``k`` nop instructions are inserted after every memory operation of the
    plain rsk, raising the injection time between consecutive bus requests
    from ``delta_rsk`` to ``delta_rsk + k * delta_nop``.

    Args:
        config: target platform.
        core_id: core the kernel will run on.
        kind: ``"load"`` or ``"store"``.
        k: number of nops between consecutive memory operations (>= 0).
        iterations: loop iterations (the scua must terminate, so the default
            is finite).
    """
    if k < 0:
        raise ProgramError(f"nop count k must be >= 0, got {k}")
    if iterations < 1:
        raise ProgramError("rsk-nop must run at least one iteration")
    space = core_address_space(core_id)
    # The same W + 1 conflicting lines as :func:`build_rsk`.
    addresses = same_set_addresses(config.dl1, config.dl1.ways + 1, base=space.data_base)
    if not footprint_fits_l2_partition(config, addresses):
        raise ProgramError(
            "rsk-nop footprint does not fit the core's L2 partition; the kernel "
            "would not hit in L2 as the methodology requires"
        )
    body: List[Instruction] = []
    for addr in addresses:
        body.append(_memory_instruction(kind, addr))
        body.extend(Nop() for _ in range(k))
    return Program(
        name=f"rsk-nop-{kind}(k={k})[core{core_id}]",
        body=tuple(body),
        iterations=iterations,
        base_pc=space.code_base,
    )


def build_bank_conflict_rsk(
    config: ArchConfig,
    core_id: int,
    kind: str = "load",
    iterations: Optional[int] = None,
    target_bank: int = 0,
) -> Program:
    """Build the bank-conflict rsk: every access misses DL1 *and* L2 and
    lands on one DRAM bank.

    Where the plain :func:`build_rsk` saturates the bus (its lines hit in
    the L2), this variant drives sustained DRAM traffic: its lines collide
    in a single DL1 set, a single L2 set beyond the core's partition ways,
    and a single DRAM bank — and every core's kernel targets the *same*
    bank (``target_bank``), so ``Nc`` contenders serialise on one bank
    queue.  This turns the ``bus_bank_queues`` and ``split_bus`` topologies
    into measurable worst cases: the observed bank-queue waits approach the
    ``memory`` term of ``ArchConfig.ubd_terms`` instead of being incidental
    side effects of an L2-missing workload.

    Args:
        config: target platform.
        core_id: core the kernel will run on; selects its address region.
        kind: ``"load"`` or ``"store"`` — the access type.
        iterations: loop iterations; ``None`` builds an infinite contender.
        target_bank: DRAM bank every access maps to.
    """
    # Exceed both the DL1 associativity and the core's L2 partition ways so
    # LRU/FIFO replacement misses on every access at both levels.
    count = max(config.dl1.ways, len(config.l2_ways_for_core(core_id))) + 1
    addresses = same_bank_same_set_addresses(
        config, count, core_id=core_id, target_bank=target_bank
    )
    body: List[Instruction] = [_memory_instruction(kind, addr) for addr in addresses]
    return Program(
        name=f"rsk-bank-{kind}[core{core_id}]",
        body=tuple(body),
        iterations=iterations,
        base_pc=core_address_space(core_id).code_base,
    )


def build_response_conflict_rsk(
    config: ArchConfig,
    core_id: int,
    kind: str = "load",
    iterations: Optional[int] = None,
) -> Program:
    """Build the response-channel stressor: every access misses DL1 *and* L2,
    each core targets its **own** DRAM bank, and the access pattern mixes
    row hits into the row misses so the data returns *cluster*.

    Stressing the response channel is harder than stressing a bank queue:
    an in-order core blocks on its demand miss, so the whole platform runs
    closed-loop — requests are serialised by the request channel, every
    access takes the same (row-miss) DRAM service, and the responses come
    back locked to the same phase offsets, never contending.  Two
    ingredients break the lock:

    * **row-hit jitter** — every bank-conflict address is paired with a
      second conflict group one cache line over: the partner lands in the
      *same DRAM row* (an immediate row hit) but its own DL1/L2 sets (so it
      still misses both caches).  Alternating row-miss and row-hit services
      makes each core's response timing jitter by the hit/miss latency
      difference.
    * **per-core period skew** — core ``c`` replays its first ``c``
      row-miss addresses at the end of the loop, so no two cores share a
      loop period and their response phases drift through every offset,
      including the collisions where returns from different banks are ready
      in the same cycle.

    On ``split_bus`` this is the registered worst-case generator for the
    ``bus_response`` term: with at most one pending response per port, a
    fair round of ``Nc - 1`` response occupancies is exactly what the
    analytical term bounds, and the drifting phases drive the channel's
    observed grant waits toward it.

    Args:
        config: target platform.
        core_id: core the kernel will run on; also selects its DRAM bank
            (``core_id % num_banks``) and its period skew.
        kind: ``"load"`` or ``"store"`` — the access type.
        iterations: loop iterations; ``None`` builds an infinite contender.
    """
    count = max(config.dl1.ways, len(config.l2_ways_for_core(core_id))) + 1
    addresses = same_bank_same_set_addresses(
        config, count, core_id=core_id, target_bank=core_id % config.dram.num_banks
    )
    line = config.dl1.line_size
    body: List[Instruction] = []
    for addr in addresses:
        body.append(_memory_instruction(kind, addr))
        # Same row (one line over), own DL1/L2 conflict group: a guaranteed
        # cache miss that the open row serves fast — the jitter source.
        body.append(_memory_instruction(kind, addr + line))
    for index in range(core_id):
        body.append(_memory_instruction(kind, addresses[index % count]))
    return Program(
        name=f"rsk-response-{kind}[core{core_id}]",
        body=tuple(body),
        iterations=iterations,
        base_pc=core_address_space(core_id).code_base,
    )


# --------------------------------------------------------------------------- #
# The rsk registry: resource name -> worst-case stressing kernel.
# --------------------------------------------------------------------------- #

#: Builder signature shared by every registered stressing kernel:
#: ``(config, core_id, kind, iterations) -> Program`` with ``iterations=None``
#: building an infinite contender.
RskBuilder = Callable[[ArchConfig, int, str, Optional[int]], Program]


@dataclass(frozen=True)
class RskEntry:
    """One registered resource-stressing kernel."""

    resource: str
    builder: RskBuilder
    description: str = ""

    def build(
        self,
        config: ArchConfig,
        core_id: int,
        kind: str = "load",
        iterations: Optional[int] = None,
    ) -> Program:
        """Build the kernel for ``core_id`` (``iterations=None`` = infinite)."""
        return self.builder(config, core_id, kind, iterations)


#: Resource name (an ``ArchConfig.ubd_terms`` key) -> registered stressor.
RSK_REGISTRY: Registry[RskEntry] = Registry("resource-stressing kernel")


def register_rsk(
    resource: str, description: str = ""
) -> Callable[[RskBuilder], RskBuilder]:
    """Decorator registering a stressing-kernel builder for ``resource``.

    Re-registering a resource is a configuration error: two runs of the
    measured-bound pipeline on identical configurations must never stress a
    resource with different kernels.
    """

    def decorator(builder: RskBuilder) -> RskBuilder:
        RSK_REGISTRY.register(
            resource,
            RskEntry(resource=resource, builder=builder, description=description),
        )
        return builder

    return decorator


def registered_rsks() -> Tuple[str, ...]:
    """Resources with a registered stressing kernel, in registration order."""
    return RSK_REGISTRY.names()


def rsk_for_resource(resource: str) -> RskEntry:
    """The stressing kernel registered for ``resource``.

    Raises :class:`~repro.errors.ConfigurationError` (naming the registered
    alternatives) for resources without a worst-case generator — a topology
    whose ``ubd_terms`` introduce a new resource must register one before the
    pipeline can measure it.
    """
    return RSK_REGISTRY.require(resource)


def build_stress_contender_set(
    config: ArchConfig,
    resource: str,
    scua_core: int,
    kind: str = "load",
) -> Dict[int, Program]:
    """One infinite stressing kernel per core other than ``scua_core``.

    The contenders are drawn from the rsk registry, so they drive
    ``resource`` to its worst case; ``"bus"`` gives the paper's contender
    set, one infinite :func:`build_rsk` per other core.
    """
    if not 0 <= scua_core < config.num_cores:
        raise MethodologyError(f"scua core {scua_core} does not exist")
    entry = rsk_for_resource(resource)
    return {
        core: entry.build(config, core, kind=kind, iterations=None)
        for core in range(config.num_cores)
        if core != scua_core
    }


@register_rsk("bus", "L2-hitting rsk saturating the arbitrated demand channel")
def _bus_rsk(
    config: ArchConfig, core_id: int, kind: str, iterations: Optional[int]
) -> Program:
    return build_rsk(config, core_id, kind=kind, iterations=iterations)


@register_rsk("memory", "bank-conflict rsk serialising every core on one DRAM bank queue")
def _memory_rsk(
    config: ArchConfig, core_id: int, kind: str, iterations: Optional[int]
) -> Program:
    return build_bank_conflict_rsk(config, core_id, kind=kind, iterations=iterations)


@register_rsk(
    "bus_response",
    "per-core-bank rsk overlapping DRAM services to pile returns on the response channel",
)
def _response_rsk(
    config: ArchConfig, core_id: int, kind: str, iterations: Optional[int]
) -> Program:
    return build_response_conflict_rsk(config, core_id, kind=kind, iterations=iterations)


def build_nop_kernel(
    config: ArchConfig,
    core_id: int,
    iterations: int = 10,
    body_fraction_of_il1: float = 0.25,
) -> Program:
    """Build the nop-only kernel used to derive ``delta_nop`` (Section 4.2).

    The loop body is made as large as possible *without causing instruction
    cache misses* — the paper sizes it to the IL1 — so that dividing the
    execution time by the number of executed nops yields ``delta_nop`` with
    negligible loop-boundary error.

    Args:
        config: target platform.
        core_id: core the kernel will run on.
        iterations: loop iterations.
        body_fraction_of_il1: fraction of the IL1 capacity the body occupies
            (strictly between 0 and 1 so the body always fits).
    """
    if not 0.0 < body_fraction_of_il1 < 1.0:
        raise ProgramError("body_fraction_of_il1 must be in (0, 1)")
    if iterations < 1:
        raise ProgramError("the nop kernel must run at least one iteration")
    space = core_address_space(core_id)
    max_instructions = int(config.il1.size_bytes * body_fraction_of_il1) // INSTRUCTION_BYTES
    body_size = max(1, max_instructions)
    body = tuple(Nop() for _ in range(body_size))
    return Program(
        name=f"nop-kernel[core{core_id}]",
        body=body,
        iterations=iterations,
        base_pc=space.code_base,
    )


def rsk_request_count(program: Program) -> int:
    """Number of bus requests a finite rsk / rsk-nop generates per run.

    For the kernels built by this module every memory instruction misses in
    the DL1 (loads) or is written through (stores), so the request count
    equals the dynamic number of memory instructions.
    """
    count = program.count_memory_instructions()
    if count is None:
        raise ProgramError(f"program {program.name!r} is infinite; its request count is unbounded")
    return count
