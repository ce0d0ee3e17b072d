"""Performance monitoring counters (PMC).

The methodology's confidence step (Section 4.3 of the paper) relies on the
kind of counters the Cobham Gaisler NGMP exposes — counters ``0x17`` and
``0x18`` report per-core and overall bus utilisation.  This module models an
equivalent counter block: per-core bus busy cycles, per-core request counts,
per-core contention (wait) cycles, instruction counts and total cycles, from
which utilisation figures are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .steady import AdditiveCounters, Counts, Key


@dataclass(slots=True)
class CoreCounters(AdditiveCounters):
    """Counters kept for a single core (one bus port)."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    nops: int = 0
    bus_requests: int = 0
    bus_busy_cycles: int = 0
    contention_cycles: int = 0
    stall_cycles: int = 0
    store_buffer_full_stalls: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary view used by reports."""
        return {
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "nops": self.nops,
            "bus_requests": self.bus_requests,
            "bus_busy_cycles": self.bus_busy_cycles,
            "contention_cycles": self.contention_cycles,
            "stall_cycles": self.stall_cycles,
            "store_buffer_full_stalls": self.store_buffer_full_stalls,
        }


@dataclass(slots=True)
class ResourceCounters(AdditiveCounters):
    """Counters kept for one shared-resource channel (``bus``,
    ``bus_response``, ...): the per-channel PMC surface of split-transaction
    topologies.

    ``max_wait`` is the worst grant wait any single transaction suffered on
    the channel — the per-resource worst case the measured-bound pipeline
    (:mod:`repro.methodology.ubd`) reads as that resource's ``ubdm``
    candidate.  Unlike the per-request trace it covers *every* port, so it
    upper-bounds the observed core's own worst wait.
    """

    requests: int = 0
    busy_cycles: int = 0
    wait_cycles: int = 0
    max_wait: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary view used by reports."""
        return {
            "requests": self.requests,
            "busy_cycles": self.busy_cycles,
            "wait_cycles": self.wait_cycles,
            "max_wait": self.max_wait,
        }


@dataclass
class PerformanceCounters:
    """Counter block for a whole platform.

    Attributes:
        num_cores: number of cores (and therefore per-core counter sets).
        cycles: total elapsed cycles of the simulation window.
        bus_busy_cycles: cycles during which the demand channel (resource
            ``"bus"``) was serving a transaction — the bus-utilisation
            numerator of the paper's saturation check.  On the single
            shared bus this covers responses too (they occupy the same
            channel); on ``split_bus`` the response channel is a *parallel*
            resource whose busy cycles live only in its
            :attr:`resources` section, because summing overlapping
            channels would overstate utilisation.
        dram_accesses: number of requests that reached the DRAM.
        resources: per-channel counters keyed by ``resource_name``, created
            lazily on first service so idle channels leave no trace.
    """

    num_cores: int
    cycles: int = 0
    bus_busy_cycles: int = 0
    dram_accesses: int = 0
    core: List[CoreCounters] = field(default_factory=list)
    resources: Dict[str, ResourceCounters] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.core:
            self.core = [CoreCounters() for _ in range(self.num_cores)]

    # ------------------------------------------------------------------ #
    # Update helpers called by the simulator.
    # ------------------------------------------------------------------ #
    def note_bus_service(
        self, port: int, service_cycles: int, wait_cycles: int, resource: str = "bus"
    ) -> None:
        """Record one completed transaction issued by ``port`` on ``resource``."""
        if resource == "bus":
            # Only the demand channel feeds the headline utilisation; other
            # channels run in parallel with it (see the class docstring).
            self.bus_busy_cycles += service_cycles
        channel = self.resources.get(resource)
        if channel is None:
            channel = self.resources[resource] = ResourceCounters()
        channel.requests += 1
        channel.busy_cycles += service_cycles
        channel.wait_cycles += wait_cycles
        if wait_cycles > channel.max_wait:
            channel.max_wait = wait_cycles
        if 0 <= port < self.num_cores:
            counters = self.core[port]
            counters.bus_requests += 1
            counters.bus_busy_cycles += service_cycles
            counters.contention_cycles += wait_cycles

    def note_instruction(self, core_id: int, mnemonic: str) -> None:
        """Record the retirement of one instruction on ``core_id``."""
        counters = self.core[core_id]
        counters.instructions += 1
        if mnemonic == "load":
            counters.loads += 1
        elif mnemonic == "store":
            counters.stores += 1
        elif mnemonic == "nop":
            counters.nops += 1

    # ------------------------------------------------------------------ #
    # Steady-state key/advance pair (see repro.sim.steady).
    # ------------------------------------------------------------------ #
    def steady_key(self, cycle: int) -> Key:
        """Which channels have counters (state), and every counter but
        ``cycles``, which the engine sets when it stops."""
        del cycle
        names = tuple(sorted(self.resources))
        return names, (
            self.bus_busy_cycles,
            self.dram_accesses,
            tuple(counters.steady_key()[1] for counters in self.core),
            tuple(self.resources[name].steady_key()[1] for name in names),
        )

    def steady_advance(self, shift: int, periods: int, before: Counts, after: Counts) -> None:
        self.bus_busy_cycles += periods * (after[0] - before[0])
        self.dram_accesses += periods * (after[1] - before[1])
        for counters, old, new in zip(self.core, before[2], after[2]):
            counters.steady_advance(shift, periods, old, new)
        for name, old, new in zip(sorted(self.resources), before[3], after[3]):
            self.resources[name].steady_advance(shift, periods, old, new)

    # ------------------------------------------------------------------ #
    # Derived utilisation figures (the NGMP 0x17/0x18 equivalents).
    # ------------------------------------------------------------------ #
    def bus_utilisation(self) -> float:
        """Overall bus utilisation over the measured window (0.0 - 1.0)."""
        if self.cycles == 0:
            return 0.0
        return min(1.0, self.bus_busy_cycles / self.cycles)

    def core_bus_utilisation(self, core_id: int) -> float:
        """Fraction of cycles the bus spent serving ``core_id``."""
        if self.cycles == 0:
            return 0.0
        return min(1.0, self.core[core_id].bus_busy_cycles / self.cycles)

    def average_contention(self, core_id: int) -> float:
        """Average contention delay per bus request of ``core_id``."""
        counters = self.core[core_id]
        if counters.bus_requests == 0:
            return 0.0
        return counters.contention_cycles / counters.bus_requests

    def total_requests(self) -> int:
        """Total number of bus transactions across all cores."""
        return sum(c.bus_requests for c in self.core)

    def resource_utilisation(self, resource: str) -> float:
        """Fraction of cycles channel ``resource`` spent serving requests."""
        channel = self.resources.get(resource)
        if channel is None or self.cycles == 0:
            return 0.0
        return min(1.0, channel.busy_cycles / self.cycles)

    def as_dict(self) -> Dict[str, object]:
        """Nested dictionary view used by reports and tests."""
        return {
            "cycles": self.cycles,
            "bus_busy_cycles": self.bus_busy_cycles,
            "bus_utilisation": self.bus_utilisation(),
            "dram_accesses": self.dram_accesses,
            "cores": [c.as_dict() for c in self.core],
            "resources": {
                name: channel.as_dict()
                for name, channel in sorted(self.resources.items())
            },
        }
