"""Banked open-page DRAM timing model (DRAMsim2 substitute).

The paper attaches a DDR2-667 DIMM (modelled with DRAMsim2) behind the
on-chip memory controller.  DRAMsim2 is not available here, so this module
provides the closest synthetic equivalent that exercises the same code path:
a bank-aware open-page model in which

* an access to the currently open row of a bank costs
  ``t_cas + t_burst + controller_overhead`` cycles (a *row hit*);
* an access to a different row costs an additional precharge plus activate,
  ``t_rp + t_rcd`` cycles (a *row conflict*);
* an access to a bank with no open row pays only the activate,
  ``t_rcd`` cycles on top of the row-hit cost (a *row empty* access);
* different banks operate independently, so requests to distinct banks can
  overlap, while requests to the same bank serialise.

All latencies are expressed in core cycles (the configuration already folds
in the 200MHz core / DDR2-667 clock ratio), which keeps the whole simulator
on a single clock domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import DramConfig
from ..errors import SimulationError
from .resource import NO_EVENT
from .steady import AdditiveCounters, Counts, Key, until


@dataclass
class DramStats(AdditiveCounters):
    """Counters describing the access mix seen by the DRAM."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_empties: int = 0
    row_conflicts: int = 0

    @property
    def accesses(self) -> int:
        """Total number of DRAM accesses."""
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        """Fraction of accesses that hit the open row."""
        if self.accesses == 0:
            return 0.0
        return self.row_hits / self.accesses


@dataclass
class _Bank:
    """State of a single DRAM bank."""

    open_row: Optional[int] = None
    busy_until: int = 0


@dataclass
class DramAccess:
    """A scheduled DRAM access and its completion time."""

    addr: int
    is_write: bool
    issue_cycle: int
    complete_cycle: int
    bank: int
    row: int
    category: str


class Dram:
    """The DRAM device: row-buffer state and per-bank timing.

    Args:
        config: DRAM timing parameters.
    """

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self._banks: List[_Bank] = [_Bank() for _ in range(config.num_banks)]
        self.stats = DramStats()
        self._row_shift = config.row_size_bytes.bit_length() - 1
        self._bank_mask = config.num_banks - 1

    # ------------------------------------------------------------------ #
    # Address mapping.
    # ------------------------------------------------------------------ #
    def bank_of(self, addr: int) -> int:
        """Bank index for ``addr`` (row-interleaved mapping)."""
        return (addr >> self._row_shift) & self._bank_mask

    def row_of(self, addr: int) -> int:
        """Row index for ``addr`` within its bank."""
        return addr >> self._row_shift >> self._bank_mask.bit_length()

    # ------------------------------------------------------------------ #
    # Access scheduling.
    # ------------------------------------------------------------------ #
    def access(self, addr: int, cycle: int, is_write: bool = False) -> DramAccess:
        """Schedule one access starting no earlier than ``cycle``.

        Returns a :class:`DramAccess` whose ``complete_cycle`` tells the
        memory controller when the data (or write acknowledgement) is
        available.  The bank's row-buffer state and busy window are updated.
        """
        if cycle < 0:
            raise SimulationError("DRAM access scheduled at a negative cycle")
        bank_index = self.bank_of(addr)
        row = self.row_of(addr)
        bank = self._banks[bank_index]
        start = max(cycle, bank.busy_until)
        cfg = self.config
        if bank.open_row == row:
            latency = cfg.row_hit_latency
            category = "hit"
            self.stats.row_hits += 1
        elif bank.open_row is None:
            latency = cfg.t_rcd + cfg.row_hit_latency
            category = "empty"
            self.stats.row_empties += 1
        else:
            latency = cfg.row_miss_latency
            category = "conflict"
            self.stats.row_conflicts += 1
        complete = start + latency
        bank.open_row = row
        bank.busy_until = complete
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        return DramAccess(
            addr=addr,
            is_write=is_write,
            issue_cycle=start,
            complete_cycle=complete,
            bank=bank_index,
            row=row,
            category=category,
        )

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest future cycle at which any busy bank becomes free again.

        The DRAM is pull-based — accesses are scheduled synchronously by the
        memory controller, and read completions are tracked by the
        controller's in-flight heap — so this horizon is *not* needed for
        cycle-exact event scheduling.  It is exposed for introspection and
        symmetry with the other components' ``next_event_cycle`` contract:
        :data:`~repro.sim.resource.NO_EVENT` means every bank is idle.
        """
        horizon = NO_EVENT
        for bank in self._banks:
            if bank.busy_until > cycle and bank.busy_until < horizon:
                horizon = bank.busy_until
        return horizon

    def bank_busy_until(self, bank_index: int) -> int:
        """Cycle at which ``bank_index`` becomes free."""
        if not 0 <= bank_index < self.config.num_banks:
            raise SimulationError(f"invalid bank index {bank_index}")
        return self._banks[bank_index].busy_until

    def open_rows(self) -> Dict[int, Optional[int]]:
        """Mapping bank index -> currently open row (``None`` if closed)."""
        return {index: bank.open_row for index, bank in enumerate(self._banks)}

    def steady_key(self, cycle: int) -> Key:
        """Each bank's open row and busy window (a past one compares as past)."""
        return (
            tuple((bank.open_row, until(bank.busy_until, cycle)) for bank in self._banks),
            self.stats.steady_key()[1],
        )

    def steady_advance(self, shift: int, periods: int, before: Counts, after: Counts) -> None:
        for bank in self._banks:
            bank.busy_until += shift
        self.stats.steady_advance(shift, periods, before, after)

    def reset(self) -> None:
        """Close every row and clear all busy windows (statistics preserved)."""
        for bank in self._banks:
            bank.open_row = None
            bank.busy_until = 0
