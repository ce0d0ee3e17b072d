"""Per-core store buffer.

The paper's reference architecture (Section 5.3) has a store buffer that
"keeps store requests and allows instructions to proceed in the pipeline
unless the buffer is full, i.e. a store request is considered completed as
soon as it is put in the buffer".  This is what makes the store variant of
the rsk-nop experiment (Figure 7(b)) qualitatively different from the load
variant: once the injection time between stores exceeds the contended drain
rate of the buffer, the buffer completely hides the bus latency and the
observed slowdown collapses to zero.

The buffer is a bounded FIFO.  Entries are drained through the core's bus
port one at a time; the head entry is eligible for the bus as soon as it
reaches the head (back-to-back drains therefore have an injection time of
zero, which is why saturated store traffic does observe the full ``ubd``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..config import StoreBufferConfig
from ..errors import SimulationError
from .steady import Counts, Key


@dataclass
class StoreEntry:
    """One buffered store."""

    addr: int
    enqueue_cycle: int


class StoreBuffer:
    """Bounded FIFO of pending stores for one core.

    Args:
        config: capacity of the buffer.
        core_id: owning core, used only for error messages.
    """

    def __init__(self, config: StoreBufferConfig, core_id: int = 0) -> None:
        self.capacity = config.entries
        self.core_id = core_id
        self._entries: Deque[StoreEntry] = deque()
        #: True while the head entry is out on the bus (posted, not completed).
        self._head_in_flight = False
        self.total_enqueued = 0
        self.total_drained = 0
        #: Count of rejected pushes.  This is a *polling* counter: a stalled
        #: core retries once per processed cycle, so its value depends on the
        #: simulation engine (the event engine skips no-op retry cycles).  It
        #: is a debugging aid only and must never feed results, PMCs or
        #: artifacts — everything observable is engine-independent.
        self.full_rejections = 0

    # ------------------------------------------------------------------ #
    # Core-side interface.
    # ------------------------------------------------------------------ #
    def is_full(self) -> bool:
        """True when a new store cannot be accepted."""
        return len(self._entries) >= self.capacity

    def is_empty(self) -> bool:
        """True when no store is buffered."""
        return not self._entries

    def occupancy(self) -> int:
        """Number of buffered stores (including one possibly on the bus)."""
        return len(self._entries)

    def try_push(self, addr: int, cycle: int) -> bool:
        """Accept a store if there is room; return whether it was accepted."""
        if self.is_full():
            self.full_rejections += 1
            return False
        self._entries.append(StoreEntry(addr=addr, enqueue_cycle=cycle))
        self.total_enqueued += 1
        return True

    def forwards(self, addr: int, line_size: int) -> bool:
        """True if a buffered store covers the same line as ``addr``.

        Used for store-to-load forwarding: a load that hits a buffered store
        does not need to reach the bus.  Matching at line granularity errs on
        the side of forwarding, which is harmless for a timing model that
        does not track data values.
        """
        if not self._entries:
            return False
        line = addr - (addr % line_size)
        return any(entry.addr - (entry.addr % line_size) == line for entry in self._entries)

    # ------------------------------------------------------------------ #
    # Bus-side interface (driven by the core each cycle).
    # ------------------------------------------------------------------ #
    def head_ready_to_issue(self) -> Optional[StoreEntry]:
        """Return the head entry if it may be posted on the bus now."""
        if self._head_in_flight or not self._entries:
            return None
        return self._entries[0]

    def mark_head_issued(self) -> None:
        """Record that the head entry has been posted on the bus."""
        if not self._entries:
            raise SimulationError(f"store buffer {self.core_id}: issue with no entries")
        if self._head_in_flight:
            raise SimulationError(f"store buffer {self.core_id}: head already in flight")
        self._head_in_flight = True

    def complete_head(self, cycle: int) -> StoreEntry:
        """Pop the head entry after its bus transaction completed."""
        del cycle
        if not self._entries or not self._head_in_flight:
            raise SimulationError(
                f"store buffer {self.core_id}: completion without an in-flight head"
            )
        entry = self._entries.popleft()
        self._head_in_flight = False
        self.total_drained += 1
        return entry

    @property
    def head_in_flight(self) -> bool:
        """True while the head entry's bus transaction is outstanding."""
        return self._head_in_flight

    # ------------------------------------------------------------------ #
    # Steady-state key/advance pair (see repro.sim.steady).
    # ------------------------------------------------------------------ #
    def steady_key(self, cycle: int) -> Key:
        """Buffered stores with their enqueue offsets, and the counters."""
        return (
            (
                tuple((entry.addr, entry.enqueue_cycle - cycle) for entry in self._entries),
                self._head_in_flight,
            ),
            (self.total_enqueued, self.total_drained, self.full_rejections),
        )

    def steady_advance(self, shift: int, periods: int, before: Counts, after: Counts) -> None:
        """Shift the buffered stores and add ``periods`` periods of counts."""
        for entry in self._entries:
            entry.enqueue_cycle += shift
        self.total_enqueued += periods * (after[0] - before[0])
        self.total_drained += periods * (after[1] - before[1])
        self.full_rejections += periods * (after[2] - before[2])

    def reset(self) -> None:
        """Drop every entry (statistics preserved)."""
        self._entries.clear()
        self._head_in_flight = False
