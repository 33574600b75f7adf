"""Trace-driven core timing models.

Two flavours, matching the paper's asymmetric-CMP study (Section 7):

* the **large** core: multiple-issue out-of-order (Table 2: 3-wide,
  64-entry window) -- modelled as a core that retires up to
  ``issue_width`` non-memory instructions per cycle and tolerates up to
  ``max_outstanding`` concurrent cache misses before stalling;
* the **small** core: single-issue in-order -- one instruction per cycle
  and *blocking* memory operations (one outstanding miss, loads stall the
  pipeline until data returns).

The instruction stream is the paper's trace format: memory operations
separated by counted non-memory instruction gaps
(:class:`repro.traffic.trace.TraceRecord`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.cmp.coherence import L1Controller
from repro.traffic.trace import TraceRecord


@dataclass(frozen=True)
class CoreConfig:
    """Core timing parameters."""

    issue_width: int = 3
    max_outstanding: int = 16
    blocking_loads: bool = False
    # Reorder-buffer size: the core may run at most this many instructions
    # ahead of its oldest incomplete memory operation (Table 2: 64-entry
    # instruction window).
    window: int = 64

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")


def large_core_config() -> CoreConfig:
    """Table 2's out-of-order core (3-wide, 64-entry window)."""
    return CoreConfig(
        issue_width=3, max_outstanding=16, blocking_loads=False, window=64
    )


def small_core_config() -> CoreConfig:
    """The asymmetric CMP's single-issue in-order core."""
    return CoreConfig(
        issue_width=1, max_outstanding=1, blocking_loads=True, window=16
    )


#: ``wake_at`` of a core that only a completion can wake.
NEVER = math.inf


class TraceCore:
    """One core replaying a memory trace through its L1 controller.

    :meth:`step` defines what the core does in a cycle, and calling it
    every cycle is always valid.  A driver that would rather not can skip
    the cycles whose outcome is known in advance -- asleep before
    ``start_cycle``, a pure stall, full-width consumption of an
    instruction gap, draining after the last record: it calls
    :meth:`advance` only when ``wake_at <= cycle``, sets :attr:`clock` so
    a completion can account for the skipped cycles before it changes
    what they would have done (and plan again from the state it leaves),
    and calls :meth:`catch_up` before it reads the counters.
    """

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        trace: Sequence[TraceRecord],
        l1: L1Controller,
        start_cycle: int = 0,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.trace: List[TraceRecord] = list(trace)
        self.l1 = l1
        self.start_cycle = start_cycle
        self._index = 0
        self._gap_remaining = self.trace[0].gap if self.trace else 0
        self.instructions_retired = 0
        self.outstanding = 0
        # Retired-instruction marks at issue time of each outstanding miss
        # (FIFO approximation of the ROB: the core may run at most
        # ``window`` instructions past its oldest incomplete access).
        self._issue_marks: Deque[int] = deque()
        self._blocked_until_response = False
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        self.stall_cycles = 0
        #: optional hook a skipping driver sets: () -> the current cycle.
        self.clock: Optional[Callable[[], int]] = None
        # Cycles before ``_synced`` are in the counters.  The plan covers the
        # ones from there on: ``wake_at`` is the first that :meth:`step` has
        # to run, each one before it adds ``_quiet_stall`` stall cycles and
        # retires ``_quiet_retire`` gap instructions.
        self._synced = 0
        self._plan()

    @property
    def trace_exhausted(self) -> bool:
        return self._index >= len(self.trace)

    @property
    def done(self) -> bool:
        return self.trace_exhausted and self.outstanding == 0

    def step(self, cycle: int) -> None:
        """Advance one cycle of execution."""
        if self.done or cycle < self.start_cycle:
            return
        if self.started_at is None:
            self.started_at = cycle
        if self._blocked_until_response:
            self.stall_cycles += 1
            return
        budget = self.config.issue_width
        while budget > 0 and not self.trace_exhausted:
            headroom = self._window_headroom()
            if headroom == 0:
                self.stall_cycles += 1
                return
            if self._gap_remaining > 0:
                consumed = min(budget, self._gap_remaining, headroom)
                self._gap_remaining -= consumed
                self.instructions_retired += consumed
                budget -= consumed
                continue
            record = self.trace[self._index]
            if self.outstanding >= self.config.max_outstanding:
                self.stall_cycles += 1
                return
            status = self.l1.request(
                record.address,
                record.is_write,
                cycle,
                self._make_completion(record, cycle),
            )
            if status == "blocked":
                self.stall_cycles += 1
                return
            self.outstanding += 1
            self._issue_marks.append(self.instructions_retired)
            self.instructions_retired += 1
            budget -= 1
            self._advance_trace()
            blocking = self.config.blocking_loads and not record.is_write
            if blocking:
                # In-order core: the load stalls the pipeline until the
                # data (or the L1 hit) completes.
                self._blocked_until_response = True
                return
        if self.trace_exhausted and self.outstanding == 0:
            self.finished_at = cycle

    # -- skipping the predictable cycles ----------------------------------------
    def _quiet_cycles(self) -> Tuple[float, int, int]:
        """``(n, stall, retire)``: each of the next ``n`` cycles from
        ``_synced`` on would add ``stall`` to ``stall_cycles``, retire
        ``retire`` gap instructions and do nothing else -- the cases of
        :meth:`step` that never reach the L1.  ``n`` is 0 when the next
        cycle has to be stepped and :data:`NEVER` when only a completion
        ends the quiet."""
        exhausted = self._index >= len(self.trace)
        if exhausted and self.outstanding == 0:
            # Finished; the one empty step this asks for is where a driver
            # that skips sees it ``done``.
            return 0, 0, 0
        if self.started_at is None:
            return max(0, self.start_cycle - self._synced), 0, 0
        if self._blocked_until_response:
            return NEVER, 1, 0
        if exhausted:
            return NEVER, 0, 0  # draining
        headroom = self._window_headroom()
        if headroom == 0:
            return NEVER, 1, 0
        if self._gap_remaining > 0:
            # A cycle takes the whole issue width while the gap -- and,
            # behind an outstanding miss, the window -- still holds one.
            room = self._gap_remaining
            if self._issue_marks:
                room = min(room, headroom)
            width = self.config.issue_width
            return room // width, 0, width
        if self.outstanding >= self.config.max_outstanding:
            return NEVER, 1, 0
        # The next record goes to the L1; a "blocked" answer keeps the core
        # polled, because every retry counts in the L1 and touches its LRU.
        return 0, 0, 0

    def _plan(self) -> None:
        """Fix what the cycles from ``_synced`` up to ``wake_at`` do.  Must
        follow every change of state, which is to say :meth:`step` and a
        completion."""
        quiet, self._quiet_stall, self._quiet_retire = self._quiet_cycles()
        self.wake_at = self._synced + quiet

    def catch_up(self, cycle: int) -> None:
        """Put the skipped cycles before ``cycle`` into the counters
        (``cycle <= wake_at``: the plan covers no more)."""
        skipped = cycle - self._synced
        if skipped > 0:
            self.stall_cycles += skipped * self._quiet_stall
            retired = skipped * self._quiet_retire
            self._gap_remaining -= retired
            self.instructions_retired += retired
            self._synced = cycle

    def advance(self, cycle: int) -> None:
        """:meth:`step` for a driver that skips: run ``cycle`` on top of
        the cycles skipped since the last call, then plan the next ones."""
        self.catch_up(cycle)
        self.step(cycle)
        self._synced = cycle + 1
        self._plan()

    def _advance_trace(self) -> None:
        self._index += 1
        if not self.trace_exhausted:
            self._gap_remaining = self.trace[self._index].gap

    def _window_headroom(self) -> int:
        """Instructions the core may still run past its oldest miss."""
        if not self._issue_marks:
            return self.config.window
        return max(
            0,
            self._issue_marks[0] + self.config.window - self.instructions_retired,
        )

    def _make_completion(self, record: TraceRecord, cycle: int) -> Callable[[], None]:
        def on_complete() -> None:
            skipping = self.clock is not None
            if skipping:
                # What the skipped cycles did depends on the state this
                # completion is about to change.
                self.catch_up(self.clock())
            self.outstanding -= 1
            if self._issue_marks:
                self._issue_marks.popleft()
            self._blocked_until_response = False
            if self.outstanding < 0:
                raise RuntimeError(
                    f"core {self.core_id} completed more memory ops than issued"
                )
            if skipping:
                self._plan()

        return on_complete

    def ipc(self, current_cycle: int) -> float:
        """Instructions per cycle since this core started."""
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else current_cycle
        elapsed = max(1, end - self.started_at)
        return self.instructions_retired / elapsed
