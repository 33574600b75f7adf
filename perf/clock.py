"""The calibrated clock: wall time with the host's speed taken out.

The sandbox's speed moves by a third for seconds or minutes at a time
(other tenants of the machine), which no run length averages away: over
ten 20 s runs of one commit the raw wall-clock metrics of the CPU-bound
workloads spread by 13-34 %.  A :class:`HostClock` times a fixed piece of
simulator-like interpreter work between ops and rescales the CPU seconds
of each op by it; the same runs then spread by 3-10 %.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Callable, List

from perf.trace import Tracer


class HostClock:
    #: what :meth:`read` returns on the machine the benchmark was written
    #: on when nothing else competes for it.
    NOMINAL_S = 0.0023

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        # About 8 MB of small lists: the reference walks them at random,
        # as a simulator walks its routers, flits and cache lines.
        self._cells = [[index, 0] for index in range(1 << 16)]
        self.last_s = self.read()

    def read(self) -> float:
        """Seconds the reference work takes right now: arithmetic, a random
        walk over a few megabytes of objects, and small allocations (an
        arithmetic loop alone slows less than the simulator does when the
        machine is contended).  2-3 ms; callers keep it outside every op's
        latency."""
        with self.tracer.span("perf.host_reference"):
            started = perf_counter()
            cells = self._cells
            ring = deque(maxlen=64)
            index = 1
            for number in range(2_500):
                index = (index * 1103515245 + 12345) & 0xFFFF
                cell = cells[index]
                cell[1] = (cell[1] + cell[0] * number) & 0xFFFFFFF
                ring.append({"id": number, "hops": (number, index)})
            return perf_counter() - started

    def calibrate(self, ops: List) -> None:
        """Set each op's ``calibrated_s``: the seconds this process spent
        on the CPU are rescaled to a host on which the reference reads
        ``NOMINAL_S`` (taking the readings before and after the op); the
        rest -- sleeping, waiting for the server -- is left as it is."""
        for op in ops:
            around = (self.last_s + op.host_ref_s) / 2
            op.calibrated_s = (
                op.latency_s - op.cpu_s + op.cpu_s * self.NOMINAL_S / around
            )
            self.last_s = op.host_ref_s

    def seconds(self, work: Callable[[], None]) -> float:
        """Calibrated seconds CPU-bound ``work()`` takes (the probes)."""
        before = self.read()
        started = perf_counter()
        work()
        wall = perf_counter() - started
        return wall * self.NOMINAL_S / ((before + self.read()) / 2)
