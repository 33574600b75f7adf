"""Memory controllers and the DRAM model (Table 2 / Section 6).

Each controller owns a slice of physical memory (low-order block
interleave across controllers, the paper's Section 6 mapping) and serves
reads with a fixed DRAM access latency plus queuing: one request may
begin service every ``service_interval`` cycles, modelling limited DRAM
bandwidth per channel.  Writes (dirty L2 evictions) are posted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, List

from collections import deque

from repro.cmp.coherence import Message, SendFn


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM timing (Table 2: 400-cycle access)."""

    access_latency: int = 400
    service_interval: int = 4

    def __post_init__(self) -> None:
        if self.access_latency < 1:
            raise ValueError("access_latency must be >= 1")
        if self.service_interval < 1:
            raise ValueError("service_interval must be >= 1")


class MemoryController:
    """One memory controller attached at a network node."""

    def __init__(
        self, node: int, config: MemoryConfig, send: SendFn
    ) -> None:
        self.node = node
        self.config = config
        self.send = send
        self._queue: Deque[Message] = deque()
        self._next_service_at = 0
        # (completion_cycle, message) pairs in flight inside DRAM.
        self._in_flight: List = []
        self.reads_served = 0
        self.writes_served = 0

    def handle(self, msg: Message, cycle: int) -> None:
        handler = self._HANDLERS.get(msg.mtype)
        if handler is None:
            raise ValueError(f"memory controller got unexpected {msg.mtype}")
        handler(self, msg)

    def _enqueue(self, msg: Message) -> None:
        # A posted write consumes a service slot too, but needs no reply.
        self._queue.append(msg)

    _HANDLERS = {"MEM_READ": _enqueue, "MEM_WRITE": _enqueue}

    def tick(self, cycle: int) -> None:
        """Advance one cycle: start and complete DRAM accesses."""
        if self._queue and cycle >= self._next_service_at:
            msg = self._queue.popleft()
            self._next_service_at = cycle + self.config.service_interval
            if msg.mtype == "MEM_WRITE":
                self.writes_served += 1
            else:
                self._in_flight.append(
                    (cycle + self.config.access_latency, msg)
                )
        if not self._in_flight:
            return
        still_waiting = []
        for done_at, msg in self._in_flight:
            if done_at <= cycle:
                self.reads_served += 1
                self.send(
                    Message(
                        mtype="MEM_DATA",
                        block=msg.block,
                        src=self.node,
                        dst=msg.src,
                    )
                )
            else:
                still_waiting.append((done_at, msg))
        self._in_flight = still_waiting
