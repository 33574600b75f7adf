"""The assembled CMP: tiles, coherence and the network, lock-stepped.

One :class:`CmpSystem` is the paper's Table 2 platform: an N x N mesh
where every node hosts a core + private L1 + shared-L2 bank + router, with
memory controllers attached at configurable nodes.  The system advances
the component models and the cycle-accurate network in lock step; every
coherence message is a real packet subject to routing, contention and
flow control.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cmp.cache import EXCLUSIVE, MODIFIED, SHARED, CacheConfig
from repro.cmp.coherence import (
    DirectoryEntry,
    L1Controller,
    L2DirectoryController,
    Message,
)
from repro.cmp.core_model import CoreConfig, TraceCore, large_core_config
from repro.cmp.memory import MemoryConfig, MemoryController
from repro.core.layouts import Layout, build_network, memory_controller_placement
from repro.noc.routing import Routing
from repro.traffic.trace import TraceRecord

@dataclass(frozen=True)
class CmpConfig:
    """Platform parameters (Table 2 defaults)."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * 1024, associativity=4, block_bytes=128, latency=2
        )
    )
    l2_bank: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=1024 * 1024, associativity=16, block_bytes=128, latency=6
        )
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    mc_placement: str = "corners"
    mshr_per_core: int = 16
    local_delivery_latency: int = 1
    # Cores begin execution spread over this many cycles (deterministic,
    # per-node) so measurement avoids a cycle-0 thundering herd.
    start_stagger_window: int = 256


@dataclass
class MissRecord:
    """One completed L1 miss (for request-latency statistics)."""

    core: int
    block: int
    latency: int
    via_memory: bool
    is_write: bool


class CmpSystem:
    """A CMP instance bound to one network layout."""

    def __init__(
        self,
        layout: Layout,
        traces: Dict[int, Sequence[TraceRecord]],
        config: Optional[CmpConfig] = None,
        core_configs: Optional[Dict[int, CoreConfig]] = None,
        routing: Optional[Routing] = None,
    ) -> None:
        self.layout = layout
        self.config = config or CmpConfig()
        self.network = build_network(layout, routing=routing)
        # The system owns the network, the controllers and the cores; what
        # they hold of it -- the delivery callback, the send / schedule
        # ports, the miss hook -- is this one weak reference, so the last
        # reference to a system frees all of it without the cycle collector.
        system = weakref.ref(self)
        network = self.network

        def send(msg: Message) -> None:
            system().send_message(msg)

        def schedule(delay: int, fn: Callable[[], None]) -> None:
            system().schedule(delay, fn)

        def on_delivery(packet, cycle: int) -> None:
            system()._on_packet(packet, cycle)

        def record_miss(node: int, *miss) -> None:
            system()._record_miss(node, *miss)

        def clock() -> int:
            return network.cycle

        network.on_delivery = on_delivery
        num_nodes = self.network.topology.num_nodes
        if set(traces) - set(range(num_nodes)):
            raise ValueError("trace map names cores outside the mesh")
        # L2 banks index their sets above the node-interleave bits.
        if self.config.l2_bank.interleave_shift == 0:
            self.config = dataclasses.replace(
                self.config,
                l2_bank=dataclasses.replace(
                    self.config.l2_bank,
                    interleave_shift=(num_nodes - 1).bit_length(),
                ),
            )

        block_bytes = self.config.l1.block_bytes
        mc_nodes = memory_controller_placement(
            self.config.mc_placement, layout.mesh_size
        )
        self._mc_nodes = mc_nodes

        def home_of(block: int) -> int:
            return (block // block_bytes) % num_nodes

        def mc_of(block: int) -> int:
            return mc_nodes[(block // block_bytes) % len(mc_nodes)]

        self.home_of = home_of
        self.mc_of = mc_of

        self._events: List = []
        self._event_seq = itertools.count()

        self.l1s: Dict[int, L1Controller] = {}
        self.l2s: Dict[int, L2DirectoryController] = {}
        self.cores: Dict[int, TraceCore] = {}
        for node in range(num_nodes):
            l1 = L1Controller(
                node,
                self.config.l1,
                self.config.mshr_per_core,
                home_of,
                send,
                schedule,
            )
            l1.on_miss_complete = functools.partial(record_miss, node)
            self.l1s[node] = l1
            self.l2s[node] = L2DirectoryController(
                node, self.config.l2_bank, home_of, mc_of, send
            )
        self.mcs: Dict[int, MemoryController] = {
            node: MemoryController(node, self.config.memory, send)
            for node in mc_nodes
        }
        core_configs = core_configs or {}
        window = max(1, self.config.start_stagger_window)
        for node, trace in traces.items():
            cfg = core_configs.get(node, large_core_config())
            self.cores[node] = TraceCore(
                node,
                cfg,
                trace,
                self.l1s[node],
                start_cycle=(node * 37) % window,
            )
            self.cores[node].clock = clock
        # Cores still running, in stepping order (which fixes packet ids
        # and event sequence numbers).
        self._live: List[TraceCore] = [
            core for core in self.cores.values() if not core.done
        ]

        self.miss_records: List[MissRecord] = []
        self.messages_sent = 0

    # -- plumbing ---------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.network.cycle

    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` cycles (component processing time)."""
        heapq.heappush(
            self._events,
            (self.cycle + max(0, delay), next(self._event_seq), fn, None),
        )

    def _dispatch_after(self, delay: int, msg: Message) -> None:
        # The message rides in the event itself: a pending event must not
        # hold the system, or an unfinished protocol tail would keep it alive.
        heapq.heappush(
            self._events,
            (self.cycle + max(0, delay), next(self._event_seq), None, msg),
        )

    def send_message(self, msg: Message) -> None:
        """Inject a coherence message into the network (or deliver locally)."""
        self.messages_sent += 1
        if msg.src == msg.dst:
            self._dispatch_after(self.config.local_delivery_latency, msg)
            return
        packet = self.network.make_packet(
            msg.src,
            msg.dst,
            payload_bits=msg.payload_bits,
            packet_class=msg.mtype,
            payload=msg,
        )
        packet.measured = self.network.measuring
        self.network.enqueue(packet)

    def _on_packet(self, packet, cycle: int) -> None:
        msg = packet.payload
        if not isinstance(msg, Message):
            raise TypeError(f"CMP network delivered a non-coherence packet: {packet}")
        # A message goes to the component whose handler table names it.
        if msg.mtype in L2DirectoryController._HANDLERS:
            delay = self.config.l2_bank.latency
        elif msg.mtype in L1Controller._HANDLERS:
            delay = 1
        else:
            delay = 0
        self._dispatch_after(delay, msg)

    def _dispatch(self, msg: Message) -> None:
        if msg.mtype in L1Controller._HANDLERS:
            self.l1s[msg.dst].handle(msg)
        elif msg.mtype in L2DirectoryController._HANDLERS:
            self.l2s[msg.dst].handle(msg)
        elif msg.mtype in MemoryController._HANDLERS:
            try:
                mc = self.mcs[msg.dst]
            except KeyError:
                raise RuntimeError(
                    f"memory message routed to node {msg.dst} without a "
                    "memory controller"
                ) from None
            mc.handle(msg, self.cycle)
        else:
            raise ValueError(f"unroutable message type {msg.mtype}")

    def _record_miss(
        self, node: int, block: int, issued_at: int, via_memory: bool, is_write: bool
    ) -> None:
        self.miss_records.append(
            MissRecord(
                core=node,
                block=block,
                latency=self.cycle - issued_at,
                via_memory=via_memory,
                is_write=is_write,
            )
        )

    # -- functional warmup ------------------------------------------------------
    def warm_caches(self) -> None:
        """Functionally pre-load caches and directory from the traces.

        Replays every core's address stream (round-robin interleaved)
        through the tag stores and directory without any timing, so the
        timed run starts from a warm state -- the trace-driven equivalent
        of the paper's warmup phase.  Coherence metadata is kept exactly
        consistent (single writer, inclusive L2) so the protocol starts
        from a legal state.
        """
        from repro.traffic.workloads import FAR_REGION_BASE

        iterators = {
            node: iter(core.trace) for node, core in self.cores.items()
        }
        block_of = self.config.l1.block_address
        while iterators:
            finished = []
            for node, it in iterators.items():
                record = next(it, None)
                if record is None:
                    finished.append(node)
                    continue
                if record.address >= FAR_REGION_BASE:
                    # Fresh blocks stay cold: they model the workload's
                    # compulsory DRAM misses.
                    continue
                self._warm_access(node, block_of(record.address), record.is_write)
            for node in finished:
                del iterators[node]

    def _warm_access(self, core: int, block: int, is_write: bool) -> None:
        home = self.home_of(block)
        l2 = self.l2s[home]
        if l2.cache.lookup(block) is None:
            l2_victim = l2.cache.insert(block, SHARED)
            if l2_victim is not None:
                self._warm_evict_l2(home, l2_victim.block)
        directory = l2.directory
        l1 = self.l1s[core]
        entry = directory.get(block)
        if is_write:
            if entry is not None:
                for other in entry.sharers:
                    if other != core:
                        self.l1s[other].cache.invalidate(block)
                if entry.owner is not None and entry.owner != core:
                    self.l1s[entry.owner].cache.invalidate(block)
            directory[block] = DirectoryEntry(state=MODIFIED, owner=core)
            victim = l1.cache.insert(block, MODIFIED)
            l1.cache.lookup(block).dirty = True
        else:
            if l1.cache.lookup(block) is not None:
                # Already coherent from an earlier warm access; the lookup
                # was the LRU touch.
                return
            if entry is None:
                directory[block] = DirectoryEntry(state=MODIFIED, owner=core)
                victim = l1.cache.insert(block, EXCLUSIVE)
            elif entry.state == MODIFIED and entry.owner != core:
                owner_line = self.l1s[entry.owner].cache.probe(block)
                if owner_line is not None:
                    owner_line.state = SHARED
                    owner_line.dirty = False
                l2.cache.lookup(block).dirty = True
                new_entry = DirectoryEntry(state=SHARED)
                new_entry.sharers.update({entry.owner, core})
                directory[block] = new_entry
                victim = l1.cache.insert(block, SHARED)
            else:
                entry.sharers.add(core)
                if entry.state == MODIFIED:
                    # Our own stale ownership without the line (evicted
                    # silently); re-enter as a plain sharer.
                    entry.state = SHARED
                    entry.owner = None
                victim = l1.cache.insert(block, SHARED)
        if victim is not None:
            self._warm_evict_l1(core, victim.block)

    def _warm_evict_l1(self, core: int, block: int) -> None:
        home = self.home_of(block)
        entry = self.l2s[home].directory.get(block)
        if entry is None:
            return
        entry.sharers.discard(core)
        if entry.owner == core:
            entry.owner = None
            line = self.l2s[home].cache.lookup(block)
            if line is not None:
                line.dirty = True
        if not entry.sharers and entry.owner is None:
            del self.l2s[home].directory[block]
        elif entry.state == MODIFIED and entry.owner is None:
            entry.state = SHARED

    def _warm_evict_l2(self, home: int, block: int) -> None:
        entry = self.l2s[home].directory.pop(block, None)
        if entry is None:
            return
        targets = set(entry.sharers)
        if entry.owner is not None:
            targets.add(entry.owner)
        for target in targets:
            self.l1s[target].cache.invalidate(block)

    # -- simulation loop -----------------------------------------------------------
    def tick(self) -> None:
        """Advance the whole platform by one clock cycle."""
        self._tick()
        self._sync_cores()

    def _tick(self) -> None:
        cycle = self.cycle
        events = self._events
        while events and events[0][0] <= cycle:
            _, _, fn, msg = heapq.heappop(events)
            if fn is None:
                self._dispatch(msg)
            else:
                fn()
        # Only the cores whose cycle is not known in advance are stepped
        # (see TraceCore.advance); the rest are brought up to date when a
        # completion reaches them or somebody reads their counters.
        finished = False
        for core in self._live:
            if core.wake_at <= cycle:
                core.advance(cycle)
                finished = finished or core.done
        if finished:
            self._live = [core for core in self._live if not core.done]
        for mc in self.mcs.values():
            mc.tick(cycle)
        self.network.step()

    def _sync_cores(self) -> None:
        """Make every core's counters exact for ``self.cycle``."""
        cycle = self.cycle
        for core in self._live:
            core.catch_up(cycle)

    def run(
        self,
        max_cycles: int = 2_000_000,
        until_done: bool = True,
    ) -> int:
        """Run until every core finishes its trace (or ``max_cycles``).

        Returns the cycle count at stop.  Raises if ``until_done`` and the
        deadline passes with cores still outstanding -- that indicates a
        protocol or network deadlock.
        """
        deadline = self.cycle + max_cycles
        try:
            while self.cycle < deadline:
                if until_done and not self._live:
                    return self.cycle
                self._tick()
        finally:
            self._sync_cores()
        if until_done and self._live:
            stuck = [c for c, core in self.cores.items() if not core.done]
            waits = [self._mshr_waits(core) for core in stuck[:8]]
            raise RuntimeError(
                f"CMP failed to finish within {max_cycles} cycles; "
                f"cores still running: {stuck[:8]}"
                f"{'...' if len(stuck) > 8 else ''}; MSHR waits: "
                + ("; ".join(filter(None, waits)) or "none")
            )
        return self.cycle

    def measure(self, max_cycles: int = 2_000_000) -> int:
        """The one CMP experiment: warm the caches, open the network's
        measurement window, run every core to the end of its trace and
        close the window.

        Returns the cycle count; raises :meth:`run`'s "failed to finish"
        ``RuntimeError`` when ``max_cycles`` pass first.  Afterwards
        ``network.stats`` holds the run's window and the cores, caches
        and ``miss_records`` its results.
        """
        self.warm_caches()
        self.network.begin_measurement()
        cycles = self.run(max_cycles=max_cycles)
        self.network.end_measurement()
        return cycles

    def _mshr_waits(self, core: int) -> str:
        """Each block ``core`` has a miss outstanding on, with its home
        and the transaction open there (a deadlock report's evidence);
        empty when the core waits on no miss."""
        blocks = []
        for block in self.l1s[core].mshrs.blocks():
            home = self.home_of(block)
            txn = self.l2s[home].busy.get(block)
            held = (
                "no open transaction" if txn is None
                else f"{txn.kind} for core {txn.requester}"
            )
            blocks.append(f"{block:#x} (home {home}: {held})")
        return f"core {core}: " + ", ".join(blocks) if blocks else ""

    # -- results ---------------------------------------------------------------------
    def per_core_ipc(self) -> Dict[int, float]:
        return {node: core.ipc(self.cycle) for node, core in self.cores.items()}

    def mean_ipc(self) -> float:
        values = self.per_core_ipc().values()
        return sum(values) / len(values)

    def miss_latency_stats(self, via_memory_only: bool = False) -> Dict[str, float]:
        """Mean/std of L1 miss round-trip latencies (cycles)."""
        records = [
            r for r in self.miss_records if r.via_memory or not via_memory_only
        ]
        if not records:
            raise ValueError("no miss records collected")
        latencies = [r.latency for r in records]
        mean = sum(latencies) / len(latencies)
        variance = sum((l - mean) ** 2 for l in latencies) / len(latencies)
        return {
            "count": float(len(latencies)),
            "mean": mean,
            "std": variance**0.5,
            "normalized_std": variance**0.5 / mean if mean else 0.0,
        }

    @property
    def mc_nodes(self) -> List[int]:
        return list(self._mc_nodes)
