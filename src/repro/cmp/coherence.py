"""Two-level directory-based MESI coherence protocol (Table 2).

Private L1s are kept coherent by directories co-located with the shared
L2's home banks.  Every protocol action is a message that travels through
the cycle-accurate network:

===========  ======  ====================================================
message      size    meaning
===========  ======  ====================================================
GETS         1 flit  L1 read miss -> home
GETX         1 flit  L1 write miss / upgrade -> home
PUTX         data    dirty L1 eviction (writeback) -> home
WB_ACK       1 flit  home acknowledges a PUTX
DATA         data    home grants Shared
DATA_E       data    home grants Exclusive (no other sharers)
DATA_X       data    home grants Modified (write permission)
INV          1 flit  home invalidates a sharer
INV_ACK      1 flit  sharer acknowledges an INV -> home
FWD_GETS     1 flit  home forwards a read to the Modified owner
FWD_GETX     1 flit  home forwards a write to the Modified owner
OWNER_DATA   data    owner returns the block to the home
MEM_READ     1 flit  L2 miss -> memory controller
MEM_DATA     data    memory controller -> home fill
MEM_WRITE    data    dirty L2 eviction -> memory controller
===========  ======  ====================================================

The home bank serializes transactions per block (a busy block queues later
requests), which keeps the protocol free of most races; the remaining
PUTX-vs-forward race is handled with a writeback buffer at the L1.

Known approximation (timing model): when the (inclusive) L2 evicts a line
with L1 copies, the home sends fire-and-forget INVs and drops the late
acknowledgements instead of blocking the fill on a full recall; DESIGN.md
records this.  L2 banks are large enough (1 MB, 16-way) that such recalls
are rare in the evaluated workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Set

from collections import deque

from repro.cmp.cache import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    SHARED,
    CacheConfig,
    MSHRFile,
    SetAssociativeCache,
)

ADDRESS_MESSAGE_BITS = 64
DATA_MESSAGE_BITS = 1024

DATA_MESSAGES = frozenset(
    {"PUTX", "DATA", "DATA_E", "DATA_X", "OWNER_DATA", "MEM_DATA", "MEM_WRITE"}
)


@dataclass
class Message:
    """One coherence protocol message (carried as a network packet)."""

    mtype: str
    block: int
    src: int
    dst: int
    requester: Optional[int] = None
    # Set on grants whose transaction went to DRAM; lets the system
    # separate memory round-trips (Figure 13's metric) from cache-to-cache
    # transfers.
    via_memory: bool = False

    @property
    def payload_bits(self) -> int:
        return DATA_MESSAGE_BITS if self.mtype in DATA_MESSAGES else ADDRESS_MESSAGE_BITS


#: the line state each kind of grant installs.
_FILL_STATE = {"DATA": SHARED, "DATA_E": EXCLUSIVE, "DATA_X": MODIFIED}

SendFn = Callable[[Message], None]
ScheduleFn = Callable[[int, Callable[[], None]], None]


class L1Controller:
    """Private L1 cache controller for one core."""

    def __init__(
        self,
        node: int,
        cache_config: CacheConfig,
        mshr_capacity: int,
        home_of: Callable[[int], int],
        send: SendFn,
        schedule: ScheduleFn,
    ) -> None:
        self.node = node
        self.cache = SetAssociativeCache(cache_config)
        self.mshrs = MSHRFile(mshr_capacity)
        self.home_of = home_of
        self.send = send
        self.schedule = schedule
        # blocks with a PUTX in flight; value False once superseded by a
        # forward that already handed the block onward.
        self.writeback_buffer: Dict[int, bool] = {}
        self.loads = 0
        self.stores = 0
        #: optional hook fired when a miss completes:
        #: (block, issue_cycle, via_memory, is_write) -> None
        self.on_miss_complete: Optional[Callable[[int, int, bool, bool], None]] = None

    # -- core-facing interface ------------------------------------------------
    def request(
        self,
        address: int,
        is_write: bool,
        cycle: int,
        on_complete: Callable[[], None],
    ) -> str:
        """Core demand access.  Returns ``"hit"``, ``"miss"`` or ``"blocked"``.

        On a hit the completion callback fires after the L1 latency; on a
        miss it fires when the fill arrives.  ``"blocked"`` means the MSHR
        file is full (or the block already has a conflicting outstanding
        miss that cannot be merged) and the core must retry.
        """
        if is_write:
            self.stores += 1
        else:
            self.loads += 1
        block = self.cache.config.block_address(address)
        if block in self.writeback_buffer:
            # Our own PUTX for this block is still in flight; requesting
            # it again now could reach the home before the PUTX and leave
            # a stale writeback to clobber the new directory entry.
            # Stall until the WB_ACK clears the buffer.
            return "blocked"
        hit, line = self.cache.access(address)
        if hit:
            if not is_write or line.state in (MODIFIED, EXCLUSIVE):
                if is_write:
                    line.state = MODIFIED
                    line.dirty = True
                self.schedule(self.cache.config.latency, on_complete)
                return "hit"
            # Write to a Shared line: upgrade via GETX.
            hit = False
        entry = self.mshrs.lookup(block)
        if entry is not None:
            if is_write and not entry.is_write:
                # A read miss is outstanding and a write wants the block:
                # simplest correct handling is to retry once it returns.
                return "blocked"
            entry.waiters.append(on_complete)
            return "miss"
        if self.mshrs.full:
            return "blocked"
        entry = self.mshrs.allocate(block, is_write, cycle)
        entry.waiters.append(on_complete)
        self.send(
            Message(
                mtype="GETX" if is_write else "GETS",
                block=block,
                src=self.node,
                dst=self.home_of(block),
            )
        )
        return "miss"

    # -- network-facing interface ----------------------------------------------
    def handle(self, msg: Message) -> None:
        handler = self._HANDLERS.get(msg.mtype)
        if handler is None:
            raise ValueError(f"L1 at node {self.node} got unexpected {msg.mtype}")
        handler(self, msg)

    def _on_data(self, msg: Message) -> None:
        state = _FILL_STATE[msg.mtype]
        victim = self.cache.insert(msg.block, state)
        line = self.cache.lookup(msg.block)
        if state == MODIFIED:
            line.dirty = True
        if victim is not None and victim.state == MODIFIED:
            self._write_back(victim.block)
        entry = self.mshrs.release(msg.block)
        if self.on_miss_complete is not None:
            self.on_miss_complete(
                msg.block, entry.issued_at, msg.via_memory, entry.is_write
            )
        for waiter in entry.waiters:
            waiter()
        if entry.pending_forward is not None:
            # Service the forward that overtook this fill: the line is
            # resident now, so the normal handler applies.
            self.handle(entry.pending_forward)
        elif entry.invalidate_on_fill and msg.mtype != "DATA_X":
            # A crossed invalidation: the waiters consumed the fill, but
            # the copy must not linger (the directory no longer lists us).
            self.cache.invalidate(msg.block)

    def _write_back(self, block: int) -> None:
        self.writeback_buffer[block] = True
        self.send(
            Message(
                mtype="PUTX", block=block, src=self.node, dst=self.home_of(block)
            )
        )

    def _on_inv(self, msg: Message) -> None:
        line = self.cache.invalidate(msg.block)
        # A Modified line can be INVed only by the L2-eviction recall path;
        # its data rides back as a writeback so memory stays current.
        if line is not None and line.state == MODIFIED:
            self._write_back(msg.block)
        if line is None:
            # The INV may have overtaken a read fill still in flight on
            # another virtual channel; remember to drop the line once the
            # data lands, else this cache becomes an invisible sharer.
            entry = self.mshrs.lookup(msg.block)
            if entry is not None and not entry.is_write:
                entry.invalidate_on_fill = True
        self.send(
            Message(
                mtype="INV_ACK", block=msg.block, src=self.node, dst=msg.src
            )
        )

    def _stash_if_fill_in_flight(self, msg: Message) -> bool:
        """Forward-overtakes-grant race: the home granted us the block and
        immediately forwarded the next requester to us, but the forward
        beat our fill through the network.  Park it on the MSHR entry and
        service it once the data lands."""
        entry = self.mshrs.lookup(msg.block)
        if entry is not None:
            if entry.pending_forward is not None:
                raise RuntimeError(
                    f"two forwards in flight for block {msg.block:#x} at "
                    f"node {self.node}: the home failed to serialize"
                )
            entry.pending_forward = msg
            return True
        return False

    def _on_fwd_gets(self, msg: Message) -> None:
        line = self.cache.lookup(msg.block)
        if line is not None and line.state in (MODIFIED, EXCLUSIVE):
            line.state = SHARED
            line.dirty = False
        elif msg.block in self.writeback_buffer:
            # PUTX crossed the forward on the wire; serve from the
            # writeback buffer and let the home drop the stale PUTX.
            self.writeback_buffer[msg.block] = False
        elif self._stash_if_fill_in_flight(msg):
            # Forwards target *owners*; without an M/E copy here, the
            # forward must concern the ownership our outstanding request
            # is about to receive (it overtook the grant).  A stale S copy
            # does not make us the owner either.
            return
        self.send(
            Message(
                mtype="OWNER_DATA",
                block=msg.block,
                src=self.node,
                dst=msg.src,
                requester=msg.requester,
            )
        )

    def _on_fwd_getx(self, msg: Message) -> None:
        line = self.cache.lookup(msg.block)
        if line is not None and line.state in (MODIFIED, EXCLUSIVE):
            self.cache.invalidate(msg.block)
        elif msg.block in self.writeback_buffer:
            self.writeback_buffer[msg.block] = False
        elif self._stash_if_fill_in_flight(msg):
            return
        else:
            # Silent-eviction fallback: the home still thinks we own the
            # block; any stale copy must go before we acknowledge.
            self.cache.invalidate(msg.block)
        self.send(
            Message(
                mtype="OWNER_DATA",
                block=msg.block,
                src=self.node,
                dst=msg.src,
                requester=msg.requester,
            )
        )

    def _on_wb_ack(self, msg: Message) -> None:
        self.writeback_buffer.pop(msg.block, None)

    _HANDLERS = {
        "DATA": _on_data,
        "DATA_E": _on_data,
        "DATA_X": _on_data,
        "INV": _on_inv,
        "FWD_GETS": _on_fwd_gets,
        "FWD_GETX": _on_fwd_getx,
        "WB_ACK": _on_wb_ack,
    }

    # -- invariants (used by tests) ---------------------------------------------
    def state_of(self, block: int) -> str:
        line = self.cache.probe(block)
        return line.state if line is not None else INVALID


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one block with L1 copies."""

    state: str  # SHARED or MODIFIED (E is tracked as MODIFIED-with-clean)
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None


@dataclass
class _Transaction:
    """An in-flight transaction serializing a block at its home."""

    kind: str  # "fetch", "fwd_gets", "fwd_getx", "inv_collect"
    requester: int
    is_write: bool
    pending_acks: int = 0


class L2DirectoryController:
    """One home bank of the shared L2, with its directory slice."""

    def __init__(
        self,
        node: int,
        cache_config: CacheConfig,
        home_of: Callable[[int], int],
        mc_of: Callable[[int], int],
        send: SendFn,
    ) -> None:
        self.node = node
        self.cache = SetAssociativeCache(cache_config)
        self.home_of = home_of
        self.mc_of = mc_of
        self.send = send
        self.directory: Dict[int, DirectoryEntry] = {}
        self.busy: Dict[int, _Transaction] = {}
        self.waiting: Dict[int, Deque[Message]] = {}
        self.requests_served = 0

    # -- dispatch ------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        handler = self._HANDLERS.get(msg.mtype)
        if handler is None:
            raise ValueError(f"L2 at node {self.node} got unexpected {msg.mtype}")
        handler(self, msg)

    # -- requests ---------------------------------------------------------------
    def _on_request(self, msg: Message) -> None:
        if msg.block in self.busy:
            self.waiting.setdefault(msg.block, deque()).append(msg)
            return
        self._start_request(msg)

    def _start_request(self, msg: Message) -> None:
        block = msg.block
        is_write = msg.mtype == "GETX"
        entry = self.directory.get(block)
        in_l2 = self.cache.lookup(block) is not None

        if entry is not None and entry.state == MODIFIED and entry.owner != msg.src:
            kind = "fwd_getx" if is_write else "fwd_gets"
            self.busy[block] = _Transaction(
                kind=kind, requester=msg.src, is_write=is_write
            )
            self.send(
                Message(
                    mtype="FWD_GETX" if is_write else "FWD_GETS",
                    block=block,
                    src=self.node,
                    dst=entry.owner,
                    requester=msg.src,
                )
            )
            return

        if not in_l2:
            self.busy[block] = _Transaction(
                kind="fetch", requester=msg.src, is_write=is_write
            )
            self.send(
                Message(
                    mtype="MEM_READ", block=block, src=self.node, dst=self.mc_of(block)
                )
            )
            return

        if is_write:
            sharers = set(entry.sharers) if entry else set()
            if entry is not None and entry.owner is not None:
                sharers.add(entry.owner)
            sharers.discard(msg.src)
            if sharers:
                self.busy[block] = _Transaction(
                    kind="inv_collect",
                    requester=msg.src,
                    is_write=True,
                    pending_acks=len(sharers),
                )
                for sharer in sharers:
                    self.send(
                        Message(
                            mtype="INV", block=block, src=self.node, dst=sharer
                        )
                    )
                return
            self._grant(block, msg.src, "DATA_X")
            return

        # Read with no remote Modified owner.
        if entry is None:
            self._grant(block, msg.src, "DATA_E")
        else:
            self._grant(block, msg.src, "DATA")

    def _grant(
        self, block: int, requester: int, mtype: str, via_memory: bool = False
    ) -> None:
        entry = self.directory.get(block)
        if mtype == "DATA_X" or mtype == "DATA_E":
            self.directory[block] = DirectoryEntry(state=MODIFIED, owner=requester)
        else:
            if entry is None or entry.state != SHARED:
                entry = DirectoryEntry(state=SHARED)
                self.directory[block] = entry
            entry.sharers.add(requester)
            entry.owner = None
        self.requests_served += 1
        self.send(
            Message(
                mtype=mtype,
                block=block,
                src=self.node,
                dst=requester,
                via_memory=via_memory,
            )
        )
        self._drain_waiters(block)

    def _drain_waiters(self, block: int) -> None:
        queue = self.waiting.get(block)
        if queue and block not in self.busy:
            next_msg = queue.popleft()
            if not queue:
                del self.waiting[block]
            self._start_request(next_msg)

    # -- transaction completions -----------------------------------------------
    def _on_owner_data(self, msg: Message) -> None:
        txn = self.busy.pop(msg.block, None)
        if txn is None:
            return  # late data from a recalled line: memory write-through
        line = self.cache.lookup(msg.block)
        if line is not None:
            line.dirty = True
        if txn.kind == "fwd_gets":
            entry = DirectoryEntry(state=SHARED)
            entry.sharers.update({msg.src, txn.requester})
            self.directory[msg.block] = entry
            self.requests_served += 1
            self.send(
                Message(
                    mtype="DATA", block=msg.block, src=self.node, dst=txn.requester
                )
            )
        else:  # fwd_getx
            self.directory[msg.block] = DirectoryEntry(
                state=MODIFIED, owner=txn.requester
            )
            self.requests_served += 1
            self.send(
                Message(
                    mtype="DATA_X", block=msg.block, src=self.node, dst=txn.requester
                )
            )
        self._drain_waiters(msg.block)

    def _on_inv_ack(self, msg: Message) -> None:
        txn = self.busy.get(msg.block)
        if txn is None or txn.kind != "inv_collect":
            return  # ack for a fire-and-forget eviction INV
        txn.pending_acks -= 1
        if txn.pending_acks > 0:
            return
        del self.busy[msg.block]
        self.directory.pop(msg.block, None)
        self._grant(msg.block, txn.requester, "DATA_X")

    def _on_mem_data(self, msg: Message) -> None:
        txn = self.busy.pop(msg.block, None)
        victim = self.cache.insert(msg.block, SHARED)
        if victim is not None:
            self._evict(victim)
        if txn is None:
            return
        if txn.is_write:
            self._grant(msg.block, txn.requester, "DATA_X", via_memory=True)
        else:
            self._grant(msg.block, txn.requester, "DATA_E", via_memory=True)

    def _on_putx(self, msg: Message) -> None:
        entry = self.directory.get(msg.block)
        if entry is not None and entry.owner == msg.src:
            del self.directory[msg.block]
            line = self.cache.lookup(msg.block)
            if line is not None:
                line.dirty = True
        self.send(
            Message(mtype="WB_ACK", block=msg.block, src=self.node, dst=msg.src)
        )

    def _evict(self, victim) -> None:
        """Inclusive-L2 eviction: recall L1 copies (fire-and-forget) and
        write dirty data back to memory."""
        entry = self.directory.pop(victim.block, None)
        if entry is not None:
            targets = set(entry.sharers)
            if entry.owner is not None:
                targets.add(entry.owner)
            for target in targets:
                self.send(
                    Message(
                        mtype="INV", block=victim.block, src=self.node, dst=target
                    )
                )
        if victim.dirty:
            self.send(
                Message(
                    mtype="MEM_WRITE",
                    block=victim.block,
                    src=self.node,
                    dst=self.mc_of(victim.block),
                )
            )

    _HANDLERS = {
        "GETS": _on_request,
        "GETX": _on_request,
        "PUTX": _on_putx,
        "INV_ACK": _on_inv_ack,
        "OWNER_DATA": _on_owner_data,
        "MEM_DATA": _on_mem_data,
    }
