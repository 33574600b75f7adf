"""Two-level directory-based MESI coherence protocol (Table 2), as data.

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

Each controller is a transition table, as in gem5 Ruby's SLICC
controllers: ``state_of`` names a block's state, ``_classify`` turns a
message and the protocol's guards into an event, and ``_fire`` runs the
``TABLE`` row ``(state, event) -> (actions, next state)``.  A message a
transient state cannot take is deferred, and replayed once the block is
stable again.  Known defects stay rows until ROADMAP item 2 edits them;
the fire-and-forget L2 recall is an approximation DESIGN.md records.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Set, Tuple

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
MESSAGE_TYPES = DATA_MESSAGES | {
    "GETS", "GETX", "WB_ACK", "INV", "INV_ACK", "FWD_GETS", "FWD_GETX", "MEM_READ"
}


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


SendFn = Callable[[Message], None]
ScheduleFn = Callable[[int, Callable[[], None]], None]


class ProtocolError(RuntimeError):
    """A controller met a (state, event) pair its table has no row for."""


def _table(*rows) -> Dict[Tuple[str, str], tuple]:
    """Rows ``(states, events, actions, next state)``, SLICC style: a
    state or event may be a tuple of them, and a next state of None
    keeps the state."""
    table = {}
    for states, events, actions, next_state in rows:
        for state in (states,) if isinstance(states, str) else states:
            for event in (events,) if isinstance(events, str) else events:
                if (state, event) in table:
                    raise ValueError(f"two rows for ({state}, {event})")
                table[state, event] = (actions, state if next_state is None else next_state)
    return table


class _TableController:
    """The interpreter both controllers share.  A controller defines
    ``state_of``, ``STABLE`` and ``TRANSIENT`` (its state names),
    ``TABLE`` and ``MESSAGES`` (the message types that are its events)."""

    def _classify(self, state: str, msg: Message) -> str:
        return msg.mtype

    def handle(self, msg: Message) -> None:
        state = self.state_of(msg.block)
        self._fire(msg.block, state, self._classify(state, msg), msg)

    def _fire(self, block: int, state: str, event: str, arg) -> Tuple[Callable, ...]:
        row = self.TABLE.get((state, event))
        if row is None:
            raise ProtocolError(
                f"{type(self).__name__} at node {self.node}: block {block:#x} "
                f"in state {state} has no row for event {event}"
            )
        actions, next_state = row
        for action in actions:
            action(self, block, arg)
        if next_state in self.TRANSIENT:
            self.transient[block] = next_state
        else:
            self.transient.pop(block, None)
            queue = self.deferred.get(block)
            if queue:
                msg = queue.popleft()
                if not queue:
                    del self.deferred[block]
                self.handle(msg)
        return actions

    def _send(self, mtype: str, block: int, dst: int, **fields) -> None:
        self.send(Message(mtype=mtype, block=block, src=self.node, dst=dst, **fields))


def _defer(self: _TableController, block: int, msg: Message) -> None:
    """Action: hold ``msg`` back until ``block`` enters a stable state."""
    self.deferred.setdefault(block, deque()).append(msg)


# -- L1 ------------------------------------------------------------------------
I, S, E, M = INVALID, SHARED, EXCLUSIVE, MODIFIED
#: read / write / upgrade (S held) miss in flight, waiting for its grant
IS_D, IM_D, SM_D = "IS_D", "IM_D", "SM_D"
#: a read miss an INV crossed: the fill serves the waiters, then goes
IS_D_I = "IS_D_I"
#: a miss with a forward parked on its fill (replayed once it lands)
IS_D_F, IM_D_F, SM_D_F = "IS_D_F", "IM_D_F", "SM_D_F"
#: a PUTX in flight, until its WB_ACK
MI_A = "MI_A"
#: the actions of a hit row.  ``request`` serves every hit row itself (a
#: store enters M, then the core waits the L1 latency), so ``_fire``
#: never runs one
HIT = "hit"


def _fill(state: str) -> Callable:
    """Action: install the granted line in ``state``; the line it pushes
    out takes its own REPLACEMENT row."""

    def action(self, block, msg) -> None:
        victim = self.cache.insert(block, state)
        if state == M:
            self.cache.probe(block).dirty = True
        if victim is not None:
            vb = victim.block
            self._fire(vb, self.transient.get(vb, victim.state), "REPLACEMENT", victim)

    return action


class L1Controller(_TableController):
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
        self._block_bytes = cache_config.block_bytes
        self._latency = cache_config.latency
        self.mshrs = MSHRFile(mshr_capacity)
        self.home_of = home_of
        self.send = send
        self.schedule = schedule
        self.transient: Dict[int, str] = {}
        self.deferred: Dict[int, Deque[Message]] = {}
        self.loads = 0
        self.stores = 0
        #: optional hook fired when a miss completes:
        #: (block, issue_cycle, via_memory, is_write) -> None
        self.on_miss_complete: Optional[Callable[[int, int, bool, bool], None]] = None

    def state_of(self, block: int) -> str:
        state = self.transient.get(block)
        if state is None:
            line = self.cache.probe(block)
            state = line.state if line is not None else INVALID
        return state

    def request(
        self,
        address: int,
        is_write: bool,
        cycle: int,
        on_complete: Callable[[], None],
    ) -> str:
        """Core demand access.  Returns ``"hit"``, ``"miss"`` or ``"blocked"``.

        On a hit the completion callback fires after the L1 latency; on a
        miss it fires when the fill arrives.  ``"blocked"`` means the row
        refuses the access (no free MSHR, a read miss in flight under a
        write, a PUTX in flight) and the core must retry.
        """
        if is_write:
            self.stores += 1
        else:
            self.loads += 1
        block = address - address % self._block_bytes
        state = self.transient.get(block)
        if state is not MI_A:
            # The demand lookup counts a hit or miss and touches LRU; an
            # access to a block whose PUTX is in flight is refused first.
            hit, line = self.cache.access(address)
            if state is None:
                state = line.state if hit else INVALID
            # The HIT rows of the table, served here: a store hit enters M.
            if state in (_STORE_HITS if is_write else _LOAD_HITS):
                if is_write:
                    line.state = M
                    line.dirty = True
                self.schedule(self._latency, on_complete)
                return "hit"
        event = "STORE" if is_write else "LOAD"
        if state in self.STABLE and self.mshrs.full:
            event = "STORE_FULL" if is_write else "LOAD_FULL"
        actions = self._fire(block, state, event, (is_write, cycle, on_complete))
        return "miss" if actions else "blocked"

    # -- actions: (self, block, the message or the core access) -----------------
    def _allocate(self, block, access) -> None:
        is_write, cycle, on_complete = access
        self.mshrs.allocate(block, is_write, cycle).waiters.append(on_complete)

    def _request_home(self, block, access) -> None:
        self._send("GETX" if access[0] else "GETS", block, self.home_of(block))

    def _putx(self, block, arg) -> None:
        self._send("PUTX", block, self.home_of(block))

    def _merge(self, block, access) -> None:
        self.mshrs.lookup(block).waiters.append(access[2])

    def _complete(self, block, msg) -> None:
        entry = self.mshrs.release(block)
        if self.on_miss_complete is not None:
            self.on_miss_complete(block, entry.issued_at, msg.via_memory, entry.is_write)
        for waiter in entry.waiters:
            waiter()

    def _touch(self, block, msg) -> None:
        self.cache.lookup(block)

    def _to_shared(self, block, msg) -> None:
        line = self.cache.lookup(block)
        line.state = S
        line.dirty = False

    def _drop(self, block, msg) -> None:
        self.cache.invalidate(block)

    def _ack_inv(self, block, msg) -> None:
        self._send("INV_ACK", block, msg.src)

    def _owner_data(self, block, msg) -> None:
        self._send("OWNER_DATA", block, msg.src, requester=msg.requester)

    _fill_S, _fill_E, _fill_M = _fill(S), _fill(E), _fill(M)

    STABLE = frozenset({I, S, E, M})
    TRANSIENT = frozenset({IS_D, IS_D_I, IS_D_F, IM_D, IM_D_F, SM_D, SM_D_F, MI_A})
    TABLE = _table(
        # -- core accesses; a row with no action refuses (the core retries),
        # as MI_A does: a re-request could overtake the PUTX to the home
        (I, "LOAD", (_allocate, _request_home), IS_D),
        (I, "STORE", (_allocate, _request_home), IM_D),
        (S, "STORE", (_allocate, _request_home), SM_D),
        (I, ("LOAD_FULL", "STORE_FULL"), (), None),
        (S, "STORE_FULL", (), None),
        ((S, E, M, SM_D, SM_D_F), "LOAD", HIT, None),
        ((E, M), "STORE", HIT, M),
        ((IS_D, IS_D_I, IS_D_F, IM_D, IM_D_F), "LOAD", (_merge,), None),
        ((IM_D, IM_D_F, SM_D, SM_D_F), "STORE", (_merge,), None),
        ((IS_D, IS_D_I, IS_D_F, MI_A), "STORE", (), None),
        (MI_A, "LOAD", (), None),
        # -- grants
        ((IS_D, IS_D_F), "DATA", (_fill_S, _complete), S),
        ((IS_D, IS_D_F), "DATA_E", (_fill_E, _complete), E),
        (IS_D_I, "DATA", (_fill_S, _complete, _drop), I),
        (IS_D_I, "DATA_E", (_fill_E, _complete, _drop), I),
        ((IM_D, IM_D_F, SM_D, SM_D_F), "DATA_X", (_fill_M, _complete), M),
        # -- replacements: a Modified line writes back, a clean one leaves
        # silently (for E, the home still lists this cache as owner)
        ((S, E), "REPLACEMENT", (), I),
        (M, "REPLACEMENT", (_putx,), MI_A),
        (SM_D, "REPLACEMENT", (), IM_D),
        (SM_D_F, "REPLACEMENT", (), IM_D_F),
        # -- invalidations; a Modified line is INVed only by an L2 recall
        ((I, IS_D_I, IS_D_F, IM_D, IM_D_F, MI_A), "INV", (_ack_inv,), None),
        (IS_D, "INV", (_ack_inv,), IS_D_I),
        ((S, E), "INV", (_drop, _ack_inv), I),
        (M, "INV", (_drop, _putx, _ack_inv), MI_A),
        (SM_D, "INV", (_drop, _ack_inv), IM_D),
        (SM_D_F, "INV", (_drop, _ack_inv), IM_D_F),
        # -- forwards.  Without a line (dropped silently, or its PUTX crossed
        # the forward) the L1 answers anyway; a miss in flight takes the
        # forward for its coming grant and parks it: the rows item 2 repairs
        ((I, MI_A), ("FWD_GETS", "FWD_GETX"), (_owner_data,), None),
        (S, "FWD_GETS", (_touch, _owner_data), None),
        ((E, M), "FWD_GETS", (_to_shared, _owner_data), S),
        ((S, E, M), "FWD_GETX", (_drop, _owner_data), I),
        ((IS_D, IS_D_I), ("FWD_GETS", "FWD_GETX"), (_defer,), IS_D_F),
        (IM_D, ("FWD_GETS", "FWD_GETX"), (_defer,), IM_D_F),
        (SM_D, ("FWD_GETS", "FWD_GETX"), (_touch, _defer), SM_D_F),
        (MI_A, "WB_ACK", (), I),
    )
    MESSAGES = frozenset(event for _, event in TABLE if event in MESSAGE_TYPES)


#: the states whose LOAD / STORE row is a HIT
_LOAD_HITS, _STORE_HITS = (
    frozenset(state for (state, ev), (actions, _) in L1Controller.TABLE.items()
              if ev == event and actions is HIT)
    for event in ("LOAD", "STORE")
)


# -- directory -------------------------------------------------------------------
@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one block with L1 copies."""

    state: str  # SHARED or MODIFIED (E is tracked as MODIFIED-with-clean)
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None


#: stable: no L1 copy listed / L1 sharers / one L1 owner (M or E)
DIR_IDLE, DIR_SHARED, DIR_OWNED = "idle", "shared", "owned"
#: transient: memory read, forward to the owner, invalidations outstanding
DIR_FETCH, DIR_FWD_GETS, DIR_FWD_GETX = "fetch", "fwd_gets", "fwd_getx"
DIR_INV_COLLECT = "inv_collect"


def _other_copies(entry: Optional[DirectoryEntry], requester: Optional[int]) -> Set[int]:
    """The L1s other than ``requester`` that hold the block."""
    others = set(entry.sharers) if entry else set()
    if entry is not None and entry.owner is not None:
        others.add(entry.owner)
    others.discard(requester)
    return others


class L2DirectoryController(_TableController):
    """One home bank of the shared L2, with its directory slice."""

    def __init__(
        self,
        node: int,
        cache_config: CacheConfig,
        mc_of: Callable[[int], int],
        send: SendFn,
    ) -> None:
        self.node = node
        self.cache = SetAssociativeCache(cache_config)
        self.mc_of = mc_of
        self.send = send
        self.directory: Dict[int, DirectoryEntry] = {}
        self.transient: Dict[int, str] = {}
        #: the request each open transaction serves
        self.serving: Dict[int, Message] = {}
        #: INV_ACKs each inv_collect still waits for
        self.acks: Dict[int, int] = {}
        self.deferred: Dict[int, Deque[Message]] = {}
        self.requests_served = 0

    def state_of(self, block: int) -> str:
        state = self.transient.get(block)
        if state is None:
            entry = self.directory.get(block)
            if entry is None:
                return DIR_IDLE
            state = DIR_SHARED if entry.state == SHARED else DIR_OWNED
        return state

    def _classify(self, state: str, msg: Message) -> str:
        """The message type, or a guarded form: ``*_L2_MISS``, a request not
        forwarded whose block has no L2 line; ``OWNER_*``, a request (its
        clean E line went silently) or PUTX (a plain one is stale) from the
        recorded owner; ``SOLE_GETX``, from the only L1 with a copy;
        ``LAST_INV_ACK``, the ack an inv_collect waits for last."""
        mtype, block = msg.mtype, msg.block
        if mtype in ("GETS", "GETX"):
            if state in self.TRANSIENT:
                return mtype
            # The demand lookup (it touches LRU) evaluates "block in L2".
            in_l2 = self.cache.lookup(block) is not None
            entry = self.directory.get(block)
            if state == DIR_OWNED and entry.owner != msg.src:
                return mtype
            if not in_l2:
                return mtype + "_L2_MISS"
            if state == DIR_OWNED:
                return "OWNER_" + mtype
            if mtype == "GETX" and state == DIR_SHARED and not _other_copies(entry, msg.src):
                return "SOLE_GETX"
        elif mtype == "PUTX":
            entry = self.directory.get(block)
            if entry is not None and entry.owner == msg.src:
                return "OWNER_PUTX"
        elif mtype == "INV_ACK" and state == DIR_INV_COLLECT and self.acks[block] == 1:
            return "LAST_INV_ACK"
        return mtype

    # -- actions ---------------------------------------------------------------
    # A grant answers the open transaction's request, else msg itself.
    def _grant_shared(self, block, msg) -> None:
        requester = self.serving.pop(block, msg).src
        entry = self.directory.get(block)
        if entry is None or entry.state != SHARED:
            entry = self.directory[block] = DirectoryEntry(state=SHARED)
        entry.sharers.add(requester)
        entry.owner = None
        self.requests_served += 1
        self._send("DATA", block, requester)

    def _grant_owner(self, block, msg, via_memory: bool = False) -> None:
        """Make the requester the owner: DATA_X for a GETX, DATA_E for a GETS."""
        request = self.serving.pop(block, msg)
        self.directory[block] = DirectoryEntry(state=MODIFIED, owner=request.src)
        self.requests_served += 1
        mtype = "DATA_X" if request.mtype == "GETX" else "DATA_E"
        self._send(mtype, block, request.src, via_memory=via_memory)

    def _grant_fetched(self, block, msg) -> None:
        self._grant_owner(block, msg, via_memory=True)

    def _share_with_owner(self, block, msg) -> None:
        requester = self.serving.pop(block).src
        entry = DirectoryEntry(state=SHARED)
        entry.sharers.update({msg.src, requester})
        self.directory[block] = entry
        self.requests_served += 1
        self._send("DATA", block, requester)

    def _forward(self, block, msg) -> None:
        self.serving[block] = msg
        owner = self.directory[block].owner
        self._send("FWD_" + msg.mtype, block, owner, requester=msg.src)

    def _fetch(self, block, msg) -> None:
        self.serving[block] = msg
        self._send("MEM_READ", block, self.mc_of(block))

    def _invalidate_others(self, block, msg) -> None:
        others = _other_copies(self.directory.get(block), msg.src)
        self.serving[block] = msg
        self.acks[block] = len(others)
        for sharer in others:
            self._send("INV", block, sharer)

    def _count_ack(self, block, msg) -> None:
        self.acks[block] -= 1
        if not self.acks[block]:
            del self.acks[block]

    def _drop_entry(self, block, msg) -> None:
        self.directory.pop(block, None)

    def _mark_dirty(self, block, msg) -> None:
        line = self.cache.lookup(block)
        if line is not None:
            line.dirty = True

    def _ack_putx(self, block, msg) -> None:
        self._send("WB_ACK", block, msg.src)

    def _fill_l2(self, block, msg) -> None:
        victim = self.cache.insert(block, SHARED)
        if victim is not None:
            self._fire(victim.block, self.state_of(victim.block), "REPLACEMENT", victim)

    def _recall(self, block, victim) -> None:
        """Fire-and-forget INVs to every L1 copy; late acks are dropped."""
        for target in _other_copies(self.directory.pop(block, None), None):
            self._send("INV", block, target)

    def _write_back(self, block, victim) -> None:
        if victim.dirty:
            self._send("MEM_WRITE", block, self.mc_of(block))

    STABLE = frozenset({DIR_IDLE, DIR_SHARED, DIR_OWNED})
    TRANSIENT = frozenset({DIR_FETCH, DIR_FWD_GETS, DIR_FWD_GETX, DIR_INV_COLLECT})
    TABLE = _table(
        # -- requests on a stable block
        (DIR_IDLE, ("GETS", "GETX"), (_grant_owner,), DIR_OWNED),
        (STABLE, ("GETS_L2_MISS", "GETX_L2_MISS"), (_fetch,), DIR_FETCH),
        (DIR_SHARED, "GETS", (_grant_shared,), None),
        (DIR_SHARED, "GETX", (_invalidate_others,), DIR_INV_COLLECT),
        (DIR_SHARED, "SOLE_GETX", (_grant_owner,), DIR_OWNED),
        (DIR_OWNED, "GETS", (_forward,), DIR_FWD_GETS),
        (DIR_OWNED, "GETX", (_forward,), DIR_FWD_GETX),
        (DIR_OWNED, "OWNER_GETS", (_grant_shared,), DIR_SHARED),
        (DIR_OWNED, "OWNER_GETX", (_grant_owner,), None),
        # -- requests on a busy block wait their turn, in order
        (TRANSIENT, ("GETS", "GETX"), (_defer,), None),
        # -- completions
        (DIR_FETCH, "MEM_DATA", (_fill_l2, _grant_fetched), DIR_OWNED),
        (DIR_FWD_GETS, "OWNER_DATA", (_mark_dirty, _share_with_owner), DIR_SHARED),
        (DIR_FWD_GETX, "OWNER_DATA", (_mark_dirty, _grant_owner), DIR_OWNED),
        (DIR_INV_COLLECT, "INV_ACK", (_count_ack,), None),
        (DIR_INV_COLLECT, "LAST_INV_ACK", (_count_ack, _drop_entry, _grant_owner), DIR_OWNED),
        # -- an ack for a fire-and-forget recall INV is dropped
        ((*STABLE, DIR_FETCH, DIR_FWD_GETS, DIR_FWD_GETX), "INV_ACK", (), None),
        # -- writebacks, whatever is open: the owner's is taken, a stale
        # one (its forward was answered from MI_A) only acked
        (DIR_OWNED, "OWNER_PUTX", (_drop_entry, _mark_dirty, _ack_putx), DIR_IDLE),
        ((DIR_FWD_GETS, DIR_FWD_GETX), "OWNER_PUTX", (_drop_entry, _mark_dirty, _ack_putx), None),
        ((*STABLE, *TRANSIENT), "PUTX", (_ack_putx,), None),
        # -- inclusive-L2 replacement: recall the L1 copies and write back
        # dirty data; an open transaction stays open
        (STABLE, "REPLACEMENT", (_recall, _write_back), DIR_IDLE),
        # (a fetch has no L2 line to replace)
        ((DIR_FWD_GETS, DIR_FWD_GETX, DIR_INV_COLLECT), "REPLACEMENT", (_recall, _write_back),
         None),
    )
    MESSAGES = frozenset(event for _, event in TABLE if event in MESSAGE_TYPES)
