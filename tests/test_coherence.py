"""Unit tests for the MESI directory protocol controllers.

These drive the L1 and L2 controllers directly with scripted messages
(collecting their outputs instead of using a network), checking each
transition of the protocol tables in isolation.
"""

import pytest

from repro.cmp.cache import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    SHARED,
    CacheConfig,
)
from repro.cmp.coherence import (
    DIR_FETCH,
    DirectoryEntry,
    HIT,
    MI_A,
    L1Controller,
    L2DirectoryController,
    Message,
    ProtocolError,
)


class Harness:
    """Message-collecting environment for one or more controllers."""

    def __init__(self):
        self.sent = []
        self.scheduled = []

    def send(self, msg):
        self.sent.append(msg)

    def schedule(self, delay, fn):
        self.scheduled.append((delay, fn))
        fn()  # run immediately; unit tests don't model time

    def pop_all(self):
        out, self.sent = self.sent, []
        return out


def _l1(harness, node=1):
    return L1Controller(
        node=node,
        cache_config=CacheConfig(),
        mshr_capacity=8,
        home_of=lambda block: 0,
        send=harness.send,
        schedule=harness.schedule,
    )


def _l2(harness, node=0):
    return L2DirectoryController(
        node=node,
        cache_config=CacheConfig(size_bytes=256 * 1024, associativity=16),
        mc_of=lambda block: 63,
        send=harness.send,
    )


BLOCK = 0x4000


def _writing_back(harness):
    """An L1 whose PUTX for BLOCK is in flight: an L2 recall INVed its
    Modified copy."""
    l1 = _l1(harness)
    l1.cache.insert(BLOCK, MODIFIED)
    l1.handle(Message("INV", BLOCK, src=0, dst=1))
    assert [m.mtype for m in harness.pop_all()] == ["PUTX", "INV_ACK"]
    assert l1.state_of(BLOCK) == MI_A
    return l1


class TestL1Requests:
    def test_read_miss_sends_gets(self):
        harness = Harness()
        l1 = _l1(harness)
        status = l1.request(BLOCK, False, 0, lambda: None)
        assert status == "miss"
        (msg,) = harness.pop_all()
        assert (msg.mtype, msg.block, msg.dst) == ("GETS", BLOCK, 0)

    def test_write_miss_sends_getx(self):
        harness = Harness()
        l1 = _l1(harness)
        assert l1.request(BLOCK, True, 0, lambda: None) == "miss"
        assert harness.pop_all()[0].mtype == "GETX"

    def test_hit_completes_locally(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.cache.insert(BLOCK, SHARED)
        done = []
        assert l1.request(BLOCK, False, 0, lambda: done.append(1)) == "hit"
        assert done == [1]
        assert not harness.pop_all()

    def test_write_hit_on_exclusive_silently_upgrades(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.cache.insert(BLOCK, EXCLUSIVE)
        assert l1.request(BLOCK, True, 0, lambda: None) == "hit"
        assert l1.cache.lookup(BLOCK).state == MODIFIED
        assert not harness.pop_all()

    def test_write_to_shared_needs_upgrade(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.cache.insert(BLOCK, SHARED)
        assert l1.request(BLOCK, True, 0, lambda: None) == "miss"
        assert harness.pop_all()[0].mtype == "GETX"

    def test_merged_read_miss(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.request(BLOCK, False, 0, lambda: None)
        harness.pop_all()
        assert l1.request(BLOCK, False, 1, lambda: None) == "miss"
        assert not harness.pop_all()  # merged into the existing MSHR

    def test_write_after_outstanding_read_blocked(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.request(BLOCK, False, 0, lambda: None)
        assert l1.request(BLOCK, True, 1, lambda: None) == "blocked"

    def test_mshr_full_blocks(self):
        harness = Harness()
        l1 = L1Controller(1, CacheConfig(), 1, lambda b: 0, harness.send, harness.schedule)
        l1.request(BLOCK, False, 0, lambda: None)
        assert l1.request(BLOCK + 0x4000, False, 0, lambda: None) == "blocked"


class TestL1Responses:
    def test_data_fill_wakes_waiters(self):
        harness = Harness()
        l1 = _l1(harness)
        done = []
        l1.request(BLOCK, False, 0, lambda: done.append("a"))
        l1.request(BLOCK, False, 0, lambda: done.append("b"))
        harness.pop_all()
        l1.handle(Message("DATA", BLOCK, src=0, dst=1))
        assert done == ["a", "b"]
        assert l1.state_of(BLOCK) == SHARED

    def test_data_x_installs_modified(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.request(BLOCK, True, 0, lambda: None)
        harness.pop_all()
        l1.handle(Message("DATA_X", BLOCK, src=0, dst=1))
        line = l1.cache.lookup(BLOCK)
        assert line.state == MODIFIED and line.dirty

    def test_dirty_eviction_writes_back(self):
        harness = Harness()
        config = CacheConfig(size_bytes=2 * 128, associativity=1)
        l1 = L1Controller(1, config, 8, lambda b: 0, harness.send, harness.schedule)
        l1.cache.insert(0x0000, MODIFIED)
        l1.request(0x100, False, 0, lambda: None)
        harness.pop_all()
        # Fill maps to set 0 block 0x100... wait: with 2 sets the conflict
        # is within set 0: 0x000 and 0x100 share set 0 (two-set cache).
        l1.handle(Message("DATA", 0x100, src=0, dst=1))
        putx = [m for m in harness.pop_all() if m.mtype == "PUTX"]
        assert putx and putx[0].block == 0x0000
        assert l1.state_of(0x0000) == MI_A

    def test_inv_acks_and_invalidates(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.cache.insert(BLOCK, SHARED)
        l1.handle(Message("INV", BLOCK, src=0, dst=1))
        assert l1.state_of(BLOCK) == INVALID
        (ack,) = harness.pop_all()
        assert ack.mtype == "INV_ACK" and ack.dst == 0

    def test_inv_on_absent_line_still_acks(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.handle(Message("INV", BLOCK, src=0, dst=1))
        assert harness.pop_all()[0].mtype == "INV_ACK"

    def test_fwd_gets_downgrades_and_returns_data(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.cache.insert(BLOCK, MODIFIED)
        l1.handle(Message("FWD_GETS", BLOCK, src=0, dst=1, requester=5))
        assert l1.state_of(BLOCK) == SHARED
        (data,) = harness.pop_all()
        assert data.mtype == "OWNER_DATA" and data.requester == 5

    def test_fwd_getx_invalidates(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.cache.insert(BLOCK, MODIFIED)
        l1.handle(Message("FWD_GETX", BLOCK, src=0, dst=1, requester=5))
        assert l1.state_of(BLOCK) == INVALID
        assert harness.pop_all()[0].mtype == "OWNER_DATA"

    def test_inv_overtaking_fill_drops_line_after_fill(self):
        """Regression: an INV racing ahead of its DATA fill must not leave
        this cache as a sharer the directory no longer knows about."""
        harness = Harness()
        l1 = _l1(harness)
        done = []
        l1.request(BLOCK, False, 0, lambda: done.append(1))
        harness.pop_all()
        # The home invalidated us (on behalf of a writer) before our DATA
        # arrived; the messages crossed on different VCs.
        l1.handle(Message("INV", BLOCK, src=0, dst=1))
        assert harness.pop_all()[0].mtype == "INV_ACK"
        l1.handle(Message("DATA", BLOCK, src=0, dst=1))
        assert done == [1]  # the waiter consumed the fill...
        assert l1.state_of(BLOCK) == INVALID  # ...but the copy is dropped

    def test_inv_does_not_cancel_write_grant(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.request(BLOCK, True, 0, lambda: None)
        harness.pop_all()
        l1.handle(Message("INV", BLOCK, src=0, dst=1))
        harness.pop_all()
        l1.handle(Message("DATA_X", BLOCK, src=0, dst=1))
        # The write grant postdates the INV epoch: ownership stands.
        assert l1.state_of(BLOCK) == MODIFIED

    def test_forward_overtaking_own_fill_is_parked(self):
        """Regression: the home grants us ownership and immediately
        forwards the next requester; the forward beats our fill."""
        harness = Harness()
        l1 = _l1(harness)
        l1.request(BLOCK, False, 0, lambda: None)
        harness.pop_all()
        l1.handle(Message("FWD_GETS", BLOCK, src=0, dst=1, requester=5))
        assert not harness.pop_all()  # parked: no OWNER_DATA yet
        l1.handle(Message("DATA_E", BLOCK, src=0, dst=1))
        replies = harness.pop_all()
        assert [m.mtype for m in replies] == ["OWNER_DATA"]
        assert replies[0].requester == 5
        assert l1.state_of(BLOCK) == SHARED  # downgraded by the forward

    def test_fwd_getx_overtaking_fill_invalidates_after_fill(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.request(BLOCK, False, 0, lambda: None)
        harness.pop_all()
        l1.handle(Message("FWD_GETX", BLOCK, src=0, dst=1, requester=5))
        assert not harness.pop_all()
        l1.handle(Message("DATA_E", BLOCK, src=0, dst=1))
        replies = harness.pop_all()
        assert [m.mtype for m in replies] == ["OWNER_DATA"]
        assert l1.state_of(BLOCK) == INVALID

    def test_fwd_getx_with_stale_shared_copy_and_upgrade_in_flight(self):
        """Regression: an upgrade (GETX from S) is outstanding when a
        FWD_GETX for our *incoming* ownership overtakes the DATA_X grant.
        The stale S copy must not be mistaken for the ownership the
        forward targets -- else the grant reinstalls M after we already
        surrendered the block."""
        harness = Harness()
        l1 = _l1(harness)
        l1.cache.insert(BLOCK, SHARED)
        assert l1.request(BLOCK, True, 0, lambda: None) == "miss"  # upgrade
        harness.pop_all()
        l1.handle(Message("FWD_GETX", BLOCK, src=0, dst=1, requester=8))
        assert not harness.pop_all()  # parked, not answered from the S copy
        l1.handle(Message("DATA_X", BLOCK, src=0, dst=1))
        replies = harness.pop_all()
        assert [m.mtype for m in replies] == ["OWNER_DATA"]
        assert l1.state_of(BLOCK) == INVALID  # ownership passed on

    def test_request_blocked_while_own_writeback_in_flight(self):
        """Regression: a re-request racing our own PUTX could reach the
        home first and then have the stale PUTX clobber the fresh
        directory entry."""
        harness = Harness()
        l1 = _writing_back(harness)
        assert l1.request(BLOCK, True, 0, lambda: None) == "blocked"
        l1.handle(Message("WB_ACK", BLOCK, src=0, dst=1))
        assert l1.request(BLOCK, True, 1, lambda: None) == "miss"

    def test_wb_ack_clears_buffer(self):
        harness = Harness()
        l1 = _writing_back(harness)
        l1.handle(Message("WB_ACK", BLOCK, src=0, dst=1))
        assert l1.state_of(BLOCK) == INVALID

    def test_fwd_crossing_putx_served_from_buffer(self):
        harness = Harness()
        l1 = _writing_back(harness)  # PUTX in flight
        l1.handle(Message("FWD_GETS", BLOCK, src=0, dst=1, requester=5))
        assert harness.pop_all()[0].mtype == "OWNER_DATA"
        assert l1.state_of(BLOCK) == MI_A  # until the WB_ACK


class TestL2Directory:
    def test_gets_on_l2_miss_fetches_memory(self):
        harness = Harness()
        l2 = _l2(harness)
        l2.handle(Message("GETS", BLOCK, src=1, dst=0))
        (mem,) = harness.pop_all()
        assert mem.mtype == "MEM_READ" and mem.dst == 63
        assert l2.state_of(BLOCK) == DIR_FETCH

    def test_mem_data_grants_exclusive_on_read(self):
        harness = Harness()
        l2 = _l2(harness)
        l2.handle(Message("GETS", BLOCK, src=1, dst=0))
        harness.pop_all()
        l2.handle(Message("MEM_DATA", BLOCK, src=63, dst=0))
        (grant,) = harness.pop_all()
        assert grant.mtype == "DATA_E" and grant.dst == 1
        assert grant.via_memory
        entry = l2.directory[BLOCK]
        assert entry.state == MODIFIED and entry.owner == 1

    def test_second_reader_gets_shared_via_forward(self):
        harness = Harness()
        l2 = _l2(harness)
        l2.cache.insert(BLOCK, SHARED)
        l2.handle(Message("GETS", BLOCK, src=1, dst=0))
        harness.pop_all()  # DATA_E to 1
        l2.handle(Message("GETS", BLOCK, src=2, dst=0))
        (fwd,) = harness.pop_all()
        assert fwd.mtype == "FWD_GETS" and fwd.dst == 1 and fwd.requester == 2
        l2.handle(Message("OWNER_DATA", BLOCK, src=1, dst=0, requester=2))
        (data,) = harness.pop_all()
        assert data.mtype == "DATA" and data.dst == 2
        entry = l2.directory[BLOCK]
        assert entry.state == SHARED and entry.sharers == {1, 2}

    def test_getx_collects_invalidations(self):
        harness = Harness()
        l2 = _l2(harness)
        l2.cache.insert(BLOCK, SHARED)
        # Establish sharers 1 and 2.
        l2.handle(Message("GETS", BLOCK, src=1, dst=0))
        harness.pop_all()
        l2.handle(Message("GETS", BLOCK, src=2, dst=0))
        harness.pop_all()
        l2.handle(Message("OWNER_DATA", BLOCK, src=1, dst=0, requester=2))
        harness.pop_all()
        # Core 3 writes: both sharers must be invalidated first.
        l2.handle(Message("GETX", BLOCK, src=3, dst=0))
        invs = harness.pop_all()
        assert {m.dst for m in invs} == {1, 2}
        assert all(m.mtype == "INV" for m in invs)
        l2.handle(Message("INV_ACK", BLOCK, src=1, dst=0))
        assert not harness.pop_all()  # still waiting for the second ack
        l2.handle(Message("INV_ACK", BLOCK, src=2, dst=0))
        (grant,) = harness.pop_all()
        assert grant.mtype == "DATA_X" and grant.dst == 3
        assert l2.directory[BLOCK].owner == 3

    def test_requests_serialized_while_busy(self):
        harness = Harness()
        l2 = _l2(harness)
        l2.handle(Message("GETS", BLOCK, src=1, dst=0))
        harness.pop_all()
        l2.handle(Message("GETS", BLOCK, src=2, dst=0))
        assert not harness.pop_all()  # queued behind the fetch
        l2.handle(Message("MEM_DATA", BLOCK, src=63, dst=0))
        messages = harness.pop_all()
        # Grant to 1, then the queued request is replayed (forward to 1).
        assert messages[0].mtype == "DATA_E" and messages[0].dst == 1
        assert messages[1].mtype == "FWD_GETS" and messages[1].dst == 1

    def test_putx_from_owner_accepted(self):
        harness = Harness()
        l2 = _l2(harness)
        l2.cache.insert(BLOCK, SHARED)
        l2.handle(Message("GETX", BLOCK, src=1, dst=0))
        harness.pop_all()
        l2.handle(Message("PUTX", BLOCK, src=1, dst=0))
        (ack,) = harness.pop_all()
        assert ack.mtype == "WB_ACK"
        assert BLOCK not in l2.directory
        assert l2.cache.lookup(BLOCK).dirty

    def test_stale_putx_dropped_but_acked(self):
        harness = Harness()
        l2 = _l2(harness)
        l2.cache.insert(BLOCK, SHARED)
        l2.handle(Message("PUTX", BLOCK, src=9, dst=0))
        (ack,) = harness.pop_all()
        assert ack.mtype == "WB_ACK" and ack.dst == 9

    def test_eviction_recalls_sharers_and_writes_back(self):
        harness = Harness()
        config = CacheConfig(size_bytes=128, associativity=1)
        l2 = L2DirectoryController(0, config, lambda b: 63, harness.send)
        l2.cache.insert(0x0000, SHARED)
        l2.cache.lookup(0x0000).dirty = True
        from repro.cmp.coherence import DirectoryEntry

        entry = DirectoryEntry(state=SHARED)
        entry.sharers.update({1, 2})
        l2.directory[0x0000] = entry
        # A fetch fill for a conflicting block evicts 0x0000.
        l2.handle(Message("GETS", 0x80, src=3, dst=0))
        harness.pop_all()
        l2.handle(Message("MEM_DATA", 0x80, src=63, dst=0))
        messages = harness.pop_all()
        kinds = [m.mtype for m in messages]
        assert kinds.count("INV") == 2
        assert "MEM_WRITE" in kinds
        assert 0x0000 not in l2.directory


def _small_l1(harness):
    """A one-way, two-set L1 with two MSHRs: BLOCK and CONFLICT share a
    set, so a fill of either replaces the other."""
    config = CacheConfig(size_bytes=2 * 128, associativity=1)
    return L1Controller(1, config, 2, lambda b: 0, harness.send, harness.schedule)


CONFLICT = BLOCK + 0x100


def _load(l1):
    l1.request(BLOCK, False, 0, lambda: None)


def _store(l1):
    l1.request(BLOCK, True, 0, lambda: None)


def _deliver(mtype):
    return lambda l1: l1.handle(Message(mtype, BLOCK, src=0, dst=1, requester=5))


def _holding(state):
    return lambda l1: l1.cache.insert(BLOCK, state)


#: L1 state -> the steps that put BLOCK in it, from a cold cache
L1_RECIPES = {
    "I": (),
    "S": (_holding(SHARED),),
    "E": (_holding(EXCLUSIVE),),
    "M": (_holding(MODIFIED),),
    "IS_D": (_load,),
    "IS_D_I": (_load, _deliver("INV")),
    "IS_D_F": (_load, _deliver("FWD_GETS")),
    "IM_D": (_store,),
    "IM_D_F": (_store, _deliver("FWD_GETX")),
    "SM_D": (_holding(SHARED), _store),
    "SM_D_F": (_holding(SHARED), _store, _deliver("FWD_GETS")),
    "MI_A": (_holding(MODIFIED), _deliver("INV")),
}
#: the forward each recipe parks
PARKED = {"IS_D_F": "FWD_GETS", "IM_D_F": "FWD_GETX", "SM_D_F": "FWD_GETS"}


class TestTransitionTables:
    CONTROLLERS = (L1Controller, L2DirectoryController)

    @pytest.mark.parametrize("controller", CONTROLLERS, ids=lambda c: c.__name__)
    def test_every_state_is_declared_and_reachable(self, controller):
        declared = controller.STABLE | controller.TRANSIENT
        assert not controller.STABLE & controller.TRANSIENT
        edges = {}
        for (state, _), (_, next_state) in controller.TABLE.items():
            assert state in declared and next_state in declared
            edges.setdefault(state, set()).add(next_state)
        reached, frontier = set(controller.STABLE), list(controller.STABLE)
        while frontier:
            for next_state in edges.get(frontier.pop(), ()):
                if next_state not in reached:
                    reached.add(next_state)
                    frontier.append(next_state)
        assert reached == declared

    def test_recipes_cover_every_l1_state(self):
        assert set(L1_RECIPES) == L1Controller.STABLE | L1Controller.TRANSIENT

    @pytest.mark.parametrize("state, event", sorted(L1Controller.TABLE))
    def test_every_l1_row_enters_its_next_state(self, state, event):
        harness = Harness()
        l1 = _small_l1(harness)
        for step in L1_RECIPES[state]:
            step(l1)
        assert l1.state_of(BLOCK) == state
        actions, next_state = L1Controller.TABLE[state, event]
        status = _fire_l1_row(l1, state, event)
        if event in ("LOAD", "STORE", "LOAD_FULL", "STORE_FULL"):
            expected = "hit" if actions is HIT else "miss" if actions else "blocked"
            assert status == expected
        elif event != "REPLACEMENT":
            if state in PARKED and next_state in L1Controller.STABLE:
                # The fill replays the parked forward against its state.
                next_state = L1Controller.TABLE[next_state, PARKED[state]][1]
        assert l1.state_of(BLOCK) == next_state


class TestMissingRows:
    """A (state, event) pair with no row raises, naming the controller,
    node, block, state and event."""

    def _raises(self, controller, msg, *fields):
        with pytest.raises(ProtocolError) as raised:
            controller.handle(msg)
        for text in fields:
            assert text in str(raised.value)

    def test_l1_fill_without_a_miss(self):
        l1 = _l1(Harness(), node=3)
        self._raises(
            l1, Message("DATA", BLOCK, src=0, dst=3),
            "L1Controller", "node 3", f"block {BLOCK:#x}", "state I", "event DATA",
        )

    def test_second_parked_forward(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.request(BLOCK, False, 0, lambda: None)
        l1.handle(Message("FWD_GETS", BLOCK, src=0, dst=1, requester=5))
        self._raises(
            l1, Message("FWD_GETX", BLOCK, src=0, dst=1, requester=6),
            "L1Controller", "node 1", "state IS_D_F", "event FWD_GETX",
        )

    def test_directory_fill_without_a_fetch(self):
        self._raises(
            _l2(Harness(), node=0), Message("MEM_DATA", BLOCK, src=63, dst=0),
            "L2DirectoryController", "node 0", f"block {BLOCK:#x}", "state idle",
            "event MEM_DATA",
        )


def _small_l2(harness):
    """A one-way, two-set home: BLOCK and CONFLICT share a set."""
    config = CacheConfig(size_bytes=2 * 128, associativity=1)
    return L2DirectoryController(0, config, lambda b: 63, harness.send)


def _req(mtype, src):
    return lambda l2: l2.handle(Message(mtype, BLOCK, src=src, dst=0))


def _entry(state, sharers=(), owner=None):
    def put(l2):
        l2.directory[BLOCK] = DirectoryEntry(state=state, sharers=set(sharers), owner=owner)
    return put


def _in_l2(l2):
    l2.cache.insert(BLOCK, SHARED)


#: home state -> the steps that put BLOCK in it (owner 1, sharers {1, 2});
#: the *_L2_MISS events take the same recipe with the L2 line dropped
L2_RECIPES = {
    "idle": (_in_l2,),
    "shared": (_in_l2, _entry(SHARED, sharers=(1, 2))),
    "owned": (_in_l2, _entry(MODIFIED, owner=1)),
    "fetch": (_req("GETS", 3),),
    "fwd_gets": (_in_l2, _entry(MODIFIED, owner=1), _req("GETS", 3)),
    "fwd_getx": (_in_l2, _entry(MODIFIED, owner=1), _req("GETX", 3)),
    "inv_collect": (_in_l2, _entry(SHARED, sharers=(1, 2)), _req("GETX", 3)),
}

#: event -> the message that raises it against the recipes above
L2_EVENTS = {
    "GETS": Message("GETS", BLOCK, src=4, dst=0),
    "GETX": Message("GETX", BLOCK, src=4, dst=0),
    "GETS_L2_MISS": Message("GETS", BLOCK, src=1, dst=0),
    "GETX_L2_MISS": Message("GETX", BLOCK, src=1, dst=0),
    "OWNER_GETS": Message("GETS", BLOCK, src=1, dst=0),
    "OWNER_GETX": Message("GETX", BLOCK, src=1, dst=0),
    "SOLE_GETX": Message("GETX", BLOCK, src=1, dst=0),
    "PUTX": Message("PUTX", BLOCK, src=4, dst=0),
    "OWNER_PUTX": Message("PUTX", BLOCK, src=1, dst=0),
    "INV_ACK": Message("INV_ACK", BLOCK, src=4, dst=0),
    "LAST_INV_ACK": Message("INV_ACK", BLOCK, src=1, dst=0),
    "MEM_DATA": Message("MEM_DATA", BLOCK, src=63, dst=0),
    "OWNER_DATA": Message("OWNER_DATA", BLOCK, src=1, dst=0, requester=3),
}


def _sent_by_each_row():
    """Drive every row of both tables from its recipe; return the message
    types each one sent."""
    sent = {}
    for (state, event) in L1Controller.TABLE:
        harness = Harness()
        l1 = _small_l1(harness)
        for step in L1_RECIPES[state]:
            step(l1)
        harness.pop_all()
        _fire_l1_row(l1, state, event)
        sent["L1", state, event] = {m.mtype for m in harness.pop_all()}
    for (state, event) in L2DirectoryController.TABLE:
        harness = Harness()
        _fire_l2_row(harness, state, event)
        sent["L2", state, event] = {m.mtype for m in harness.sent}
    return sent


def _fire_l1_row(l1, state, event):
    if event in ("LOAD", "STORE", "LOAD_FULL", "STORE_FULL"):
        if event.endswith("_FULL"):
            for other in (0x8000, 0x8080)[l1.mshrs.outstanding:]:
                l1.request(other, False, 0, lambda: None)
            assert l1.mshrs.full
        return l1.request(BLOCK, event.startswith("STORE"), 1, lambda: None)
    if event == "REPLACEMENT":
        l1.request(CONFLICT, False, 0, lambda: None)
        l1.handle(Message("DATA", CONFLICT, src=0, dst=1))
    else:
        _deliver(event)(l1)


def _fire_l2_row(harness, state, event):
    l2 = _small_l2(harness)
    for step in L2_RECIPES[state]:
        step(l2)
    if event in ("GETS_L2_MISS", "GETX_L2_MISS"):
        l2.cache.invalidate(BLOCK)
    if event == "SOLE_GETX":
        l2.directory[BLOCK].sharers = {1}
    if event == "LAST_INV_ACK":
        l2.handle(Message("INV_ACK", BLOCK, src=2, dst=0))
    harness.pop_all()
    if event == "REPLACEMENT":
        l2.cache.probe(BLOCK).dirty = True  # so the replacement writes it back
        l2.handle(Message("GETS", CONFLICT, src=5, dst=0))
        l2.handle(Message("MEM_DATA", CONFLICT, src=63, dst=0))
    else:
        l2.handle(L2_EVENTS[event])
    return l2


class TestDirectoryRows:
    @pytest.mark.parametrize("state, event", sorted(L2DirectoryController.TABLE))
    def test_every_directory_row_enters_its_next_state(self, monkeypatch, state, event):
        fired = []
        fire = L2DirectoryController._fire

        def recorded(l2, block, *row):
            if block == BLOCK:
                fired.append(row[:2])
            return fire(l2, block, *row)

        monkeypatch.setattr(L2DirectoryController, "_fire", recorded)
        l2 = _fire_l2_row(Harness(), state, event)
        assert fired[-1] == (state, event)
        assert l2.state_of(BLOCK) == L2DirectoryController.TABLE[state, event][1]
