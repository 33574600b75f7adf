"""Unit tests for the MESI directory protocol controllers.

These drive the L1 and L2 controllers directly with scripted messages
(collecting their outputs instead of using a network), checking each
transition of the protocol tables in isolation.
"""

from repro.cmp.cache import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    SHARED,
    CacheConfig,
)
from repro.cmp.coherence import (
    L1Controller,
    L2DirectoryController,
    Message,
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
        home_of=lambda block: 0,
        mc_of=lambda block: 63,
        send=harness.send,
    )


BLOCK = 0x4000


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
        assert 0x0000 in l1.writeback_buffer

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
        l1 = _l1(harness)
        l1.writeback_buffer.add(BLOCK)
        assert l1.request(BLOCK, True, 0, lambda: None) == "blocked"
        l1.handle(Message("WB_ACK", BLOCK, src=0, dst=1))
        assert l1.request(BLOCK, True, 1, lambda: None) == "miss"

    def test_wb_ack_clears_buffer(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.writeback_buffer.add(BLOCK)
        l1.handle(Message("WB_ACK", BLOCK, src=0, dst=1))
        assert BLOCK not in l1.writeback_buffer

    def test_fwd_crossing_putx_served_from_buffer(self):
        harness = Harness()
        l1 = _l1(harness)
        l1.writeback_buffer.add(BLOCK)  # PUTX in flight
        l1.handle(Message("FWD_GETS", BLOCK, src=0, dst=1, requester=5))
        assert harness.pop_all()[0].mtype == "OWNER_DATA"
        assert BLOCK in l1.writeback_buffer  # until the WB_ACK


class TestL2Directory:
    def test_gets_on_l2_miss_fetches_memory(self):
        harness = Harness()
        l2 = _l2(harness)
        l2.handle(Message("GETS", BLOCK, src=1, dst=0))
        (mem,) = harness.pop_all()
        assert mem.mtype == "MEM_READ" and mem.dst == 63
        assert BLOCK in l2.busy

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
        l2 = L2DirectoryController(0, config, lambda b: 0, lambda b: 63, harness.send)
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
