"""Tests for the core timing model, memory controllers and metrics."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cmp.coherence import Message
from repro.cmp.core_model import (
    CoreConfig,
    TraceCore,
    large_core_config,
    small_core_config,
)
from repro.cmp.memory import MemoryConfig, MemoryController
from repro.cmp.metrics import harmonic_speedup, weighted_speedup
from repro.traffic.trace import TraceRecord


class _FakeL1:
    """L1 stub with scripted hit/miss behaviour."""

    def __init__(self, result="hit", latency=2):
        self.result = result
        self.latency = latency
        self.pending = []
        self.requests = []

    def request(self, address, is_write, cycle, on_complete):
        self.requests.append((address, is_write, cycle))
        if self.result == "blocked":
            return "blocked"
        self.pending.append(on_complete)
        if self.result == "hit":
            return "hit"
        return "miss"

    def complete_one(self):
        self.pending.pop(0)()


def _trace(n, gap=2, stride=128):
    return [
        TraceRecord(gap=gap, is_write=False, address=i * stride) for i in range(n)
    ]


class TestCoreConfig:
    def test_presets(self):
        large = large_core_config()
        small = small_core_config()
        assert large.issue_width == 3 and large.window == 64
        assert small.issue_width == 1 and small.blocking_loads

    def test_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=0)
        with pytest.raises(ValueError):
            CoreConfig(window=0)


class TestTraceCore:
    def test_gap_consumption_rate(self):
        l1 = _FakeL1("hit")
        core = TraceCore(0, CoreConfig(issue_width=3), _trace(5, gap=8), l1)
        core.step(0)
        # 3-wide: consumes 3 gap instructions in the first cycle.
        assert core.instructions_retired == 3

    def test_completes_trace(self):
        l1 = _FakeL1("hit")
        core = TraceCore(0, large_core_config(), _trace(10, gap=1), l1)
        for cycle in range(100):
            core.step(cycle)
            while l1.pending:
                l1.complete_one()
        assert core.done
        assert core.instructions_retired == 10 * 2  # gap 1 + access each

    def test_outstanding_cap_stalls(self):
        l1 = _FakeL1("miss")
        core = TraceCore(
            0, CoreConfig(issue_width=3, max_outstanding=2, window=1000),
            _trace(10, gap=0), l1,
        )
        for cycle in range(10):
            core.step(cycle)
        assert core.outstanding == 2
        assert core.stall_cycles > 0

    def test_window_limits_run_ahead(self):
        l1 = _FakeL1("miss")
        core = TraceCore(
            0,
            CoreConfig(issue_width=3, max_outstanding=16, window=8),
            _trace(10, gap=20),
            l1,
        )
        for cycle in range(50):
            core.step(cycle)
        # One miss outstanding; retirement capped at issue mark + window.
        assert core.instructions_retired <= core._issue_marks[0] + 8

    def test_blocking_loads_stall_in_order_core(self):
        l1 = _FakeL1("miss")
        core = TraceCore(0, small_core_config(), _trace(4, gap=0), l1)
        core.step(0)
        assert core.outstanding == 1
        core.step(1)
        core.step(2)
        assert core.instructions_retired == 1  # frozen until the response
        l1.complete_one()
        core.step(3)
        assert core.instructions_retired == 2

    def test_start_cycle_delays_execution(self):
        l1 = _FakeL1("hit")
        core = TraceCore(0, large_core_config(), _trace(3), l1, start_cycle=10)
        core.step(5)
        assert core.instructions_retired == 0
        core.step(10)
        assert core.instructions_retired > 0

    def test_ipc(self):
        l1 = _FakeL1("hit")
        core = TraceCore(0, CoreConfig(issue_width=1), _trace(5, gap=0), l1)
        for cycle in range(5):
            core.step(cycle)
        assert core.ipc(5) == pytest.approx(1.0)

    def test_blocked_l1_retries(self):
        l1 = _FakeL1("blocked")
        core = TraceCore(0, large_core_config(), _trace(2, gap=0), l1)
        core.step(0)
        core.step(1)
        assert core.instructions_retired == 0
        assert len(l1.requests) == 2  # retried each cycle


class _ScriptedL1:
    """L1 stub that answers hit / miss / ``"blocked"`` from a seeded
    script and completes what it accepted after scripted delays, several
    in one cycle when they collide."""

    def __init__(self, seed, blocked_share):
        self.rng = random.Random(seed)
        self.blocked_share = blocked_share
        self.log = []
        self.due = {}

    def request(self, address, is_write, cycle, on_complete):
        roll = self.rng.random()
        if roll < self.blocked_share:
            answer = "blocked"
        else:
            answer = "hit" if self.rng.random() < 0.5 else "miss"
            delay = 2 if answer == "hit" else self.rng.choice((1, 3, 3, 9, 40, 150))
            self.due.setdefault(cycle + delay, []).append(on_complete)
        self.log.append((cycle, address, is_write, answer))
        return answer

    def fire(self, cycle):
        completions = self.due.pop(cycle, ())
        for on_complete in completions:
            on_complete()
        return len(completions)


def _observable(core, l1):
    return (
        core.stall_cycles, core.instructions_retired, core._gap_remaining,
        core.outstanding, core.started_at, core.done, l1.log,
    )


_core_configs = st.one_of(
    st.sampled_from([large_core_config(), small_core_config()]),
    st.builds(
        CoreConfig,
        issue_width=st.integers(1, 4),
        max_outstanding=st.integers(1, 6),
        blocking_loads=st.booleans(),
        window=st.integers(1, 64),  # includes window < issue_width
    ),
)
# 0-gap runs, gaps that are and are not multiples of the issue width.
_gaps = st.one_of(
    st.just(0), st.integers(0, 12), st.sampled_from([3, 6, 60, 63, 64, 200]),
    st.integers(0, 200),
)


class TestSkippingSchedule:
    """``advance`` when ``wake_at <= cycle`` plus ``catch_up`` is the same
    core as ``step`` every cycle."""

    @given(
        config=_core_configs,
        records=st.lists(st.tuples(_gaps, st.booleans()), min_size=1, max_size=25),
        start_cycle=st.integers(0, 30),
        l1_seed=st.integers(0, 10_000),
        blocked_share=st.sampled_from([0.0, 0.1, 0.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_skipping_core_equals_polled_core(
        self, config, records, start_cycle, l1_seed, blocked_share
    ):
        trace = [
            TraceRecord(gap=gap, is_write=is_write, address=128 * i)
            for i, (gap, is_write) in enumerate(records)
        ]
        polled_l1 = _ScriptedL1(l1_seed, blocked_share)
        polled = TraceCore(0, config, trace, polled_l1, start_cycle=start_cycle)
        skipping_l1 = _ScriptedL1(l1_seed, blocked_share)
        skipping = TraceCore(0, config, trace, skipping_l1, start_cycle=start_cycle)
        now = [0]
        skipping.clock = lambda: now[0]
        advances = 0
        horizon = start_cycle + sum(r.gap + 200 for r in trace)
        for cycle in range(horizon):
            now[0] = cycle
            # Completions land before the cores run, as in CmpSystem.tick.
            fired = polled_l1.fire(cycle)
            assert skipping_l1.fire(cycle) == fired
            if fired:
                # A completion brings the skipping core up to date.
                assert _observable(skipping, skipping_l1) == _observable(
                    polled, polled_l1
                ), f"diverged at a completion in cycle {cycle}"
            polled.step(cycle)
            if skipping.wake_at <= cycle:
                skipping.advance(cycle)
                advances += 1
            if polled.done and not polled_l1.due:
                break
        skipping.catch_up(cycle + 1)
        assert _observable(skipping, skipping_l1) == _observable(polled, polled_l1)
        assert advances <= cycle + 1

    def test_long_gap_is_one_wake_up(self):
        l1 = _FakeL1("hit")
        core = TraceCore(0, CoreConfig(issue_width=3), _trace(1, gap=3000), l1)
        core.clock = lambda: 0
        core.advance(0)
        assert core.wake_at == 1000  # 999 more full-width cycles
        core.catch_up(500)
        assert core.instructions_retired == 1500
        assert core.wake_at == 1000
        core.advance(1000)
        assert len(l1.requests) == 1 and l1.requests[0][2] == 1000

    def test_blocked_l1_keeps_the_core_polled(self):
        """Every retry counts in the L1 and touches its LRU, so a core
        whose record is refused may not sleep."""
        l1 = _FakeL1("blocked")
        core = TraceCore(0, large_core_config(), _trace(2, gap=0), l1)
        core.clock = lambda: 0
        for cycle in range(5):
            assert core.wake_at <= cycle
            core.advance(cycle)
        assert len(l1.requests) == 5 and core.stall_cycles == 5

    def test_stalled_core_sleeps_until_a_completion(self):
        l1 = _FakeL1("miss")
        core = TraceCore(0, small_core_config(), _trace(3, gap=0), l1)
        now = [0]
        core.clock = lambda: now[0]
        core.advance(0)
        assert core.wake_at == float("inf")
        now[0] = 40
        l1.complete_one()
        assert core.stall_cycles == 39 and core.wake_at == 40

    def test_finished_core_asks_for_one_last_step(self):
        """...which is where the driver sees ``done``; after it, nothing."""
        l1 = _FakeL1("hit")
        core = TraceCore(0, large_core_config(), _trace(1, gap=0), l1)
        now = [0]
        core.clock = lambda: now[0]
        core.advance(0)
        assert core.wake_at == float("inf") and not core.done
        now[0] = 2
        l1.complete_one()
        assert core.done and core.wake_at == 2
        core.advance(2)
        assert core.instructions_retired == 1 and core.stall_cycles == 0


class TestMemoryController:
    def _mc(self, latency=10, interval=2):
        harness = []
        mc = MemoryController(
            0, MemoryConfig(access_latency=latency, service_interval=interval),
            harness.append,
        )
        return mc, harness

    def test_read_latency(self):
        mc, sent = self._mc(latency=10)
        mc.handle(Message("MEM_READ", 0x100, src=3, dst=0))
        for cycle in range(12):
            mc.tick(cycle)
        assert len(sent) == 1
        assert sent[0].mtype == "MEM_DATA" and sent[0].dst == 3

    def test_not_before_latency(self):
        mc, sent = self._mc(latency=10)
        mc.handle(Message("MEM_READ", 0x100, src=3, dst=0))
        for cycle in range(9):
            mc.tick(cycle)
        assert not sent

    def test_service_interval_limits_rate(self):
        mc, sent = self._mc(latency=5, interval=4)
        for i in range(3):
            mc.handle(Message("MEM_READ", i * 128, src=1, dst=0))
        for cycle in range(30):
            mc.tick(cycle)
        assert len(sent) == 3
        assert mc.reads_served == 3
        # Starts at cycles 0, 4, 8 -> completions at 5, 9, 13.

    def test_writes_posted(self):
        mc, sent = self._mc()
        mc.handle(Message("MEM_WRITE", 0x100, src=1, dst=0))
        for cycle in range(20):
            mc.tick(cycle)
        assert not sent  # no reply for writes
        assert mc.writes_served == 1

    def test_rejects_other_messages(self):
        mc, _ = self._mc()
        with pytest.raises(ValueError):
            mc.handle(Message("GETS", 0x100, src=1, dst=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MemoryConfig(access_latency=0)
        with pytest.raises(ValueError):
            MemoryConfig(service_interval=0)


class TestMetrics:
    def test_weighted_speedup(self):
        assert weighted_speedup([1.0, 2.0], [1.0, 2.0]) == pytest.approx(2.0)
        assert weighted_speedup([0.5, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_harmonic_speedup(self):
        assert harmonic_speedup([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)
        # Harmonic punishes imbalance harder than weighted.
        ws = weighted_speedup([1.0, 0.1], [1.0, 1.0])
        hs = harmonic_speedup([1.0, 0.1], [1.0, 1.0])
        assert hs < ws / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            harmonic_speedup([], [])
        with pytest.raises(ValueError):
            weighted_speedup([0.0], [1.0])
