"""Integration tests for the full CMP (cores + caches + MESI + NoC)."""

import gc
import weakref

import pytest

from repro.cmp.cache import EXCLUSIVE, MODIFIED, SHARED, CacheConfig
from repro.cmp.core_model import TraceCore, small_core_config
from repro.cmp.system import CmpConfig, CmpSystem
from repro.core.layouts import layout_by_name
from repro.traffic.trace import TraceRecord
from repro.traffic.workloads import WORKLOADS, generate_core_trace


def _small_cmp_config():
    """Shrunken caches: a 4x4 CMP that runs fast and still exercises
    evictions and the directory."""
    return CmpConfig(
        l1=CacheConfig(size_bytes=4 * 1024, associativity=2, block_bytes=128),
        l2_bank=CacheConfig(
            size_bytes=32 * 1024, associativity=8, block_bytes=128, latency=6
        ),
        start_stagger_window=16,
    )


def _system(layout_name="baseline", mesh_size=4, traces=None, **kwargs):
    layout = layout_by_name(layout_name, mesh_size) if layout_name != "baseline" else None
    if layout is None:
        from repro.core.layouts import baseline_layout

        layout = baseline_layout(mesh_size)
    if traces is None:
        profile = WORKLOADS["SPECjbb"]
        traces = {
            core: generate_core_trace(profile, core, 60, seed=3)
            for core in range(mesh_size * mesh_size)
        }
    return CmpSystem(layout, traces, config=kwargs.pop("config", _small_cmp_config()), **kwargs)


def _check_mesi_invariants(system):
    """Quiesced-state MESI checks: single writer, directory consistency."""
    num_nodes = system.network.topology.num_nodes
    blocks = set()
    for l1 in system.l1s.values():
        blocks.update(line.block for line in l1.cache.lines())
    for block in blocks:
        states = {
            node: l1.state_of(block)
            for node, l1 in system.l1s.items()
            if l1.state_of(block) != "I"
        }
        owners = [n for n, s in states.items() if s in (MODIFIED, EXCLUSIVE)]
        sharers = [n for n, s in states.items() if s == SHARED]
        # Single-writer: at most one M/E copy, and never alongside sharers.
        assert len(owners) <= 1, f"block {block:#x} has owners {owners}"
        if owners:
            assert not sharers, (
                f"block {block:#x} owned by {owners} but shared by {sharers}"
            )
        # Directory agreement at the home node.
        home = system.home_of(block)
        entry = system.l2s[home].directory.get(block)
        if owners:
            assert entry is not None and entry.owner == owners[0]
        for sharer in sharers:
            assert entry is not None
            assert sharer in entry.sharers or entry.owner == sharer
        # Inclusive L2 holds every block with L1 copies.
        if states:
            assert system.l2s[home].cache.probe(block) is not None


class TestEndToEnd:
    def test_runs_to_completion(self):
        system = _system()
        cycles = system.run(max_cycles=200_000)
        assert cycles > 0
        assert all(core.done for core in system.cores.values())

    def test_positive_ipc(self):
        system = _system()
        system.warm_caches()
        system.run(max_cycles=200_000)
        ipc = system.per_core_ipc()
        assert len(ipc) == 16
        assert all(v > 0 for v in ipc.values())
        assert 0 < system.mean_ipc() <= 3.0

    def test_miss_records_collected(self):
        system = _system()
        system.run(max_cycles=200_000)
        stats = system.miss_latency_stats()
        assert stats["count"] > 0
        assert stats["mean"] > 0
        assert stats["std"] >= 0

    def test_mesi_invariants_after_quiesce(self):
        system = _system()
        system.run(max_cycles=200_000)
        # Let all in-flight protocol traffic settle.
        for _ in range(3000):
            system.tick()
        _check_mesi_invariants(system)

    @pytest.mark.parametrize("seed", [0, 14, 24, 27, 101])
    def test_mesi_invariants_across_seeds(self, seed):
        """Stress the protocol with varied interleavings; seeds 0/14/24/27
        historically exposed forward-overtakes-fill and stale-writeback
        races."""
        profile = WORKLOADS["TPC-C"]
        traces = {
            core: generate_core_trace(profile, core, 60, seed=seed)
            for core in range(16)
        }
        system = _system(traces=traces)
        system.run(max_cycles=300_000)
        for _ in range(3000):
            system.tick()
        _check_mesi_invariants(system)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            system = _system()
            system.run(max_cycles=200_000)
            results.append(
                (system.cycle, tuple(sorted(system.per_core_ipc().items())))
            )
        assert results[0] == results[1]

    def test_warm_caches_preserves_invariants(self):
        system = _system()
        system.warm_caches()
        _check_mesi_invariants(system)

    def test_warmup_improves_ipc(self):
        cold = _system()
        cold.run(max_cycles=300_000)
        warm = _system()
        warm.warm_caches()
        warm.run(max_cycles=300_000)
        assert warm.mean_ipc() > cold.mean_ipc()

    def test_hetero_layout_runs(self):
        system = _system("diagonal+BL", mesh_size=4)
        system.warm_caches()
        system.run(max_cycles=300_000)
        assert all(core.done for core in system.cores.values())

    def test_sharing_produces_coherence_traffic(self):
        mesh = 4
        block = 1 << 45  # one shared block
        traces = {}
        for core in range(mesh * mesh):
            traces[core] = [
                TraceRecord(gap=2, is_write=core % 2 == 0, address=block)
                for _ in range(20)
            ]
        system = _system(traces=traces)
        system.run(max_cycles=200_000)
        home = system.home_of(block)
        # Ownership ping-pongs between writers: the home must grant the
        # block far more often than once per core.
        assert system.l2s[home].requests_served > 16

    def test_run_deadline_raises(self):
        system = _system()
        with pytest.raises(RuntimeError):
            system.run(max_cycles=5)


def _counters(system):
    """Everything a reader of a (possibly mid-run) system can see."""
    stats = system.network.stats
    return (
        system.cycle,
        [
            (core.stall_cycles, core.instructions_retired, core.started_at,
             core.outstanding, core.done)
            for core in system.cores.values()
        ],
        [
            (l1.loads, l1.stores, l1.cache.hits, l1.cache.misses)
            for l1 in system.l1s.values()
        ],
        system.per_core_ipc(),
        stats.packets_delivered,
        system.messages_sent,
        len(system.miss_records),
    )


class TestEventScheduledCores:
    """Cores are stepped when their cycle cannot be predicted and caught
    up otherwise; nobody outside can tell."""

    def _mixed_system(self):
        """Large and small (blocking) cores, so every kind of quiet cycle
        occurs: start stagger, gaps, window and blocking stalls, drain."""
        small = {node: small_core_config() for node in range(16) if node % 2}
        return _system(core_configs=small)

    def test_polling_every_core_every_cycle_is_the_same_run(self):
        """The degenerate schedule -- every live core stepped every cycle
        -- against the real one, compared after every ``tick()``: counters
        read mid-run are exact."""
        polled, scheduled = self._mixed_system(), self._mixed_system()
        for system in (polled, scheduled):
            system.warm_caches()
            system.network.begin_measurement()
        while not all(core.done for core in polled.cores.values()):
            for core in polled.cores.values():
                core.wake_at = 0
            polled.tick()
            scheduled.tick()
            assert _counters(scheduled) == _counters(polled)
            assert polled.cycle < 100_000
        assert all(core.done for core in scheduled.cores.values())

    def test_tick_by_tick_equals_run(self):
        ran, ticked = self._mixed_system(), self._mixed_system()
        cycles = ran.run(max_cycles=200_000)
        while not all(core.done for core in ticked.cores.values()):
            ticked.tick()
        assert ticked.cycle == cycles
        assert _counters(ticked) == _counters(ran)

    def test_run_in_slices_equals_run(self):
        """``run`` leaves exact counters behind whenever it returns, the
        deadline included, and carries on from there."""
        whole, sliced = self._mixed_system(), self._mixed_system()
        whole.run(max_cycles=200_000)
        reference = self._mixed_system()
        for _ in range(3):
            sliced.run(max_cycles=97, until_done=False)
            for _ in range(97):
                for core in reference.cores.values():
                    core.wake_at = 0
                reference.tick()
            assert _counters(sliced) == _counters(reference)
        sliced.run(max_cycles=200_000)
        assert _counters(sliced) == _counters(whole)

    def test_cores_are_stepped_about_once_per_record(self, monkeypatch):
        calls = []
        step = TraceCore.step
        monkeypatch.setattr(
            TraceCore, "step", lambda core, cycle: (calls.append(1), step(core, cycle))[1]
        )
        system = _system()
        system.warm_caches()
        cycles = system.run(max_cycles=200_000)
        records = sum(len(core.trace) for core in system.cores.values())
        retries = sum(l1.loads + l1.stores for l1 in system.l1s.values()) - records
        # One step per record (fewer when a cycle issues several), one per
        # refused retry, one to start and one to be seen done.
        assert len(calls) <= records + retries + 2 * len(system.cores)
        assert len(calls) < 0.5 * cycles * len(system.cores)  # polled: all of them

    def test_core_without_a_trace_is_never_live(self):
        traces = {0: [], 1: [TraceRecord(gap=5, is_write=False, address=1 << 20)]}
        system = _system(traces=traces)
        system.run(max_cycles=10_000)
        assert system.cores[1].done and system.cores[0].started_at is None
        idle = _system(traces={0: []})
        assert idle.run(max_cycles=100) == 0


class TestFreedByReferenceCount:
    def test_finished_system_dies_with_its_last_reference(self):
        """The network, the controllers and the cores reach the system
        through one weak reference, so nothing waits for a gen-2 pass."""
        # A run whose protocol tail outlives the cores: pending events and
        # a packet in flight must not hold the system either.
        traces = {
            core: generate_core_trace(WORKLOADS["canl"], core, 60, seed=3)
            for core in range(16)
        }
        system = _system(traces=traces)
        system.warm_caches()
        system.network.begin_measurement()
        system.run(max_cycles=200_000)
        assert system._events and system.network.packets_in_flight
        system_ref = weakref.ref(system)
        network_ref = weakref.ref(system.network)
        core_ref = weakref.ref(system.cores[0])
        gc.collect()
        gc.disable()
        try:
            del system
            assert system_ref() is None
            assert network_ref() is None and core_ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_systems_do_not_pile_up(self):
        gc.collect()
        gc.disable()
        try:
            sizes = []
            for _ in range(3):
                system = _system()
                system.run(max_cycles=200_000)
                del system
                sizes.append(len(gc.get_objects()))
        finally:
            gc.enable()
        assert sizes[2] - sizes[1] < 200


class TestKnownDefects:
    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeError,
        reason="MESI deadlock: the home acks a PUTX at once, the WB_ACK "
        "overtakes the FWD_GETS of the transaction it has open towards "
        "that owner, and the late forward is parked on a fill that never "
        "comes (trace and proposed repair: ROADMAP item 2, EXPERIMENTS "
        "Fig 11/12)",
    )
    @pytest.mark.parametrize("layout", ["baseline", "diagonal+BL"])
    def test_canl_at_fig11_scale_and_seed_finishes(self, layout):
        """``canl``, fig11's default seed (7) and records/core (400):
        other seeds finish in about 3,000 cycles; this one leaves two
        cores waiting with the network empty and no event pending."""
        from repro.experiments.fig11_applications import run_one

        run_one(layout, "canl", 400, seed=7, max_cycles=6_000)

    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeError,
        reason="MESI deadlock inside fig11's own grid, reached without a "
        "WB_ACK: owner 44 drops a clean Exclusive line silently (no PUTX), "
        "so home 41 still forwards 46's GETS to it; 44 re-requests, the "
        "FWD_GETS finds that MSHR and is parked on a fill queued behind "
        "the forward's own transaction (ROADMAP item 2, EXPERIMENTS "
        "Fig 11/12)",
    )
    def test_ddup_center_bl_at_fig11_scale_and_seed_finishes(self):
        """``ddup`` on ``center+BL`` at seed 7 and 400 records/core -- a
        cell of fig11's default grid -- leaves cores 44 and 46 waiting;
        seeds 1-3 finish in about 1,900-2,300 cycles."""
        from repro.experiments.fig11_applications import run_one

        run_one("center+BL", "ddup", 400, seed=7, max_cycles=6_000)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="TraceCore.finished_at is never set: step returns at "
        "`if self.done` before it reaches the assignment, so every core's "
        "IPC is retired / (system end - its start) and the slowest core's "
        "tail is in all of them.  The fix is one line where a completion "
        "leaves the core done; it moves every cmp digest, so it goes with "
        "ROADMAP item 2's re-record (EXPERIMENTS Fig 11/12)",
    )
    def test_finished_core_reports_when_it_finished(self):
        """A core that finished at cycle *c* reports ``finished_at == c``
        and an IPC that does not move while other cores run on."""
        quick = [TraceRecord(gap=3, is_write=False, address=1 << 20)]
        slow = [
            TraceRecord(gap=50, is_write=False, address=(2 << 20) + 4096 * i)
            for i in range(40)
        ]
        system = _system(traces={0: quick, 5: slow})
        core = system.cores[0]
        while not core.done:
            system.tick()
        finished, ipc = system.cycle, core.ipc(system.cycle)
        system.run(max_cycles=100_000)
        assert system.cycle > finished + 100
        assert core.finished_at is not None
        assert finished - 1 <= core.finished_at <= finished
        assert core.ipc(system.cycle) == ipc


class TestPlacements:
    def test_mc_placement_nodes(self):
        system = _system(config=_small_cmp_config())
        assert system.mc_nodes == [0, 3, 12, 15]

    def test_memory_traffic_reaches_mcs(self):
        system = _system()
        system.run(max_cycles=200_000)
        served = sum(mc.reads_served for mc in system.mcs.values())
        assert served > 0

    def test_unknown_traces_rejected(self):
        from repro.core.layouts import baseline_layout

        with pytest.raises(ValueError):
            CmpSystem(baseline_layout(4), {99: []})


class TestInterleaveConfig:
    def test_l2_interleave_shift_set_automatically(self):
        system = _system()
        assert system.config.l2_bank.interleave_shift == 4  # 16 nodes
