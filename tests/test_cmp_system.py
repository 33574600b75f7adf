"""Integration tests for the full CMP (cores + caches + MESI + NoC)."""

import pytest

from repro.cmp.cache import EXCLUSIVE, MODIFIED, SHARED, CacheConfig
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


class TestKnownDefects:
    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeError,
        reason="MESI deadlock: the home acks a PUTX at once, the WB_ACK "
        "overtakes the FWD_GETS of the transaction it has open towards "
        "that owner, and the late forward is parked on a fill that never "
        "comes (trace and proposed repair: ROADMAP item 3, EXPERIMENTS "
        "Fig 11/12)",
    )
    @pytest.mark.parametrize("layout", ["baseline", "diagonal+BL"])
    def test_canl_at_fig11_scale_and_seed_finishes(self, layout):
        """``canl``, fig11's default seed (7) and records/core (400):
        other seeds finish in about 3,000 cycles; this one leaves two
        cores waiting with the network empty and no event pending."""
        from repro.experiments.fig11_applications import run_one

        run_one(layout, "canl", 400, seed=7, max_cycles=6_000)


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
