"""Cross-module integration tests: alternative topologies end to end,
self-similar injection through the network, CMP memory-controller
placements, and the asymmetric-CMP harness on a small mesh."""

import pytest

from repro.cmp.cache import CacheConfig
from repro.cmp.system import CmpConfig, CmpSystem
from repro.core.layouts import baseline_layout
from repro.experiments import run_all
from repro.noc.config import NetworkConfig, RouterConfig
from repro.noc.network import Network
from repro.noc.topology import ConcentratedMesh, FlattenedButterfly
from repro.traffic.patterns import UniformRandom
from repro.traffic.runner import run_synthetic
from repro.traffic.selfsimilar import SelfSimilarInjector
from repro.traffic.workloads import WORKLOADS, generate_core_trace


class TestAlternativeTopologiesEndToEnd:
    def _run(self, topology, rate=0.02):
        configs = {r: RouterConfig() for r in range(topology.num_routers)}
        network = Network(topology, configs, NetworkConfig())
        return run_synthetic(
            network, UniformRandom(topology.num_nodes), rate=rate,
            warmup_packets=30, measure_packets=200, seed=12,
        )

    def test_concentrated_mesh_delivers(self):
        result = self._run(ConcentratedMesh(4, concentration=4))
        assert result.measured_packets == 200
        assert not result.saturated

    def test_flattened_butterfly_delivers_with_low_hop_count(self):
        result = self._run(FlattenedButterfly(4, concentration=4))
        assert result.measured_packets == 200
        # Minimal fbfly routing: at most 2 network hops per packet.
        assert result.stats.avg_hops <= 2.0

    def test_fbfly_beats_cmesh_latency(self):
        """Richer connectivity -> lower zero-ish-load latency."""
        cmesh = self._run(ConcentratedMesh(4, concentration=4))
        fbfly = self._run(FlattenedButterfly(4, concentration=4))
        assert fbfly.stats.avg_latency_cycles < cmesh.stats.avg_latency_cycles


class TestSelfSimilarEndToEnd:
    def test_network_survives_bursts(self):
        from repro.noc.topology import Mesh

        network = Network(
            Mesh(8), {r: RouterConfig() for r in range(64)}, NetworkConfig()
        )
        injector = SelfSimilarInjector(num_nodes=64, rate=0.02, seed=4)
        result = run_synthetic(
            network, UniformRandom(64), rate=0.02,
            warmup_packets=50, measure_packets=300, seed=4, injector=injector,
        )
        assert result.measured_packets == 300
        # Bursty arrivals push the latency tail beyond the Bernoulli case.
        assert result.stats.latency_percentile(0.95) >= result.stats.avg_latency_cycles


class TestCmpMemoryPlacements:
    def _system(self, placement):
        config = CmpConfig(
            l1=CacheConfig(size_bytes=4 * 1024, associativity=2),
            l2_bank=CacheConfig(size_bytes=32 * 1024, associativity=8, latency=6),
            mc_placement=placement,
            start_stagger_window=32,
        )
        profile = WORKLOADS["SAP"]
        traces = {
            core: generate_core_trace(profile, core, 60, seed=6)
            for core in range(64)
        }
        return CmpSystem(baseline_layout(8), traces, config=config)

    @pytest.mark.parametrize("placement", ["corners", "diamond", "diagonal"])
    def test_all_placements_complete(self, placement):
        system = self._system(placement)
        system.warm_caches()
        system.run(max_cycles=400_000)
        assert all(core.done for core in system.cores.values())
        assert sum(mc.reads_served for mc in system.mcs.values()) > 0

    def test_distributed_controllers_reduce_memory_latency(self):
        results = {}
        for placement in ("corners", "diamond"):
            system = self._system(placement)
            system.warm_caches()
            system.run(max_cycles=400_000)
            results[placement] = system.miss_latency_stats(via_memory_only=True)
        assert results["diamond"]["mean"] < results["corners"]["mean"]


class TestAsymmetricHarnessSmall:
    def test_fig14_on_4x4(self, monkeypatch):
        from repro.experiments import fig14_asymmetric

        lengths = {}

        def traced(profile, core_id, num_records, seed=0):
            trace = generate_core_trace(profile, core_id, num_records, seed)
            lengths.setdefault(profile.name, set()).add(len(trace))
            return trace

        monkeypatch.setattr(fig14_asymmetric, "generate_core_trace", traced)
        data = fig14_asymmetric.run(
            records_large=60, records_small=40, mesh_size=4
        )
        assert lengths == {"libquantum": {60}, "SPECjbb": {40}}
        assert set(data["results"]) == {
            "HomoNoC-XY", "HeteroNoC-XY", "HeteroNoC-Table+XY",
        }
        for r in data["results"].values():
            assert r["weighted_speedup"] > 0
            assert r["harmonic_speedup"] > 0


def _tiny_sweep_harness():
    """A run_all harness small enough for a test: two 4x4 points."""
    from repro.exec import run_sweep, sweep_points

    points = sweep_points(
        ["baseline"], "uniform_random", [0.04, 0.06], seed=7,
        warmup_packets=10, measure_packets=30, mesh_size=4,
    )
    for result in run_sweep(points):
        print(f"{result.label}  {result.latency_cycles!r}")


class TestRunAllCli:
    @pytest.fixture(autouse=True)
    def _isolated_exec(self, tmp_path, monkeypatch):
        """``run_all.main`` installs process-wide engine defaults and a
        default store under the XDG cache: keep both inside the test."""
        import repro.exec.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_defaults", engine_mod.ExecDefaults())
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)

    def test_dispatch_unknown(self):
        assert run_all.main(["not-an-experiment"]) == 2

    @pytest.mark.parametrize("flag", ["--no-cahce", "--full"])
    def test_unknown_flag_rejected(self, flag, capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(run_all.HARNESSES, "tiny", lambda: ran.append(1))
        assert run_all.main([flag, "tiny"]) == 2
        assert ran == []
        assert f"unknown flags: ['{flag}']" in capsys.readouterr().out

    def test_dispatch_single(self, capsys):
        assert run_all.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_resume_reports_journal_and_writes_manifest(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv(
            "REPRO_SWEEP_CACHE", str(tmp_path / "sweeps.sqlite")
        )
        # table1 runs no sweeps, so the first --resume pass sees an
        # empty journal; the flag must still report and continue.
        assert run_all.main(["--resume", "table1"]) == 0
        err = capsys.readouterr().err
        assert "[resume] no journalled sweeps yet" in err
        manifest_path = tmp_path / "sweeps.resume.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["name"] == "run_all_resume"
        assert manifest["extra"]["resume"]["harnesses"] == ["table1"]

    def test_plain_run_then_resume_recomputes_nothing(
        self, capsys, monkeypatch
    ):
        # Plain runs and --resume share one store, so whatever a plain
        # (or killed) run committed is what --resume finds.
        import repro.exec.engine as engine_mod

        def tables(stdout):  # minus the wall-clock "[... done in" line
            return [ln for ln in stdout.splitlines() if not ln.startswith("[")]

        monkeypatch.setitem(run_all.HARNESSES, "tiny", _tiny_sweep_harness)
        assert run_all.main(["tiny"]) == 0
        plain = capsys.readouterr()

        def _boom(point):
            raise AssertionError(f"re-simulated {point.label} on --resume")

        monkeypatch.setattr(engine_mod, "execute_point", _boom)
        assert run_all.main(["--resume", "tiny"]) == 0
        resumed = capsys.readouterr()
        assert "[resume] tiny: 2/2 points committed, 0 pending" in resumed.err
        assert tables(resumed.out) == tables(plain.out)

    def test_csv_export_runs_the_harness_once(self, tmp_path, monkeypatch):
        """``--csv`` exports the data the harness's ``main`` returns: its
        ``run`` -- the simulation -- is called once, not again for the
        CSVs."""
        from repro.experiments import fig01_utilization

        calls = []

        def stub_run():
            calls.append("run")
            return {
                "buffer_utilization": [[0.5, 0.25], [0.25, 0.5]],
                "link_utilization": [[0.1, 0.2], [0.2, 0.1]],
                "center_buffer_util": 0.5,
                "edge_buffer_util": 0.25,
            }

        monkeypatch.setattr(fig01_utilization, "run", stub_run)
        assert run_all.main(["--csv", str(tmp_path), "fig01"]) == 0
        assert calls == ["run"]
        assert (tmp_path / "fig01_buffer_utilization.csv").exists()

    def test_resume_without_cache_rejected(self, capsys):
        assert run_all.main(["--resume", "--no-cache", "table1"]) == 2
        assert "--resume needs the cache" in capsys.readouterr().out

    def test_a_raising_harness_does_not_stop_the_rest(
        self, capsys, monkeypatch
    ):
        ran = []

        def _raises():
            ran.append("broken")
            raise RuntimeError("cores still running: [44, 46]")

        monkeypatch.setitem(run_all.HARNESSES, "broken", _raises)
        monkeypatch.setitem(
            run_all.HARNESSES, "after", lambda: ran.append("after")
        )
        assert run_all.main(["broken", "table1", "after"]) == 1
        assert ran == ["broken", "after"]
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert (
            "[broken FAILED: RuntimeError: cores still running: [44, 46]]"
            in captured.err
        )
        assert "Traceback (most recent call last)" in captured.err
        assert "harnesses failed: broken" in captured.err
