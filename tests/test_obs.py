"""Tests for the observability layer (repro.obs).

Covers the acceptance criteria of the obs tentpole: with sampling and
tracing enabled, (a) the time-average of the per-router utilization series
equals the end-of-run ``NetworkStats`` aggregates to within 1e-6, and
(b) the JSONL packet trace reproduces each measured packet's hop count and
total latency exactly -- plus the event bus, profiler, progress, drain
truncation accounting, the artifact writers and the replay CLI.
"""

import json
import math

import pytest

from repro.core.layouts import baseline_layout, build_network
from repro.experiments.export import export_observation
from repro.obs import (
    CompositeObserver,
    KernelMetrics,
    Observer,
    PacketTracer,
    RunProfiler,
    TimeSeriesSampler,
    WindowSample,
    observe,
)
from repro.obs import replay
from repro.obs.profiler import Progress
from repro.traffic.patterns import UniformRandom
from repro.traffic.runner import run_synthetic
from tests.test_obs_fastpath import _make_counting_observer


def _run_observed(
    mesh=4, rate=0.05, warmup=20, measure=150, seed=11, kernel="event",
    **observe_kwargs
):
    network = build_network(baseline_layout(mesh))
    network.use_kernel(kernel)
    obs = observe(network, **observe_kwargs)
    result = run_synthetic(
        network,
        UniformRandom(network.topology.num_nodes),
        rate=rate,
        warmup_packets=warmup,
        measure_packets=measure,
        seed=seed,
        profiler=obs.profiler,
        sampler=obs.sampler,
    )
    return network, obs, result


class TestAcceptanceSamplerMatchesStats:
    """Acceptance (a): series time-averages == NetworkStats aggregates,
    here on the event kernel beside a tracer."""

    @pytest.fixture(scope="class")
    def observed(self):
        return _run_observed(
            mesh=8, rate=0.05, warmup=50, measure=300,
            sample_window=50, trace=True,
        )

    def test_buffer_utilization_time_average(self, observed):
        network, obs, result = observed
        stats = result.stats
        assert obs.sampler.windows, "sampler recorded no windows"
        for router in range(network.topology.num_routers):
            assert obs.sampler.time_average_buffer_utilization(
                router
            ) == pytest.approx(stats.buffer_utilization(router), abs=1e-6)

    def test_link_utilization_time_average(self, observed):
        network, obs, result = observed
        stats = result.stats
        assert any(
            stats.link_utilization(*key) > 0 for key in stats.link_lanes
        )
        for router, port in stats.link_lanes:
            assert obs.sampler.time_average_link_utilization(
                router, port
            ) == pytest.approx(stats.link_utilization(router, port), abs=1e-6)

    def test_sampled_cycles_equal_measured_cycles(self, observed):
        _, obs, result = observed
        assert obs.sampler.sampled_cycles() == result.stats.measured_cycles

    def test_series_values_bounded(self, observed):
        network, obs, _ = observed
        for router in range(network.topology.num_routers):
            for _, value in obs.sampler.buffer_utilization_series(router):
                assert 0.0 <= value <= 1.0
        for router, port in obs.sampler.link_keys():
            for _, value in obs.sampler.link_utilization_series(router, port):
                assert 0.0 <= value <= 1.0


class TestAcceptanceSamplerMatchesStatsOnC(TestAcceptanceSamplerMatchesStats):
    """The same acceptance on the compiled kernel's spans."""

    @pytest.fixture(scope="class")
    def observed(self):
        from repro.noc.ckernel import ckernel_available

        if not ckernel_available():
            pytest.skip("compiled kernel unavailable")
        network, obs, result = _run_observed(
            mesh=8, rate=0.05, warmup=50, measure=300, sample_window=50,
            kernel="c",
        )
        assert result.span_fallback is None
        assert network._routers is None  # never read the object model
        return network, obs, result


class TestAcceptanceTracerMatchesRecords:
    """Acceptance (b): JSONL trace reproduces hops and total latency."""

    @pytest.fixture(scope="class")
    def observed(self):
        return _run_observed(sample_window=None, trace=True)

    def test_every_measured_packet_traced(self, observed):
        _, obs, result = observed
        for record in result.stats.records:
            assert record.packet_id in obs.tracer.traces
            assert record.packet_id in obs.tracer.delivered

    def test_traces_exactly_the_measured_packets(self, observed):
        _, obs, result = observed
        measured = {record.packet_id for record in result.stats.records}
        assert set(obs.tracer.traces) == measured

    def test_trace_object_matches_records(self, observed):
        _, obs, result = observed
        for record in result.stats.records:
            assert obs.tracer.hop_count(record.packet_id) == record.hops
            assert obs.tracer.total_latency(record.packet_id) == record.total

    def test_jsonl_matches_records(self, observed, tmp_path):
        _, obs, result = observed
        path = replay.write_events(
            tmp_path / "trace.jsonl", obs.tracer.iter_events()
        )
        hops = {}
        enqueue_cycle = {}
        deliver_cycle = {}
        summaries = {}
        with path.open() as handle:
            for line in handle:
                event = json.loads(line)
                pid = event["packet_id"]
                if event["type"] == "link" and event["head"]:
                    hops[pid] = hops.get(pid, 0) + 1
                elif event["type"] == "enqueue":
                    enqueue_cycle[pid] = event["cycle"]
                elif event["type"] == "delivered":
                    deliver_cycle[pid] = event["cycle"]
                    summaries[pid] = event
        for record in result.stats.records:
            pid = record.packet_id
            # Recomputed from raw events...
            assert hops.get(pid, 0) == record.hops
            assert deliver_cycle[pid] - enqueue_cycle[pid] == record.total
            # ...and as carried by the summary record.
            assert summaries[pid]["hops"] == record.hops
            assert summaries[pid]["latency"] == record.total

    def test_chrome_trace_is_valid(self, observed, tmp_path):
        _, obs, result = observed
        path = obs.tracer.write_chrome_trace(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        begins = sum(1 for e in events if e["ph"] == "B")
        ends = sum(1 for e in events if e["ph"] == "E")
        assert begins == ends == len(obs.tracer.traces)


class TestEventBus:
    def test_every_hook_has_a_product_listener(self):
        """A hook no product observer overrides is a tap on the simulator
        path that nothing listens to; the composite forwards every hook."""
        hooks = sorted(n for n in vars(Observer) if n.startswith("on_"))
        products = (PacketTracer, KernelMetrics)
        unheard = [
            hook for hook in hooks
            if not any(hook in vars(cls) for cls in products)
        ]
        assert unheard == []
        assert len(hooks) == 8
        assert [h for h in hooks if h not in vars(CompositeObserver)] == []

    def test_event_counts_are_consistent(self):
        counter = _make_counting_observer()
        network = build_network(baseline_layout(4))
        network.attach_observer(counter)
        result = run_synthetic(
            network, UniformRandom(16), rate=0.05,
            warmup_packets=20, measure_packets=100, seed=5,
        )
        calls = counter.calls
        # Warmup + measured packets, plus background load during the drain.
        assert calls["on_packet_enqueued"] >= 120
        assert calls["on_packet_delivered"] <= calls["on_packet_enqueued"]
        # Ejections never exceed injections (drain may leave flits inside).
        assert calls["on_flit_ejected"] <= calls["on_flit_injected"]
        # A flit traverses the switch once per hop plus once to eject.
        assert calls["on_switch_grant"] == (
            calls["on_link_traversal"] + calls["on_flit_ejected"]
        )
        assert calls["on_cycle_end"] == network.cycle
        assert not result.saturated

    def test_observer_does_not_perturb_simulation(self):
        baseline = []
        for attach in (False, True):
            network = build_network(baseline_layout(4))
            if attach:
                network.attach_observer(_make_counting_observer())
            result = run_synthetic(
                network, UniformRandom(16), rate=0.06,
                warmup_packets=20, measure_packets=120, seed=9,
            )
            baseline.append(
                (result.avg_latency_cycles, result.total_cycles,
                 result.stats.measured_cycles)
            )
        assert baseline[0] == baseline[1]

    def test_detach_restores_fast_path(self):
        network = build_network(baseline_layout(4))
        network.attach_observer(_make_counting_observer())
        network.detach_observer()
        assert network.obs is None
        assert all(router.obs is None for router in network.routers)

    def test_composite_fans_out(self):
        count_a = _make_counting_observer()
        count_b = _make_counting_observer()
        composite = CompositeObserver([count_a])
        composite.add(count_b)
        network = build_network(baseline_layout(4))
        network.attach_observer(composite)
        run_synthetic(
            network, UniformRandom(16), rate=0.05,
            warmup_packets=10, measure_packets=40, seed=2,
        )
        assert count_a.calls == count_b.calls
        assert set(count_a.calls) == {
            name for name in vars(Observer) if name.startswith("on_")
        }
        assert count_a.calls["on_packet_enqueued"] >= 50

    def test_base_observer_is_noop(self):
        network = build_network(baseline_layout(4))
        network.attach_observer(Observer())
        result = run_synthetic(
            network, UniformRandom(16), rate=0.05,
            warmup_packets=10, measure_packets=40, seed=2,
        )
        assert len(result.stats.records) == 40


class TestDrainTruncation:
    def test_unfinished_measured_packets_reported(self):
        network = build_network(baseline_layout(4))
        result = run_synthetic(
            network, UniformRandom(16), rate=0.5,
            warmup_packets=20, measure_packets=300, seed=3,
            drain_cycle_cap=150,
        )
        assert result.saturated
        assert result.unfinished_measured_packets > 0
        assert result.unfinished_measured_packets == (
            result.stats.packets_offered - len(result.stats.records)
        )
        assert result.stats.saturated

    def test_clean_run_has_no_unfinished_packets(self):
        network = build_network(baseline_layout(4))
        result = run_synthetic(
            network, UniformRandom(16), rate=0.05,
            warmup_packets=20, measure_packets=80, seed=1,
        )
        assert not result.saturated
        assert result.unfinished_measured_packets == 0
        assert not result.stats.saturated


class TestProfilerAndProgress:
    def test_profiler_report(self):
        _, obs, result = _run_observed(
            sample_window=None, profile=True, measure=80
        )
        report = obs.profiler.report()
        assert report["cycles"] == result.total_cycles
        assert report["cycles_per_second"] > 0
        assert report["wall_seconds"] > 0
        assert set(report["run_phase_seconds"]) == {
            "warmup", "measure", "drain",
        }
        assert sum(report["run_phase_seconds"].values()) > 0
        text = obs.profiler.format_report()
        assert "cycles/second" in text and "drain" in text

    def test_profile_alone_attaches_nothing(self):
        """``observe`` attaches only what was asked for: a profiler is
        not a hook, so a c network keeps its compiled kernel."""
        from repro.noc.ckernel import ckernel_available

        network = build_network(baseline_layout(4))
        network.use_kernel("c")
        obs = observe(network, sample_window=None, profile=True)
        assert network.obs is None
        assert obs.profiler is not None
        if ckernel_available():
            assert network.span_blocker() is None

    def test_defaults_attach_nothing(self):
        """With its defaults ``observe`` makes a sampler, which the run
        driver cuts windows for: no event hook, so a c network keeps its
        spans."""
        from repro.noc.ckernel import ckernel_available

        network = build_network(baseline_layout(4))
        network.use_kernel("c")
        obs = observe(network)
        assert obs.sampler is not None and obs.profiler is None
        assert not isinstance(obs.sampler, Observer)
        assert network.obs is None
        if ckernel_available():
            assert network.span_blocker() is None

    def test_profiled_run_matches_unprofiled(self):
        results = []
        for profile in (False, True):
            network = build_network(baseline_layout(4))
            profiler = RunProfiler() if profile else None
            result = run_synthetic(
                network, UniformRandom(16), rate=0.05,
                warmup_packets=20, measure_packets=80, seed=4,
                profiler=profiler,
            )
            results.append((result.avg_latency_cycles, result.total_cycles))
        assert results[0] == results[1]

    def test_progress_callbacks(self):
        beats = []
        network = build_network(baseline_layout(4))
        run_synthetic(
            network, UniformRandom(16), rate=0.05,
            warmup_packets=50, measure_packets=400, seed=1,
            progress=beats.append, progress_every=100,
        )
        assert beats
        assert {b.phase for b in beats} <= {"warmup", "measure", "drain"}
        for beat in beats:
            assert isinstance(beat, Progress)
            assert beat.elapsed_s >= 0
            assert beat.target > 0
            assert beat.eta_s >= 0 or math.isnan(beat.eta_s)
        assert str(beats[-1]).startswith("[")

    def test_progress_eta_math(self):
        beat = Progress(
            phase="measure", cycle=10, done=50, target=100, elapsed_s=2.0
        )
        assert beat.fraction == pytest.approx(0.5)
        assert beat.eta_s == pytest.approx(2.0)
        empty = Progress(
            phase="warmup", cycle=0, done=0, target=100, elapsed_s=0.0
        )
        assert math.isnan(empty.eta_s)


class _Recount(Observer):
    """The sampler's windows counted again per event (busy channels --
    the distinct (router, port) pairs a flit departed from in a cycle --
    deliveries, every router's occupancy at each measured cycle end): the
    reference its differences of the network's counters must equal."""

    def __init__(self, network, window):
        self.network, self.window, self.windows = network, window, []
        self.used = set()
        self._open()

    def _open(self):
        self.cycles, self.start, self.last = 0, None, 0
        self.occupancy = [0] * self.network.topology.num_routers
        self.busy, self.packets, self.flits, self.latencies = {}, 0, 0, []

    def close(self):
        if self.cycles:
            self.windows.append(WindowSample(
                len(self.windows), self.start, self.last, self.cycles,
                self.occupancy, self.busy, self.packets, self.flits,
                sum(self.latencies), len(self.latencies),
            ))
        self._open()

    def on_link_traversal(self, src_router, src_port, dst_router, dst_port,
                          flit, cycle):
        self.used.add((src_router, src_port))

    def on_packet_delivered(self, packet, cycle):
        if self.network.measuring:
            self.packets += 1
            self.flits += packet.num_flits
            if packet.measured:
                self.latencies.append(cycle - packet.created_at)

    def on_cycle_end(self, cycle, measuring):
        used, self.used = self.used, set()
        if not measuring:
            self.close()
            return
        for key in used:
            self.busy[key] = self.busy.get(key, 0) + 1
        if self.start is None:
            self.start = cycle
        for rid, router in enumerate(self.network.routers):
            self.occupancy[rid] += router.occupied_flits
        self.cycles += 1
        self.last = cycle
        if self.cycles == self.window:
            self.close()


class TestSamplerDetails:
    @pytest.mark.parametrize("rate, cap", [(0.05, 400_000), (0.5, 60)])
    def test_windows_equal_a_per_event_recount(self, rate, cap):
        """Below saturation and at a drain cap: the windows cut from the
        stats counters equal the windows counted per event, field for
        field, the last partial one included."""
        network = build_network(baseline_layout(4))
        sampler = TimeSeriesSampler(network, window=10)
        recount = _Recount(network, 10)
        result = run_synthetic(
            network, UniformRandom(16), rate=rate, warmup_packets=20,
            measure_packets=400, seed=11, drain_cycle_cap=cap,
            observer=recount, sampler=sampler,
        )
        recount.close()
        assert result.saturated == (rate == 0.5)
        assert len(sampler.windows) > 2
        assert sampler.windows == recount.windows

    @pytest.mark.parametrize("kernel", ["event", "c"])
    def test_a_window_that_never_opens_records_nothing(self, kernel):
        """``measure_packets=0``: no packet is measured and the
        measurement window never opens.  Closing the sampler's last
        window records nothing, so the run fails as an unsampled one
        does -- on closing a window it never opened."""
        from repro.noc.ckernel import ckernel_available

        if kernel == "c" and not ckernel_available():
            pytest.skip("compiled kernel unavailable")
        network = build_network(baseline_layout(4))
        network.use_kernel(kernel)
        sampler = TimeSeriesSampler(network, window=10)
        with pytest.raises(RuntimeError, match="without begin_measurement"):
            run_synthetic(
                network, UniformRandom(16), rate=0.05, warmup_packets=20,
                measure_packets=0, seed=11, sampler=sampler,
            )
        assert network.cycle > 0 and not network.measuring
        assert sampler.windows == []

    def test_rejects_bad_window(self):
        network = build_network(baseline_layout(4))
        with pytest.raises(ValueError):
            TimeSeriesSampler(network, window=0)

    def test_window_metadata(self):
        _, obs, result = _run_observed(sample_window=25)
        windows = obs.sampler.windows
        assert windows
        for w in windows[:-1]:
            assert w.cycles == 25
        assert sum(w.cycles for w in windows) == result.stats.measured_cycles
        for earlier, later in zip(windows, windows[1:]):
            assert later.start_cycle > earlier.end_cycle - 1
            assert later.index == earlier.index + 1

    def test_window_deliveries_sum_to_window_total(self):
        _, obs, result = _run_observed(sample_window=25)
        assert sum(w.deliveries for w in obs.sampler.windows) == (
            result.stats.window_packet_deliveries
        )
        assert sum(w.flits_delivered for w in obs.sampler.windows) == (
            result.stats.window_flit_deliveries
        )

    def test_latency_and_throughput_series(self):
        network, obs, _ = _run_observed(sample_window=25)
        latencies = [v for _, v in obs.sampler.latency_series()]
        assert any(not math.isnan(v) for v in latencies)
        throughputs = [v for _, v in obs.sampler.throughput_series()]
        assert any(v > 0 for v in throughputs)

    def test_saturation_onset_none_below_knee(self):
        _, obs, _ = _run_observed(sample_window=25, rate=0.03)
        assert obs.sampler.saturation_onset(factor=50.0) is None


class TestExportersAndReplay:
    @pytest.fixture(scope="class")
    def observed(self):
        return _run_observed(sample_window=25, trace=True, profile=True)

    def test_sampler_rows_and_csv(self, observed, tmp_path):
        _, obs, _ = observed
        rows = obs.sampler.summary_rows()
        assert len(rows) == len(obs.sampler.windows)
        assert {"window", "cycles", "deliveries"} <= set(rows[0])
        assert [r["throughput_packets_per_node_cycle"] for r in rows] == [
            v for _, v in obs.sampler.throughput_series()
        ]
        buffer_rows = obs.sampler.buffer_rows()
        assert len(buffer_rows) == len(obs.sampler.windows) * 16
        paths = obs.sampler.write_csv(tmp_path, prefix="t")
        assert [p.name for p in paths] == [
            "t_timeseries.csv", "t_buffer_series.csv", "t_link_series.csv",
        ]
        for path in paths:
            assert len(path.read_text().splitlines()) > 1

    def test_export_observation_bundle(self, observed, tmp_path):
        _, obs, _ = observed
        written = export_observation("demo", obs, tmp_path)
        names = {path.name for path in written}
        assert names == {
            "demo_timeseries.csv",
            "demo_buffer_series.csv",
            "demo_link_series.csv",
            "demo_trace.jsonl",
            "demo_trace_chrome.json",
            "demo_profile.json",
        }

    def test_replay_summarize(self, observed, tmp_path):
        _, obs, result = observed
        path = replay.write_events(
            tmp_path / "trace.jsonl", obs.tracer.iter_events()
        )
        events = replay.load_events(path)
        summary = replay.summarize(events)
        assert summary["packets"] == len(obs.tracer.traces)
        assert summary["delivered"] == len(result.stats.records)
        assert summary["avg_hops"] == pytest.approx(result.stats.avg_hops)
        assert summary["avg_latency_cycles"] == pytest.approx(
            result.stats.avg_latency_cycles
        )
        text = replay.format_summary(summary)
        assert "packets" in text and "hottest routers" in text

    def test_replay_cli(self, observed, tmp_path, capsys):
        _, obs, _ = observed
        export_observation("demo", obs, tmp_path)
        trace = tmp_path / "demo_trace.jsonl"
        chrome = tmp_path / "chrome.json"
        assert replay.main([str(trace), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "events" in out and "delivered" in out
        # The JSONL trace holds everything the tracer rendered: replay
        # rebuilds the tracer's own Chrome document byte for byte.
        written = (tmp_path / "demo_trace_chrome.json").read_bytes()
        assert chrome.read_bytes() == written
        document = json.loads(written)
        assert {e["cat"] for e in document["traceEvents"]} == {
            "packet", "hop", "va",
        }
        pid = next(iter(obs.tracer.traces))
        assert replay.main([str(trace), "--packet", str(pid)]) == 0
        assert f"packet {pid}" in capsys.readouterr().out

    def test_replay_cli_bad_usage(self, tmp_path, capsys):
        assert replay.main([]) == 2
        assert replay.main([str(tmp_path / "missing.jsonl")]) == 1
