"""Unit tests for statistics collection."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layouts import baseline_layout, build_network
from repro.noc.stats import LatencyRecord, NetworkStats, RouterActivity
from repro.traffic.patterns import UniformRandom
from repro.traffic.runner import run_synthetic


#: the router model of the hand-made packets below: 2-stage routers and
#: 1-cycle links, so a 6-flit packet over 2 hops of 1-lane links has a
#: transfer latency of 10 cycles and an in-network floor of 5.
_STAGES, _LINK_DELAY = 2, 1


def _record_totals(stats, totals, queuing=2):
    """Record one measured 6-flit, 2-hop packet from node 0 to node 5 per
    total latency in ``totals``, each created at cycle 0."""
    n = len(totals)
    stats.record_completions(
        list(range(n)), [0] * n, [5] * n, [6] * n, [2] * n, [0] * n,
        [queuing] * n, [1] * n, list(totals), ["data"] * n,
        _STAGES, _LINK_DELAY,
    )
    return stats


def _record(packet_id=0, total=20, queuing=2, transfer=10, **kwargs):
    blocking = total - queuing - transfer
    return LatencyRecord(
        packet_id=packet_id,
        src=0,
        dst=5,
        num_flits=6,
        hops=2,
        total=total,
        queuing=queuing,
        transfer=transfer,
        blocking=blocking,
        **kwargs,
    )


class TestLatencyRecord:
    def test_components_must_sum(self):
        with pytest.raises(ValueError):
            LatencyRecord(
                packet_id=0, src=0, dst=1, num_flits=1, hops=1,
                total=10, queuing=1, transfer=5, blocking=5,
            )

    def test_valid_record(self):
        record = _record()
        assert record.blocking == 8


class TestRouterActivity:
    def test_snapshot_and_delta(self):
        activity = RouterActivity(buffer_capacity_flits=75)
        activity.buffer_writes = 10
        activity.merged_flit_pairs = 2
        snap = activity.snapshot()
        activity.buffer_writes = 25
        activity.merged_flit_pairs = 5
        delta = activity.delta_since(snap)
        assert delta.buffer_writes == 15
        assert delta.merged_flit_pairs == 3
        assert delta.buffer_capacity_flits == 75

    def test_snapshot_is_independent(self):
        activity = RouterActivity()
        snap = activity.snapshot()
        activity.buffer_reads = 7
        assert snap.buffer_reads == 0


class TestNetworkStats:
    def _stats_with_records(self, totals):
        return _record_totals(NetworkStats(num_routers=4, num_nodes=4), totals)

    def test_mean_latency(self):
        stats = self._stats_with_records([20, 30, 40])
        assert stats.avg_latency_cycles == pytest.approx(30.0)

    def test_latency_components(self):
        stats = self._stats_with_records([20, 20])
        assert stats.avg_queuing_cycles == pytest.approx(2.0)
        assert stats.avg_transfer_cycles == pytest.approx(10.0)
        assert stats.avg_blocking_cycles == pytest.approx(8.0)

    def test_latency_ns_scaling(self):
        stats = self._stats_with_records([22])
        assert stats.avg_latency_ns(2.2) == pytest.approx(10.0)

    def test_empty_stats_raise(self):
        stats = NetworkStats(4, 4)
        with pytest.raises(ValueError):
            _ = stats.avg_latency_cycles

    def test_percentile(self):
        stats = self._stats_with_records([10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
        assert stats.latency_percentile(0.5) == pytest.approx(50.0)
        assert stats.latency_percentile(1.0) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            stats.latency_percentile(1.5)

    def test_percentile_zero_is_minimum(self):
        stats = self._stats_with_records([70, 10, 40])
        assert stats.latency_percentile(0.0) == pytest.approx(10.0)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            NetworkStats(4, 4).latency_percentile(0.5)

    def test_throughput_uses_window(self):
        stats = self._stats_with_records([20])
        stats.measured_cycles = 100
        stats.window_packet_deliveries = 40
        assert stats.accepted_packets_per_node_per_cycle == pytest.approx(0.1)

    def test_throughput_needs_window(self):
        stats = NetworkStats(4, 4)
        with pytest.raises(ValueError):
            _ = stats.accepted_packets_per_node_per_cycle

    def test_buffer_utilization(self):
        stats = NetworkStats(2, 2)
        stats.measured_cycles = 10
        stats.router_activity[0].buffer_capacity_flits = 30
        stats.router_activity[0].occupancy_integral = 60
        assert stats.buffer_utilization(0) == pytest.approx(0.2)
        assert stats.buffer_utilization(1) == 0.0

    def test_link_utilization(self):
        stats = NetworkStats(2, 2)
        stats.measured_cycles = 20
        stats.link_lanes[(0, 2)] = 1
        stats.link_busy_cycles[(0, 2)] = 5
        assert stats.link_utilization(0, 2) == pytest.approx(0.25)
        assert stats.router_link_utilization(0, 5) == pytest.approx(0.25)
        assert stats.router_link_utilization(1, 5) == 0.0

    def test_summary_keys(self):
        stats = self._stats_with_records([20])
        stats.measured_cycles = 10
        stats.window_packet_deliveries = 1
        summary = stats.summary(2.2)
        assert set(summary) >= {
            "avg_latency_cycles",
            "avg_latency_ns",
            "throughput_packets_per_node_cycle",
            "p95_latency_cycles",
            "p99_latency_cycles",
            "measured_packets",
            "saturated",
        }
        assert summary["measured_packets"] == 1.0
        assert summary["saturated"] is False

    def test_summary_percentiles(self):
        stats = self._stats_with_records(list(range(10, 1010, 10)))
        summary = stats.summary()
        assert summary["p95_latency_cycles"] == pytest.approx(950.0)
        assert summary["p99_latency_cycles"] == pytest.approx(990.0)

    def test_summary_empty_window_is_nan_not_raise(self):
        stats = NetworkStats(4, 4)
        stats.saturated = True
        summary = stats.summary()
        assert summary["measured_packets"] == 0.0
        assert summary["saturated"] is True
        for key in (
            "avg_latency_cycles",
            "avg_latency_ns",
            "avg_queuing_cycles",
            "avg_blocking_cycles",
            "avg_transfer_cycles",
            "avg_hops",
            "p95_latency_cycles",
            "p99_latency_cycles",
            "throughput_packets_per_node_cycle",
        ):
            assert math.isnan(summary[key]), key

    def test_summary_of_saturated_run_does_not_crash(self):
        network = build_network(baseline_layout(4))
        result = run_synthetic(
            network, UniformRandom(16), rate=0.5,
            warmup_packets=10, measure_packets=200, seed=3,
            drain_cycle_cap=100,
        )
        assert result.saturated
        summary = result.stats.summary()
        assert summary["saturated"] is True
        assert summary["measured_packets"] == float(len(result.stats.records))


#: one delivered packet: id, src, dst, flits, hops, created_at, cycles
#: queued, min_lanes (below 1: unknown), cycles beyond the per-hop pipeline
#: minimum, class.
_DELIVERED = st.tuples(
    st.integers(0, 10**6), st.integers(0, 63), st.integers(0, 63),
    st.integers(1, 12), st.integers(0, 14), st.integers(0, 10**5),
    st.integers(0, 200), st.integers(-1, 4), st.integers(0, 400),
    st.sampled_from(["data", "control", "probe"]),
)


class TestColumnarSample:
    """The sample is stored as columns that one formula fills; the
    ``records`` view reads them back as :class:`LatencyRecord` rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        delivered=st.lists(_DELIVERED, max_size=40),
        stages=st.integers(1, 5),
        link_delay=st.integers(1, 3),
    )
    def test_components_sum_and_keep_the_pipeline_floor(
        self, delivered, stages, link_delay
    ):
        rows = []
        for pid, src, dst, flits, hops, created, wait, lanes, extra, cls in (
            delivered
        ):
            injected = created + wait
            minimum = (stages - 1 + link_delay) * hops + stages - 1
            rows.append((pid, src, dst, flits, hops, created, injected,
                         lanes, injected + minimum + extra, cls))
        columns = [list(column) for column in zip(*rows)] or [[]] * 10
        stats = NetworkStats(4, 64)
        stats.record_completions(*columns, stages, link_delay)
        # building each row runs LatencyRecord's sum check
        records = list(stats.records)
        assert len(records) == len(stats.records) == len(rows)
        for row, record in zip(rows, records):
            pid, src, dst, flits, hops, created, injected, lanes, received, cls = (
                row
            )
            assert (record.packet_id, record.src, record.dst,
                    record.num_flits, record.hops, record.packet_class) == (
                pid, src, dst, flits, hops, cls)
            assert record.total == received - created
            assert record.queuing == injected - created
            # the zero-load bound: pipeline and links per hop, plus the
            # tail's serialization over the narrowest link (one lane when
            # unknown); a packet that beats it is all transfer, never less
            # than the per-hop floor
            floor = (stages - 1 + link_delay) * hops + stages - 1
            bound = floor + -(-(flits - 1) // (lanes if lanes > 0 else 1))
            assert record.blocking >= 0
            if record.blocking:
                assert record.transfer == bound
            else:
                assert floor <= record.transfer <= bound
                assert record.transfer == min(bound, received - injected)
        assert [stats.records[i] for i in range(len(rows))] == records
        assert stats.records[1:] == records[1:]
        assert bool(stats.records) == bool(rows)
        assert (stats.packets_delivered, stats.flits_delivered) == (
            len(rows), sum(row[3] for row in rows),
        )
        # min_lanes of None reads as any other unknown width
        unknown = NetworkStats(4, 64)
        columns[7] = [lanes if lanes > 0 else None for lanes in columns[7]]
        unknown.record_completions(*columns, stages, link_delay)
        assert list(unknown.records) == records
        # NaN != NaN on an empty sample: compare the printed form
        restored = pickle.loads(pickle.dumps(stats))
        assert list(restored.records) == records
        assert repr(restored.summary()) == repr(stats.summary())

    def test_view_checks_a_doctored_column(self):
        stats = _record_totals(NetworkStats(4, 4), [20, 30])
        stats.records.total[1] += 1
        assert stats.records[0].total == 20
        with pytest.raises(ValueError, match="must sum to the total"):
            stats.records[1]
        with pytest.raises(ValueError, match="must sum to the total"):
            list(stats.records)

    def test_view_has_no_sequence_mutators(self):
        stats = _record_totals(NetworkStats(4, 4), [20])
        with pytest.raises(TypeError):
            stats.records[0] = _record(packet_id=9)
        assert not hasattr(stats.records, "append")
        assert stats.records[-1] == _record()

    def test_a_packet_faster_than_the_pipeline_is_refused(self):
        # 4 hops of 3-stage routers and 1-cycle links: 14 cycles at least
        fields = [[7], [0], [5], [6], [4], [0], [2], [1], [2 + 13], ["data"]]
        stats = NetworkStats(4, 4)
        with pytest.raises(RuntimeError, match="packet 7 beat the per-hop"):
            stats.record_completions(*fields, 3, 1)
        assert not stats.records and stats.packets_delivered == 0
        # at the bound the whole in-network time is transfer
        fields[8] = [2 + 14]
        stats.record_completions(*fields, 3, 1)
        record = stats.records[0]
        assert (record.total, record.queuing, record.transfer,
                record.blocking) == (16, 2, 14, 0)


class TestStatisticalProperties:
    """Property-style invariants under random traffic."""

    @staticmethod
    def _run(seed: int, rate: float):
        network = build_network(baseline_layout(4))
        result = run_synthetic(
            network, UniformRandom(16), rate=rate,
            warmup_packets=20, measure_packets=80, seed=seed,
            drain_cycle_cap=30_000,
        )
        return network, result

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.floats(min_value=0.01, max_value=0.10),
    )
    def test_latency_decomposition_invariant(self, seed, rate):
        _, result = self._run(seed, rate)
        assert result.stats.records
        for record in result.stats.records:
            assert record.total == (
                record.queuing + record.transfer + record.blocking
            )
            assert record.queuing >= 0
            assert record.transfer > 0
            assert record.blocking >= 0
            assert record.hops >= 0

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.floats(min_value=0.01, max_value=0.10),
    )
    def test_utilization_bounds(self, seed, rate):
        network, result = self._run(seed, rate)
        stats = result.stats
        for router in range(network.topology.num_routers):
            assert 0.0 <= stats.buffer_utilization(router) <= 1.0
        for router, port in stats.link_lanes:
            assert 0.0 <= stats.link_utilization(router, port) <= 1.0
        for router in range(network.topology.num_routers):
            n_ports = network.topology.num_ports(router)
            assert 0.0 <= stats.router_link_utilization(router, n_ports) <= 1.0
