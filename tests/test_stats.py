"""Unit tests for statistics collection."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layouts import baseline_layout, build_network
from repro.noc.stats import (
    LatencyRecord,
    NetworkStats,
    RouterActivity,
    decompose_latency,
    decompose_latency_columns,
)
from repro.traffic.patterns import UniformRandom
from repro.traffic.runner import run_synthetic


def _record(packet_id=0, total=20, queuing=2, transfer=15, **kwargs):
    blocking = total - queuing - transfer
    return LatencyRecord(
        packet_id=packet_id,
        src=0,
        dst=5,
        num_flits=6,
        hops=4,
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
        assert record.blocking == 3


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
        stats = NetworkStats(num_routers=4, num_nodes=4)
        for i, total in enumerate(totals):
            stats.record_packet(_record(packet_id=i, total=total))
        return stats

    def test_mean_latency(self):
        stats = self._stats_with_records([20, 30, 40])
        assert stats.avg_latency_cycles == pytest.approx(30.0)

    def test_latency_components(self):
        stats = self._stats_with_records([20, 20])
        assert stats.avg_queuing_cycles == pytest.approx(2.0)
        assert stats.avg_transfer_cycles == pytest.approx(15.0)
        assert stats.avg_blocking_cycles == pytest.approx(3.0)
        assert stats.avg_network_latency_cycles == pytest.approx(18.0)

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

    def test_std(self):
        stats = self._stats_with_records([20, 40])
        assert stats.latency_std_cycles() == pytest.approx(10.0)

    def test_throughput_uses_window(self):
        stats = self._stats_with_records([20])
        stats.measured_cycles = 100
        stats.window_packet_deliveries = 40
        stats.window_flit_deliveries = 240
        assert stats.accepted_packets_per_node_per_cycle == pytest.approx(0.1)
        assert stats.accepted_flits_per_node_per_cycle == pytest.approx(0.6)

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
    """The sample is stored as columns; the per-packet path, the bulk
    path and the ``records`` view must be three readings of one thing."""

    @settings(max_examples=60, deadline=None)
    @given(
        delivered=st.lists(_DELIVERED, max_size=40),
        stages=st.integers(1, 5),
        link_delay=st.integers(1, 3),
    )
    def test_bulk_path_equals_per_packet_path(
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
        ids, srcs, dsts, flits, hops, created, injected, lanes, received, _ = (
            columns
        )

        scalar = [
            decompose_latency(r[0], r[3], r[4], r[5], r[6], r[7], r[8],
                              stages, link_delay)
            for r in rows
        ]
        by_column = decompose_latency_columns(
            ids, flits, hops, created, injected, lanes, received,
            stages, link_delay,
        )
        assert list(zip(*by_column)) == scalar
        # min_lanes of None reads as any other unknown width
        assert scalar == [
            decompose_latency(r[0], r[3], r[4], r[5], r[6],
                              r[7] if r[7] > 0 else None, r[8],
                              stages, link_delay)
            for r in rows
        ]

        per_packet, bulk = NetworkStats(4, 64), NetworkStats(4, 64)
        for row, parts in zip(rows, scalar):
            per_packet.record_packet(LatencyRecord(*row[:5], *parts, row[9]))
        bulk.record_completions(*columns, stages, link_delay)
        expected = list(per_packet.records)
        assert list(bulk.records) == expected
        assert [bulk.records[i] for i in range(len(rows))] == expected
        assert bulk.records[1:] == expected[1:]
        assert len(bulk.records) == len(rows)
        assert bool(bulk.records) == bool(rows)
        # NaN != NaN on an empty sample: compare the printed form
        assert repr(bulk.summary()) == repr(per_packet.summary())
        assert (bulk.packets_delivered, bulk.flits_delivered) == (
            per_packet.packets_delivered, per_packet.flits_delivered,
        )
        restored = pickle.loads(pickle.dumps(bulk))
        assert list(restored.records) == expected
        assert repr(restored.summary()) == repr(bulk.summary())

    def test_view_checks_a_doctored_column(self):
        stats = NetworkStats(4, 4)
        for i, total in enumerate([20, 30]):
            stats.record_packet(_record(packet_id=i, total=total))
        stats.records.total[1] += 1
        assert stats.records[0].total == 20
        with pytest.raises(ValueError, match="must sum to the total"):
            stats.records[1]
        with pytest.raises(ValueError, match="must sum to the total"):
            list(stats.records)

    def test_view_has_no_sequence_mutators(self):
        stats = NetworkStats(4, 4)
        stats.record_packet(_record())
        with pytest.raises(TypeError):
            stats.records[0] = _record(packet_id=9)
        assert not hasattr(stats.records, "append")
        assert stats.records[-1] == _record()

    def test_both_forms_refuse_a_packet_faster_than_the_pipeline(self):
        # 4 hops of 3-stage routers and 1-cycle links: 14 cycles at least
        fields = dict(packet_id=7, num_flits=6, hops=4, created_at=0,
                      injected_at=2, min_lanes=1, received_at=2 + 13)
        with pytest.raises(RuntimeError, match="packet 7 beat the per-hop"):
            decompose_latency(**fields, stages=3, link_delay=1)
        with pytest.raises(RuntimeError, match="packet 7 beat the per-hop"):
            decompose_latency_columns(
                **{name: [value] for name, value in fields.items()},
                stages=3, link_delay=1,
            )
        # at the bound the whole in-network time is transfer
        fields["received_at"] += 1
        assert decompose_latency(**fields, stages=3, link_delay=1) == (
            16, 2, 14, 0
        )


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
