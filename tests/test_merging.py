"""Tests for wide-link flit combining (Section 3.2/3.3)."""

from repro.core.layouts import layout_by_name, build_network
from repro.core.merging import merge_report, per_router_merge_counts
from repro.noc.config import NetworkConfig, router_config
from repro.noc.network import Network
from repro.noc.topology import Mesh
from repro.traffic.patterns import UniformRandom
from repro.traffic.runner import run_synthetic


def _all_big_network():
    """4x4 mesh of big routers: every link is wide (2 lanes)."""
    topology = Mesh(4)
    configs = {r: router_config("big") for r in range(16)}
    return Network(topology, configs, NetworkConfig())


class TestSamePacketMerging:
    def test_packet_pairs_flits_over_wide_path(self):
        network = _all_big_network()
        packet = network.make_packet(0, 3)  # 8 flits at 128 b
        packet.measured = True
        network.begin_measurement()
        network.enqueue(packet)
        network.drain(max_cycles=5_000)
        network.end_measurement()
        report = merge_report(network, network.stats)
        # Injection is two flits per cycle at a big router, so pairs form
        # and traverse the wide links together.
        assert report.merged_pairs > 0
        record = network.stats.records[0]
        # Serialization is halved: 3 hops * 2 + 1 + ceil(7/2).
        assert record.transfer == 2 * 3 + 1 + 4
        assert record.total == record.transfer  # zero load: no blocking

    def test_min_lanes_tracked(self):
        network = _all_big_network()
        packet = network.make_packet(0, 5)
        network.enqueue(packet)
        network.drain(max_cycles=5_000)
        assert packet.min_lanes == 2


class TestCrossPacketMerging:
    def test_two_packets_share_wide_output(self):
        # Two single-flit packets from different inputs converge on one
        # wide output port: SA's second arbiter should pair them.
        network = _all_big_network()
        network.begin_measurement()
        a = network.make_packet(1, 2, payload_bits=64)
        b = network.make_packet(5, 2, payload_bits=64)
        for packet in (a, b):
            packet.measured = True
            network.enqueue(packet)
        network.drain(max_cycles=5_000)
        network.end_measurement()
        # Whether a pair formed depends on arrival alignment; both must at
        # least have been delivered over wide links.
        report = merge_report(network, network.stats)
        assert report.wide_link_flits >= 2


class TestNoMergingOnNarrowLinks:
    def test_baseline_never_merges(self):
        layout = layout_by_name("baseline")
        network = build_network(layout)
        result = run_synthetic(
            network, UniformRandom(64), rate=0.03,
            warmup_packets=30, measure_packets=150, seed=2,
        )
        report = merge_report(network, result.stats)
        assert report.merged_pairs == 0
        assert report.wide_link_flits == 0
        assert report.merge_fraction == 0.0

    def test_plus_b_layouts_never_merge(self):
        network = build_network(layout_by_name("diagonal+B"))
        result = run_synthetic(
            network, UniformRandom(64), rate=0.03,
            warmup_packets=30, measure_packets=150, seed=2,
        )
        assert merge_report(network, result.stats).merged_pairs == 0


class TestMergeStatistics:
    def test_merge_fraction_rises_with_load(self):
        fractions = []
        for rate in (0.01, 0.05):
            network = build_network(layout_by_name("diagonal+BL"))
            result = run_synthetic(
                network, UniformRandom(64), rate=rate,
                warmup_packets=50, measure_packets=300, seed=4,
            )
            fractions.append(merge_report(network, result.stats).merge_fraction)
        assert fractions[1] > fractions[0]

    def test_paper_range_at_moderate_load(self):
        """Paper: ~40% combinable at low load, ~80% at moderate-high."""
        network = build_network(layout_by_name("diagonal+BL"))
        result = run_synthetic(
            network, UniformRandom(64), rate=0.05,
            warmup_packets=50, measure_packets=400, seed=4,
        )
        fraction = merge_report(network, result.stats).merge_fraction
        assert 0.2 <= fraction <= 0.95

    def test_per_router_counts_only_nonzero(self):
        network = build_network(layout_by_name("diagonal+BL"))
        result = run_synthetic(
            network, UniformRandom(64), rate=0.05,
            warmup_packets=50, measure_packets=200, seed=4,
        )
        counts = per_router_merge_counts(result.stats)
        assert counts
        assert all(v > 0 for v in counts.values())

    def test_credit_rule_two_credits_for_pair(self):
        """A merged same-VC pair consumes two credits at once (Section 3.2)."""
        network = _all_big_network()
        packet = network.make_packet(0, 1)
        network.enqueue(packet)
        # Step until the first pair leaves router 0; downstream credits for
        # the chosen VC must drop by 2 in one cycle.
        east = network.topology.direction_port(1)
        router0 = network.routers[0]
        baseline_credits = [list(router0.out_credits[east])]
        seen_double = False
        for _ in range(30):
            network.step()
            credits = list(router0.out_credits[east])
            drop = sum(b - c for b, c in zip(baseline_credits[-1], credits))
            if drop >= 2:
                seen_double = True
                break
            baseline_credits.append(credits)
        assert seen_double
