"""Attribution correctness: exact link/pair counts and flit conservation.

The hand-built cases pin the per-link accounting to the X-Y route by
construction: a packet from router 0 to router 3 on a 4x4 mesh crosses
exactly the three east links (0,east), (1,east), (2,east) with all its
flits, and nothing else.  The hypothesis property then checks the global
invariant on random traffic: once the network drains, total link-flit
crossings equal ``sum(num_flits * hops)`` over delivered packets exactly.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.layouts import build_network, layout_by_name
from repro.noc.topology import manhattan_distance
from repro.obs.attribution import (
    AttributionReport,
    attribute_metrics,
    port_name,
)
from repro.obs.metrics import KernelMetrics

EAST, SOUTH = 2, 3  # mesh port indices (1 + direction)


def _instrumented(size=4):
    net = build_network(layout_by_name("baseline", size))
    metrics = KernelMetrics(net)
    net.attach_observer(metrics)
    return net, metrics


def _send(net, src, dst, num_flits):
    packet = net.make_packet(src, dst)
    packet.num_flits = num_flits
    net.enqueue(packet)
    return packet


class TestHandBuiltRoutes:
    def test_single_row_packet_touches_exactly_its_east_links(self):
        net, metrics = _instrumented()
        _send(net, 0, 3, num_flits=5)
        net.drain()
        assert metrics.link_flits() == {
            (0, EAST): 5, (1, EAST): 5, (2, EAST): 5,
        }
        assert metrics.pair_flits() == {(0, 3): 5}
        assert metrics.pair_packets() == {(0, 3): 1}
        assert metrics.conserved  # 15 crossings == 5 flits x 3 hops

    def test_corner_to_corner_goes_x_then_y(self):
        net, metrics = _instrumented()
        _send(net, 0, 15, num_flits=2)
        net.drain()
        # X first along row 0 (0->1->2->3), then Y down column 3.
        assert metrics.link_flits() == {
            (0, EAST): 2, (1, EAST): 2, (2, EAST): 2,
            (3, SOUTH): 2, (7, SOUTH): 2, (11, SOUTH): 2,
        }
        assert metrics.conserved

    def test_overlapping_packets_sum_per_link(self):
        net, metrics = _instrumented()
        _send(net, 0, 3, num_flits=4)
        _send(net, 1, 3, num_flits=3)
        net.drain()
        assert metrics.link_flits() == {
            (0, EAST): 4, (1, EAST): 7, (2, EAST): 7,
        }
        assert metrics.pair_flits() == {(0, 3): 4, (1, 3): 3}

    def test_report_views_match_the_construction(self):
        net, metrics = _instrumented()
        _send(net, 0, 3, num_flits=4)
        _send(net, 1, 3, num_flits=3)
        net.drain()
        report = attribute_metrics(metrics)
        assert (report.width, report.height) == (4, 4)
        assert report.source == "metrics"
        assert report.conserved is True
        assert report.router_outgoing_flits() == {0: 4, 1: 7, 2: 7}
        grid = report.router_grid()
        assert len(grid) == 4 and all(len(row) == 4 for row in grid)
        assert grid[0] == [4, 7, 7, 0]
        assert all(cell == 0 for row in grid[1:] for cell in row)
        top = report.top_links(2)
        assert [(t["router"], t["port"], t["flits"]) for t in top] == [
            (1, EAST, 7), (2, EAST, 7),
        ]
        assert top[0]["direction"] == "east"
        assert report.top_pairs(1) == [
            {"src": 0, "dst": 3, "flits": 4, "packets": 1}
        ]
        assert report.top_routers(1)[0]["router"] == 1

    def test_port_names(self):
        assert port_name(0) == "local"
        assert [port_name(p) for p in (1, 2, 3, 4)] == [
            "north", "east", "south", "west",
        ]
        assert port_name(9) == "port9"


class TestSerialization:
    def _report(self):
        net, metrics = _instrumented()
        _send(net, 0, 15, num_flits=3)
        _send(net, 5, 6, num_flits=2)
        net.drain()
        return attribute_metrics(metrics)

    def test_json_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "attr.json"
        report.write_json(path)
        loaded = AttributionReport.read_json(path)
        assert loaded.link_flits == report.link_flits
        assert loaded.link_busy == report.link_busy
        assert loaded.pair_flits == report.pair_flits
        assert loaded.pair_packets == report.pair_packets
        assert loaded.conserved is True
        assert loaded.router_grid() == report.router_grid()

    def test_csv_export(self, tmp_path):
        report = self._report()
        links = tmp_path / "links.csv"
        pairs = tmp_path / "pairs.csv"
        report.write_csv(links, pairs)
        header, *rows = links.read_text().strip().splitlines()
        assert header.startswith("src_router,src_port,direction,flits")
        assert len(rows) == len(report.link_flits)
        assert len(pairs.read_text().strip().splitlines()) == 3  # header + 2


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=2, max_value=5),
    n_packets=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=20, deadline=None)
def test_link_flit_conservation_property(seed, size, n_packets):
    """Injected == delivered x hops, exactly, on any drained run."""
    rng = random.Random(seed)
    net = build_network(layout_by_name("baseline", size))
    metrics = KernelMetrics(net)
    net.attach_observer(metrics)
    nodes = net.topology.num_nodes
    expected = 0
    for _ in range(n_packets):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        packet = _send(net, src, dst, rng.randint(1, 8))
        expected += packet.num_flits * manhattan_distance(
            net.topology, src, dst
        )
        if rng.random() < 0.5:
            net.step()
    net.drain(max_cycles=50_000)
    report = attribute_metrics(metrics)
    assert report.conserved is True
    assert report.link_flits_total == expected
    assert sum(report.link_flits.values()) == expected
