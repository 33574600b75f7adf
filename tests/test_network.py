"""Integration tests for the assembled network."""

import pytest

from repro.noc.config import NetworkConfig, RouterConfig, router_config
from repro.noc.network import Network
from repro.noc.topology import Mesh


def _uniform_network(size=4, vcs=3, **net_kwargs):
    topology = Mesh(size)
    configs = {r: RouterConfig(num_vcs=vcs) for r in range(topology.num_routers)}
    return Network(topology, configs, NetworkConfig(**net_kwargs))


def _send_one(network, src, dst, num_flits=None):
    packet = network.make_packet(src, dst)
    if num_flits is not None:
        packet.num_flits = num_flits
    packet.measured = True
    network.begin_measurement()
    network.enqueue(packet)
    network.drain(max_cycles=10_000)
    network.end_measurement()
    return packet


class TestConstruction:
    def test_requires_complete_config_map(self):
        topology = Mesh(4)
        with pytest.raises(ValueError):
            Network(topology, {0: router_config("baseline")})

    def test_requires_uniform_flit_width(self):
        topology = Mesh(4)
        configs = {r: router_config("baseline") for r in range(16)}
        configs[3] = router_config("small")  # 128 b flits
        with pytest.raises(ValueError):
            Network(topology, configs)

    def test_link_width_rule(self):
        topology = Mesh(4)
        configs = {r: router_config("small") for r in range(16)}
        configs[5] = router_config("big")
        network = Network(topology, configs)
        router5 = network.routers[5]
        # Every link touching the big router is wide (2 lanes).
        for port in range(1, 5):
            link = router5.out_links[port]
            if link is not None:
                assert link.lanes == 2
        # A small-small link elsewhere is narrow.
        link = network.routers[15].out_links[topology.direction_port(3)]
        assert link.lanes == 1

    def test_describe_mentions_kinds(self):
        topology = Mesh(4)
        configs = {r: router_config("small") for r in range(16)}
        configs[0] = router_config("big")
        text = Network(topology, configs).describe()
        assert "1 big" in text and "15 small" in text


class TestSinglePacketTiming:
    def test_one_hop_single_flit(self):
        network = _uniform_network()
        packet = _send_one(network, 0, 1, num_flits=1)
        # inject t0, SA t0+1, arrive t0+2, eject t0+3.
        assert packet.latency == 3
        assert packet.hops == 1

    def test_zero_load_transfer_matches_model(self):
        network = _uniform_network()
        packet = _send_one(network, 0, 15)  # 6 hops, 6 flits
        record = network.stats.records[0]
        assert record.blocking == 0
        assert record.queuing == 0
        assert record.total == record.transfer
        # hop cost 2 per hop + 1 ejection + 5 serialization.
        assert record.total == 2 * 6 + 1 + 5

    def test_hops_counted(self):
        network = _uniform_network()
        packet = _send_one(network, 0, 15)
        assert packet.hops == 6

    def test_same_router_delivery_not_possible_on_mesh(self):
        network = _uniform_network()
        # src == dst means ejection at the source router.
        packet = _send_one(network, 5, 5, num_flits=1)
        assert packet.hops == 0
        assert packet.latency == 1


class TestWormholeOrdering:
    def test_flits_arrive_in_order_and_contiguously(self):
        network = _uniform_network()
        arrivals = []
        original = network._complete_packet

        def spy(packet, cycle):
            arrivals.append((packet.packet_id, cycle))
            original(packet, cycle)

        network._complete_packet = spy
        for _ in range(5):
            network.enqueue(network.make_packet(0, 12))
        network.drain(max_cycles=10_000)
        assert len(arrivals) == 5
        # Packets from one source to one destination deliver in order.
        ids = [a[0] for a in arrivals]
        assert ids == sorted(ids)


class TestBackpressure:
    def test_drain_detects_stuck_network(self):
        network = _uniform_network()
        network.enqueue(network.make_packet(0, 15))
        with pytest.raises(RuntimeError):
            network.drain(max_cycles=2)

    def test_idle_initially(self):
        network = _uniform_network()
        assert network.idle()
        network.enqueue(network.make_packet(0, 1))
        assert not network.idle()


class TestMeasurementWindow:
    def test_activity_restricted_to_window(self):
        network = _uniform_network()
        # Pre-window traffic.
        network.enqueue(network.make_packet(0, 15))
        network.drain(max_cycles=10_000)
        network.begin_measurement()
        packet = network.make_packet(0, 15)
        packet.measured = True
        network.enqueue(packet)
        network.drain(max_cycles=10_000)
        network.end_measurement()
        writes = sum(a.buffer_writes for a in network.stats.router_activity)
        # Only the second packet's 6 flits x 7 routers are counted.
        assert writes == 6 * 7

    def test_end_without_begin_raises(self):
        network = _uniform_network()
        with pytest.raises(RuntimeError):
            network.end_measurement()

    def test_reset_stats_clears_records(self):
        network = _uniform_network()
        _send_one(network, 0, 3)
        assert network.stats.records
        network.reset_stats()
        assert not network.stats.records


class TestCreditConservation:
    def test_credits_restored_after_drain(self):
        network = _uniform_network()
        for i in range(12):
            network.enqueue(network.make_packet(i % 16, (i * 7 + 3) % 16))
        network.drain(max_cycles=20_000)
        for router in network.routers:
            assert router.occupied_flits == 0
            for port in range(router.num_ports):
                for vc, credits in enumerate(router.out_credits[port]):
                    assert credits == router._credit_ceiling[port], (
                        f"router {router.router_id} port {port} vc {vc}"
                    )
                for owner in router.out_vc_owner[port]:
                    assert owner is None
