"""Unit tests for the router microarchitecture.

These manipulate a single router directly (with hand-wired outputs) to
check buffer write/credit bookkeeping, lazy route computation, VC
allocation and the switch-allocation eligibility rules in isolation from
the network.
"""

import pytest

from repro.noc.config import NetworkConfig, RouterConfig
from repro.noc.flit import Packet
from repro.noc.link import Link, link_width_between
from repro.noc.network import Network
from repro.noc.router import Router
from repro.noc.topology import Mesh


def _standalone(num_vcs=3, depth=3):
    """A router with 5 ports; port 0 local, others wired to dummies."""
    config = RouterConfig(num_vcs=num_vcs, buffer_depth=depth)
    router = Router(
        router_id=0,
        config=config,
        num_ports=5,
        local_ports=[0],
        network_config=NetworkConfig(),
    )
    for port in range(5):
        if port == 0:
            router.attach_output(port, None, 0, 0)
        else:
            link = Link(
                src_router=0, src_port=port, dst_router=1, dst_port=port,
                width_bits=config.link_width, flit_width_bits=config.flit_width,
            )
            router.attach_output(port, link, num_vcs, depth)
    return router


def _flit(src=0, dst=1, num_flits=1):
    return Packet(src=src, dst=dst, num_flits=num_flits, created_at=0).make_flits()


class TestBufferWrite:
    def test_write_sets_ready_cycle(self):
        router = _standalone()
        (flit,) = _flit()
        router.write_flit(1, 0, flit, cycle=10)
        assert flit.ready_at == 11  # 2-stage pipeline: eligible next cycle
        assert router.occupied_flits == 1
        assert router.activity.buffer_writes == 1

    def test_overflow_detected(self):
        router = _standalone(depth=2)
        flits = _flit(num_flits=3)
        router.write_flit(1, 0, flits[0], 0)
        router.write_flit(1, 0, flits[1], 0)
        with pytest.raises(RuntimeError):
            router.write_flit(1, 0, flits[2], 0)

    def test_free_slots(self):
        router = _standalone(depth=3)
        assert router.free_slots(1, 0) == 3
        (flit,) = _flit()
        router.write_flit(1, 0, flit, 0)
        assert router.free_slots(1, 0) == 2

    def test_input_vc_free_logic(self):
        router = _standalone()
        assert router.input_vc_free(0, 0)
        (flit,) = _flit()
        router.write_flit(0, 0, flit, 0)
        assert not router.input_vc_free(0, 0)


class TestCredits:
    def test_return_credit_bounded(self):
        router = _standalone(depth=3)
        router.out_credits[1][0] = 2
        router.return_credit(1, 0)
        assert router.out_credits[1][0] == 3
        with pytest.raises(RuntimeError):
            router.return_credit(1, 0)  # above the downstream depth

    def test_release_vc(self):
        router = _standalone()
        router.out_vc_owner[1][0] = 42
        router.release_vc(1, 0)
        assert router.out_vc_owner[1][0] is None


class TestWormholeProtocolChecks:
    def test_body_flit_without_head_rejected(self):
        network = Network(
            Mesh(2),
            {r: RouterConfig() for r in range(4)},
            NetworkConfig(),
        )
        router = network.routers[0]
        flits = _flit(src=0, dst=1, num_flits=3)
        # Write a body flit with no preceding head into an empty VC.
        router.write_flit(0, 0, flits[1], 0)
        with pytest.raises(RuntimeError):
            router.allocate_vcs(network.routing, 1)


class TestLinkWidthRule:
    def test_wider_endpoint_wins(self):
        from repro.noc.config import router_config

        base, small, big = (router_config(k) for k in ("baseline", "small", "big"))
        assert link_width_between(small, small) == 128
        assert link_width_between(small, big) == 256
        assert link_width_between(big, big) == 256
        assert link_width_between(base, base) == 192

    def test_link_validation(self):
        with pytest.raises(ValueError):
            Link(0, 1, 1, 1, width_bits=64, flit_width_bits=128)
        with pytest.raises(ValueError):
            Link(0, 1, 1, 1, width_bits=128, flit_width_bits=128, delay=0)


class TestSwitchAllocationThroughNetwork:
    """SA behaviours that need real routing: via a 2x2 network."""

    @staticmethod
    def _network():
        return Network(
            Mesh(2), {r: RouterConfig(num_vcs=2) for r in range(4)}, NetworkConfig()
        )

    def test_flit_not_eligible_before_ready(self):
        network = self._network()
        router = network.routers[0]
        packet = network.make_packet(0, 1)
        packet.num_flits = 1
        (flit,) = packet.make_flits()
        router.write_flit(0, 0, flit, cycle=0)
        router.allocate_vcs(network.routing, 0)
        assert router.allocate_switch(0) == []  # stage 1 not finished
        router.allocate_vcs(network.routing, 1)
        grants = router.allocate_switch(1)
        assert len(grants) == 1
        assert grants[0].out_port == network.topology.direction_port(1)  # east

    def test_grant_consumes_credit_and_holds_vc(self):
        network = self._network()
        router = network.routers[0]
        packet = network.make_packet(0, 1)
        packet.num_flits = 2
        head, tail = packet.make_flits()
        router.write_flit(0, 0, head, 0)
        router.write_flit(0, 0, tail, 0)
        router.allocate_vcs(network.routing, 1)
        grants = router.allocate_switch(1)
        router.commit_grant(grants[0])
        out_port, out_vc = grants[0].out_port, grants[0].out_vc
        assert router.out_credits[out_port][out_vc] == 4  # depth 5 - 1
        assert router.out_vc_owner[out_port][out_vc] == packet.packet_id
        # Tail departs next round; the VC is still held (conservative
        # reallocation: released only when the tail drains downstream).
        router.allocate_vcs(network.routing, 2)
        grants = router.allocate_switch(2)
        router.commit_grant(grants[0])
        assert router.out_vc_owner[out_port][out_vc] == packet.packet_id

    def test_two_packets_different_vcs_share_link(self):
        network = self._network()
        router = network.routers[0]
        for _ in range(2):
            packet = network.make_packet(0, 1)
            packet.num_flits = 1
            (flit,) = packet.make_flits()
            vc = 0 if router.input_vc_free(0, 0) else 1
            router.write_flit(0, vc, flit, 0)
        router.allocate_vcs(network.routing, 1)
        # Narrow output: only one flit per cycle despite two eligible VCs.
        grants = router.allocate_switch(1)
        assert len(grants) == 1
