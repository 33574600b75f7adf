"""Edge cases of the event-driven kernel's active-set scheduling.

The active sets (`Network._active_routers` / `_active_sources`) are
conservative supersets that are lazily pruned; these tests pin the
corner cases where a too-eager prune or a missing wake would silently
corrupt a run:

* a credit returning to a router *after* it drained (and was pruned)
  must still be applied -- credits are delivered from the event queue,
  not the active set;
* a source stalled mid-packet on a full VC must stay scheduled until
  the wormhole finishes injecting;
* a transient router fault that empties part of the mesh must not
  prevent traffic from re-activating the repaired router;
* the watchdog still observes every cycle (it runs unconditionally in
  the event kernel), so a wedged network is detected even when the
  active set goes quiet -- and a genuinely idle network never
  false-positives.
"""

import pytest

from repro.core.layouts import build_network, layout_by_name
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    SimulationStalled,
    Watchdog,
)
from repro.noc.config import RouterConfig
from repro.noc.network import Network
from repro.noc.routing import Routing
from repro.noc.topology import Mesh


def _settle(net, extra=None):
    """Run to idle, then keep stepping so in-flight credits land."""
    net.drain()
    for _ in range(extra if extra is not None else net.config.credit_delay + 8):
        net.step()


class TestDrainedRouterCredits:
    def test_late_credits_reach_pruned_routers(self):
        """A router is pruned the moment its buffers empty, which can be
        *before* the credits for its last forwarded flits return.  Those
        credit events must still be applied or the channel leaks."""
        net = build_network(layout_by_name("baseline", 3))
        # A long wormhole across the full diagonal touches many routers.
        net.enqueue(net.make_packet(0, 8, payload_bits=net.flit_width * 12))
        _settle(net)
        assert net.total_delivered == 1
        # Every router drained and was lazily pruned ...
        assert net._active_routers == set()
        assert net._active_sources == set()
        for router in net.routers:
            assert router.occupied_flits == 0
            # ... and every credit made it home, pruned or not.
            for port in range(router.num_ports):
                ceiling = router._credit_ceiling[port]
                if ceiling == 0:
                    continue
                for vc in range(router.out_vc_count[port]):
                    assert router.out_credits[port][vc] == ceiling, (
                        f"router {router.router_id} port {port} vc {vc} "
                        "leaked a credit after pruning"
                    )

    def test_idle_steps_are_cheap_and_stable(self):
        """Stepping an idle network keeps the active sets empty."""
        net = build_network(layout_by_name("baseline", 4))
        for _ in range(100):
            net.step()
        assert net._active_routers == set()
        assert net._active_sources == set()
        assert net.cycle == 100


class TestSourceStall:
    def test_source_stalled_mid_packet_stays_scheduled(self):
        """With tiny buffers a long packet cannot inject in one go; the
        stalled source must stay in the active set until the tail flit
        leaves, or the wormhole is truncated forever."""
        topo = Mesh(2)
        configs = {
            rid: RouterConfig(num_vcs=2, buffer_depth=2)
            for rid in range(topo.num_routers)
        }
        net = Network(topo, configs)
        net.enqueue(net.make_packet(0, 3, payload_bits=net.flit_width * 24))
        stalled_cycles = 0
        for _ in range(1_000):
            if net.idle():
                break
            net.step()
            source = net.sources[0]
            if source.mid_packet:
                assert 0 in net._active_sources, (
                    "source dropped from the active set mid-packet"
                )
                stalled_cycles += 1
        assert net.total_delivered == 1
        assert net.total_buffered_flits() == 0
        # The packet is far longer than the local buffering, so injection
        # necessarily spanned many cycles.
        assert stalled_cycles > 10


class TestFaultReactivation:
    def test_transient_router_fault_then_reactivation(self):
        """A drained (pruned) router revived by a fault repair must be
        re-activated by the first flit routed through it."""
        net = build_network(layout_by_name("baseline", 3))
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    kind="router", router=4, mode="transient",
                    at=60, repair_after=100,
                ),
            ),
            seed=1,
        )
        net.attach_faults(FaultInjector(schedule, net.topology))
        # Phase 1: route 3 -> 5 through the center router (X-first).
        net.enqueue(net.make_packet(3, 5))
        net.drain()
        assert net.total_delivered == 1
        # Let the lazy prune run: one more step iterates-and-discards.
        for _ in range(4):
            net.step()
        assert 4 not in net._active_routers
        # Phase 2: step through the fault window (apply at 60, repair at
        # 160) with no traffic -- the dead router must stay pruned.
        while net.cycle < 200:
            net.step()
        assert 4 not in net._active_routers
        # Phase 3: new traffic through the repaired router.
        net.enqueue(net.make_packet(3, 5))
        reactivated = False
        for _ in range(1_000):
            if net.idle():
                break
            net.step()
            reactivated = reactivated or 4 in net._active_routers
        assert reactivated, "repaired router never re-entered the active set"
        assert net.total_delivered == 2


class _ClockwiseRing(Routing):
    """Adversarial routing that forms a cyclic channel dependency on a
    2x2 mesh (same construction as tests/test_faults.py)."""

    ORDER = (0, 1, 3, 2)

    def __init__(self, topology):
        super().__init__(topology)
        self._port_to = {
            (src, dst): sport for src, sport, dst, _ in topology.channels()
        }

    def output_port(self, router, packet):
        dst_router = self.topology.router_of_node(packet.dst)
        if router == dst_router:
            return self.topology.local_port_of_node(packet.dst)
        here = self.ORDER.index(router)
        return self._port_to[(router, self.ORDER[(here + 1) % 4])]


class TestWatchdogUnderEventKernel:
    def _wedged_network(self):
        topo = Mesh(2)
        configs = {
            rid: RouterConfig(num_vcs=1, buffer_depth=2)
            for rid in range(topo.num_routers)
        }
        net = Network(topo, configs)
        net.routing = _ClockwiseRing(topo)
        for i in range(4):
            src = _ClockwiseRing.ORDER[i]
            dst = _ClockwiseRing.ORDER[(i + 3) % 4]
            net.enqueue(net.make_packet(src, dst, payload_bits=net.flit_width * 8))
        return net

    def test_deadlock_detected_by_event_kernel(self):
        """The watchdog runs every cycle regardless of the active set, so
        a cyclic wormhole wedge is still detected and diagnosed."""
        net = self._wedged_network()
        assert net.kernel == "event"
        net.attach_watchdog(Watchdog(stall_window=64, check_interval=16))
        with pytest.raises(SimulationStalled) as excinfo:
            for _ in range(5_000):
                net.step()
        assert excinfo.value.diagnosis.kind == "deadlock"
        assert excinfo.value.diagnosis.packets_in_flight == 4
        # The wedged routers hold flits, so they are *in* the active set:
        # the event kernel never pruned the evidence the diagnosis needs.
        assert net._active_routers == set(_ClockwiseRing.ORDER)

    def test_no_false_positive_on_idle_network(self):
        """An idle network (empty active set) resets the progress clocks;
        a tight stall window must not fire."""
        net = build_network(layout_by_name("baseline", 2))
        net.attach_watchdog(Watchdog(stall_window=32, check_interval=8))
        for _ in range(2_000):
            net.step()
        assert net.cycle == 2_000
