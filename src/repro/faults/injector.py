"""The fault injector: turns a declarative schedule into live breakage.

A :class:`FaultInjector` is attached to a network
(``Network.attach_faults``) and ticked at the top of every cycle.  It
maintains the *live* fault state the simulator core consults on its
fast paths:

``dead_routers``
    routers currently failed-stop;
``dead_ports``
    ``(router, port)`` endpoints of currently dead channels (both
    directions of a link fault; every incident channel of a dead
    router);
``stuck_vcs``
    ``(router, port, vc)`` input virtual channels that stopped
    arbitrating;
``flaky_ports``
    directed outputs whose traversing flits get payload bits flipped;
``degraded_ports``
    wide (two-lane) channel endpoints operating in narrow fallback.

``topology_epoch`` increments whenever the alive-channel graph changes,
which is what :class:`repro.faults.routing.FaultAwareRouting` keys its
distance-table cache on.

Loss semantics (fail-stop at packet granularity): when a channel or
router dies, every packet whose wormhole currently occupies the dead
element -- flits buffered there, flits on the dead wire, or a claimed
downstream VC across it -- is purged from the entire network, with
credits restored at every live router, and reported via
``Network.report_packet_lost``.  Packets whose destination became
unreachable (or whose source/destination router died) are purged the
same way, so the simulation never wedges on an impossible route.
Packets still waiting with an unclaimed route simply re-route.  The
network interface (:class:`repro.faults.retransmit.RetransmissionManager`)
decides whether a lost packet is retransmitted or declared dead.

All timing is deterministic: permanent and transient events come
straight off the schedule, and intermittent episodes draw their
Poisson inter-arrival gaps from per-spec RNGs seeded by
``(schedule.seed, spec index)``, so a fault schedule inside a
``SweepPoint`` caches and parallelizes like any other spec.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.schedule import FaultSchedule, FaultSpec

#: purge reasons reported to ``Network.report_packet_lost``
REASON_FAULT = "fault"
REASON_UNREACHABLE = "unreachable"


class FaultInjector:
    """Live fault state for one network, driven by a schedule."""

    def __init__(self, schedule: FaultSchedule, topology) -> None:
        self.schedule = schedule
        self.topology = topology
        self.dead_routers: Set[int] = set()
        self.dead_ports: Set[Tuple[int, int]] = set()
        self.stuck_vcs: Set[Tuple[int, int, int]] = set()
        self.flaky_ports: Set[Tuple[int, int]] = set()
        self.degraded_ports: Set[Tuple[int, int]] = set()
        self.topology_epoch = 0
        #: (cycle, "apply"|"repair", spec) log for diagnostics/tests
        self.events: List[Tuple[int, str, FaultSpec]] = []
        self._effects: Dict[Tuple, int] = {}
        self._rngs: Dict[int, random.Random] = {}
        # Timeline heap: (cycle, sequence, action, spec_index).
        self._timeline: List[Tuple[int, int, str, int]] = []
        self._seq = 0
        self._routing = None
        self._validate_specs()
        for index, spec in enumerate(schedule.specs):
            if spec.mode == "permanent":
                self._push(spec.at, "apply", index)
            elif spec.mode == "transient":
                self._push(spec.at, "apply", index)
                self._push(spec.at + spec.repair_after, "repair", index)
            else:  # intermittent: draw the first episode lazily-deterministic
                rng = random.Random(schedule.seed * 1_000_003 + index)
                self._rngs[index] = rng
                self._push(spec.at + self._gap(rng, spec), "apply", index)

    # -- construction helpers --------------------------------------------------
    def _validate_specs(self) -> None:
        topo = self.topology
        for spec in self.schedule.specs:
            if spec.router >= topo.num_routers:
                raise ValueError(
                    f"fault targets router {spec.router} but the topology "
                    f"has {topo.num_routers}"
                )
            if spec.port is not None:
                if spec.port >= topo.num_ports(spec.router):
                    raise ValueError(
                        f"fault targets port {spec.port} of router "
                        f"{spec.router}, which has "
                        f"{topo.num_ports(spec.router)} ports"
                    )
                if topo.is_local_port(spec.router, spec.port):
                    raise ValueError(
                        f"fault targets local port {spec.port} of router "
                        f"{spec.router}; only network channels can fault"
                    )
                if topo.neighbor(spec.router, spec.port) is None:
                    raise ValueError(
                        f"fault targets unconnected port {spec.port} of "
                        f"router {spec.router}"
                    )

    def _push(self, cycle: int, action: str, index: int) -> None:
        heapq.heappush(self._timeline, (cycle, self._seq, action, index))
        self._seq += 1

    @staticmethod
    def _gap(rng: random.Random, spec: FaultSpec) -> int:
        """One Poisson inter-episode gap, at least one cycle."""
        return max(1, round(rng.expovariate(spec.rate)))

    def set_routing(self, routing) -> None:
        """Give the injector the fault-aware routing for reachability."""
        self._routing = routing

    # -- queries used on simulator fast paths ---------------------------------
    def any_dead(self) -> bool:
        return bool(self.dead_routers or self.dead_ports)

    def port_dead(self, router: int, port: int) -> bool:
        return (router, port) in self.dead_ports

    def reachable(self, src_router: int, dst_router: int) -> bool:
        """Alive-path reachability (true when routing has no fault view)."""
        if self._routing is None:
            return (
                src_router not in self.dead_routers
                and dst_router not in self.dead_routers
            )
        return self._routing.reachable(src_router, dst_router)

    def next_event_cycle(self) -> Optional[int]:
        return self._timeline[0][0] if self._timeline else None

    # -- per-cycle drive -------------------------------------------------------
    def tick(self, network, cycle: int) -> None:
        """Apply/repair every fault event due at ``cycle``."""
        topo_changed = False
        revived: List[Tuple[int, int]] = []
        while self._timeline and self._timeline[0][0] <= cycle:
            when, _seq, action, index = heapq.heappop(self._timeline)
            spec = self.schedule.specs[index]
            if action == "apply":
                topo_changed |= self._apply(spec)
                self.events.append((cycle, "apply", spec))
                if spec.mode == "intermittent":
                    self._push(when + spec.duration, "repair", index)
            else:
                topo_changed |= self._repair(spec, revived)
                self.events.append((cycle, "repair", spec))
                if spec.mode == "intermittent":
                    rng = self._rngs[index]
                    self._push(when + self._gap(rng, spec), "apply", index)
        if topo_changed:
            self.topology_epoch += 1
            self._purge_casualties(network, cycle)
        if revived:
            # Credits discarded while an element was dead are restored
            # here, so a repaired channel runs at full depth again (and
            # the conservation invariant holds on it once more).
            network.reconcile_channel_credits(revived)

    # -- fault effects ---------------------------------------------------------
    def _spec_effects(self, spec: FaultSpec) -> List[Tuple]:
        """Atomic live-state effects of one spec (refcounted)."""
        topo = self.topology
        if spec.kind == "router":
            effects: List[Tuple] = [("router", spec.router)]
            for port in range(topo.num_ports(spec.router)):
                neighbor = topo.neighbor(spec.router, port)
                if neighbor is None:
                    continue
                effects.append(("port", spec.router, port))
                effects.append(("port", neighbor[0], neighbor[1]))
            return effects
        neighbor = topo.neighbor(spec.router, spec.port)
        if spec.kind == "link":
            return [
                ("port", spec.router, spec.port),
                ("port", neighbor[0], neighbor[1]),
            ]
        if spec.kind == "vc_stuck":
            return [("vc", spec.router, spec.port, spec.vc)]
        if spec.kind == "bit_flip":
            return [("flaky", spec.router, spec.port)]
        # link_degrade: both directions fall back to one lane.
        return [
            ("degraded", spec.router, spec.port),
            ("degraded", neighbor[0], neighbor[1]),
        ]

    _SETS = {
        "router": "dead_routers",
        "port": "dead_ports",
        "vc": "stuck_vcs",
        "flaky": "flaky_ports",
        "degraded": "degraded_ports",
    }

    def _apply(self, spec: FaultSpec) -> bool:
        """Raise refcounts; returns True when the alive graph changed."""
        changed = False
        for effect in self._spec_effects(spec):
            count = self._effects.get(effect, 0)
            self._effects[effect] = count + 1
            if count == 0:
                live: Set = getattr(self, self._SETS[effect[0]])
                key = effect[1] if effect[0] == "router" else effect[1:]
                live.add(key)
                if effect[0] in ("router", "port"):
                    changed = True
        return changed

    def _repair(
        self, spec: FaultSpec, revived: Optional[List[Tuple[int, int]]] = None
    ) -> bool:
        changed = False
        for effect in self._spec_effects(spec):
            count = self._effects[effect] - 1
            self._effects[effect] = count
            if count == 0:
                live: Set = getattr(self, self._SETS[effect[0]])
                key = effect[1] if effect[0] == "router" else effect[1:]
                live.discard(key)
                if effect[0] in ("router", "port"):
                    changed = True
                    if effect[0] == "port" and revived is not None:
                        revived.append(key)
        return changed

    # -- casualty collection ---------------------------------------------------
    def _purge_casualties(self, network, cycle: int) -> None:
        """Purge every packet damaged or stranded by a topology change."""
        topo = self.topology
        dead_r = self.dead_routers
        dead_p = self.dead_ports
        casualties: Dict[int, Tuple[object, str]] = {}

        def condemn(packet, reason: str) -> None:
            casualties.setdefault(packet.packet_id, (packet, reason))

        # Flits buffered in routers (and routing claims across dead links).
        for router in network.routers:
            rid = router.router_id
            router_dead = rid in dead_r
            for (port, vc) in list(router._active):
                state = router._vc_states[port][vc]
                port_dead = (rid, port) in dead_p
                for flit in state.queue:
                    packet = flit.packet
                    if router_dead or port_dead:
                        condemn(packet, REASON_FAULT)
                    elif topo.router_of_node(packet.dst) in dead_r:
                        condemn(packet, REASON_UNREACHABLE)
                    elif not self.reachable(
                        rid, topo.router_of_node(packet.dst)
                    ):
                        condemn(packet, REASON_UNREACHABLE)
                if (
                    not router_dead
                    and state.out_vc is not None
                    and state.out_vc >= 0
                    and state.queue
                    and (rid, state.route_port) in dead_p
                ):
                    # Wormhole committed across a now-dead channel.
                    condemn(state.queue[0].packet, REASON_FAULT)
        # Flits on the wire.
        for events in network._arrivals.values():
            for router_id, port, _vc, flit in events:
                if router_id in dead_r or (router_id, port) in dead_p:
                    condemn(flit.packet, REASON_FAULT)
                elif not self.reachable(
                    router_id, topo.router_of_node(flit.packet.dst)
                ):
                    condemn(flit.packet, REASON_UNREACHABLE)
        # Source-side packets (queued or mid-injection).
        for node, source in enumerate(network.sources):
            if not source.queue and not source.mid_packet:
                continue
            src_router = topo.router_of_node(node)
            packets = list(source.queue)
            if source.mid_packet:
                packets.append(source.flits[0].packet)
            for packet in packets:
                dst_router = topo.router_of_node(packet.dst)
                if src_router in dead_r or dst_router in dead_r:
                    condemn(packet, REASON_UNREACHABLE)
                elif not self.reachable(src_router, dst_router):
                    condemn(packet, REASON_UNREACHABLE)

        for packet, reason in casualties.values():
            network.purge_packet(packet)
            network.report_packet_lost(packet, reason, cycle)
