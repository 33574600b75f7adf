"""The two-stage pipelined wormhole router.

Pipeline model (Section 4, after Peh & Dally):

* **stage 1** -- buffer write (BW) and route computation (RC): an arriving
  flit is written into its input virtual channel; the head flit's output
  port is computed.
* **stage 2** -- virtual-channel allocation (VA), switch allocation (SA) and
  switch traversal (ST): the head flit claims a downstream VC, flits at the
  heads of their queues bid for the crossbar, and winners traverse onto the
  output links.

A flit written in cycle ``t`` therefore becomes eligible for stage 2 in
cycle ``t + 1`` and, winning immediately, reaches the next router's buffer
in cycle ``t + 1 + link_delay``.

HeteroNoC additions (Section 3): output ports whose link is wide (two
lanes) may grant *two* flits per cycle -- the second supplied by a parallel
output arbiter -- provided credits exist for both.  The pair may be
(a) two VCs of one input port, (b) VCs of two different input ports, or the
straightforward continuation case of two consecutive flits of the same
packet (which needs two credits in one downstream VC, exactly the modified
credit rule of Section 3.2).

Flow control is credit-based: the upstream router holds one credit per
downstream buffer slot, consumed on ST and returned (after
``credit_delay``) when the downstream router forwards the flit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.noc.arbiters import TwoStageAllocator
from repro.noc.config import NetworkConfig, RouterConfig
from repro.noc.flit import Flit
from repro.noc.link import Link
from repro.noc.routing import Routing
from repro.noc.stats import RouterActivity


class _VCState:
    """Per-input-VC bookkeeping (the head-of-queue packet's routing state)."""

    __slots__ = ("queue", "packet_id", "route_port", "out_vc")

    def __init__(self) -> None:
        self.queue: Deque[Flit] = deque()
        self.packet_id: Optional[int] = None
        self.route_port: Optional[int] = None
        self.out_vc: Optional[int] = None

    def reset_packet(self) -> None:
        self.packet_id = None
        self.route_port = None
        self.out_vc = None


class Grant:
    """One switch-traversal decision for the current cycle.

    A plain ``__slots__`` record rather than a dataclass: millions are
    created per run, so per-instance dict elimination and a hand-written
    ``__init__`` are measurable wins on the SA/ST hot path.
    """

    __slots__ = ("in_port", "in_vc", "flit", "out_port", "out_vc", "merged")

    def __init__(
        self,
        in_port: int,
        in_vc: int,
        flit: Flit,
        out_port: int,
        out_vc: Optional[int],  # None for ejection ports
        merged: bool = False,  # True for the second flit of a wide-link pair
    ) -> None:
        self.in_port = in_port
        self.in_vc = in_vc
        self.flit = flit
        self.out_port = out_port
        self.out_vc = out_vc
        self.merged = merged

    def __repr__(self) -> str:
        return (
            f"Grant(in_port={self.in_port}, in_vc={self.in_vc}, "
            f"flit={self.flit!r}, out_port={self.out_port}, "
            f"out_vc={self.out_vc}, merged={self.merged})"
        )


# Shared immutable sentinels so the all-idle SA path allocates nothing.
_NO_VCS: List[int] = []
_NO_GRANTS: List[Grant] = []


class Router:
    """One router instance; the network drives its per-cycle phases."""

    def __init__(
        self,
        router_id: int,
        config: RouterConfig,
        num_ports: int,
        local_ports: Sequence[int],
        network_config: NetworkConfig,
        activity: Optional[RouterActivity] = None,
    ) -> None:
        self.router_id = router_id
        self.config = config
        self.num_ports = num_ports
        self.local_ports = frozenset(local_ports)
        self.network_config = network_config
        vcs = config.num_vcs
        self._vc_states = [
            [_VCState() for _ in range(vcs)] for _ in range(num_ports)
        ]
        # Output-side state, filled in by the network once links exist:
        self.out_links: List[Optional[Link]] = [None] * num_ports
        self.out_vc_count: List[int] = [0] * num_ports
        self.out_credits: List[List[int]] = [[] for _ in range(num_ports)]
        self.out_vc_owner: List[List[Optional[int]]] = [
            [] for _ in range(num_ports)
        ]
        self.is_ejection: List[bool] = [
            port in self.local_ports for port in range(num_ports)
        ]
        self.allocator = TwoStageAllocator(num_ports, [vcs] * num_ports)
        # A network passes the counters it owns (see Network.routers).
        if activity is None:
            activity = RouterActivity(
                buffer_capacity_flits=vcs * num_ports * config.buffer_depth
            )
        self.activity = activity
        # Hot-path constants hoisted out of the per-cycle loops.
        self.num_vcs = vcs
        self._pipeline_offset = network_config.router_pipeline_stages - 1
        self._merging = network_config.flit_merging
        # Lanes usable on injection/ejection at this router's local ports.
        self._local_lanes = config.lanes if network_config.flit_merging else 1
        # Static per-port lane count (link width / flit width; ejection uses
        # the router's own lane provisioning).
        self._static_lanes: List[int] = [0] * num_ports
        # Precomputed routing tables, installed by the owning Network when
        # the routing discipline is a pure function of (router, dest).
        # _route_table[dst] -> output port; _va_table[out_port] -> the
        # default VA candidate tuple list.  Both None => dynamic lookups.
        self._route_table: Optional[List[int]] = None
        self._va_table: Optional[List[Tuple[Tuple[int, int, bool], ...]]] = None
        self.occupied_flits = 0
        # Number of non-empty VCs per input port (fast-path SA skip).
        self._port_active: List[int] = [0] * num_ports
        # Per-port maximum credit level (downstream buffer depth).
        self._credit_ceiling: List[int] = [0] * num_ports
        # Insertion-ordered set of (port, vc) with at least one buffered flit.
        self._active: Dict[Tuple[int, int], bool] = {}
        # Rotating offset for VA fairness across input VCs.
        self._va_offset = 0
        # Observation hooks, shared with the owning network (see
        # Network.attach_observer); None keeps the fast path.
        self.obs = None
        # Live fault state, shared with the owning network (see
        # Network.attach_faults); None keeps the fast path -- same
        # single-attribute-check discipline as ``obs``.
        self.faults = None

    # -- wiring (called by the network while building) ----------------------
    def attach_output(self, port: int, link: Optional[Link],
                      downstream_vcs: int, downstream_depth: int) -> None:
        """Configure an output port's link and downstream credit state."""
        self.out_links[port] = link
        self.out_vc_count[port] = downstream_vcs
        self.out_credits[port] = [downstream_depth] * downstream_vcs
        self.out_vc_owner[port] = [None] * downstream_vcs
        self._credit_ceiling[port] = downstream_depth
        if link is not None:
            self._static_lanes[port] = link.lanes
        elif self.is_ejection[port]:
            self._static_lanes[port] = self.config.lanes

    def set_routing_tables(
        self,
        route_table: Optional[List[int]],
        va_table: Optional[List[Tuple[Tuple[int, int, bool], ...]]],
    ) -> None:
        """Install (or clear, with ``None``) precomputed RC/VA tables."""
        self._route_table = route_table
        self._va_table = va_table

    # -- stage 1: buffer write ----------------------------------------------
    def write_flit(self, port: int, vc: int, flit: Flit, cycle: int) -> None:
        """BW: store an arriving (or injected) flit; it is SA-eligible next
        cycle (the second pipeline stage)."""
        state = self._vc_states[port][vc]
        if len(state.queue) >= self.config.buffer_depth:
            raise RuntimeError(
                f"buffer overflow at router {self.router_id} "
                f"port {port} vc {vc}: credit protocol violated"
            )
        flit.ready_at = cycle + self._pipeline_offset
        state.queue.append(flit)
        if (port, vc) not in self._active:
            self._active[(port, vc)] = True
            self._port_active[port] += 1
        self.occupied_flits += 1
        self.activity.buffer_writes += 1

    def free_slots(self, port: int, vc: int) -> int:
        """Remaining buffer capacity of an input VC (used for injection)."""
        return self.config.buffer_depth - len(self._vc_states[port][vc].queue)

    # -- stage 2a: route computation + VC allocation -------------------------
    def allocate_vcs(self, routing: Routing, cycle: int) -> None:
        """RC for new head-of-queue packets, then VA for head flits.

        RC is logically part of stage 1 but is performed lazily when a head
        flit reaches the front of its queue (equivalent for a FIFO VC, and
        it handles back-to-back packets sharing a VC correctly).
        """
        active = list(self._active.keys())
        count = len(active)
        offset = self._va_offset % max(1, count)
        self._va_offset += 1
        if offset:
            # Rotate once by slicing instead of taking a modulo per element.
            active = active[offset:] + active[:offset]
        obs = self.obs
        faults = self.faults
        router_id = self.router_id
        vc_states = self._vc_states
        is_ejection = self.is_ejection
        out_vc_owner = self.out_vc_owner
        activity = self.activity
        route_table = self._route_table
        va_table = self._va_table
        for port, vc in active:
            state = vc_states[port][vc]
            queue = state.queue
            if not queue:
                continue
            flit = queue[0]
            packet = flit.packet
            if state.packet_id != packet.packet_id:
                if not flit.is_head:
                    raise RuntimeError(
                        f"wormhole violation at router {router_id}: "
                        f"body flit of packet {packet.packet_id} at queue "
                        "head without its head flit"
                    )
                state.packet_id = packet.packet_id
                if route_table is not None:
                    state.route_port = route_table[packet.dst]
                else:
                    state.route_port = routing.output_port(router_id, packet)
                state.out_vc = None
                activity.route_computations += 1
            if (
                faults is not None
                and state.out_vc is None
                and flit.is_head
                and faults.port_dead(router_id, state.route_port)
            ):
                # The routed channel died before the wormhole committed:
                # re-run RC (the fault-aware routing detours around it).
                state.route_port = routing.output_port(router_id, packet)
                activity.route_computations += 1
            if state.out_vc is not None or flit.ready_at > cycle:
                continue
            out_port = state.route_port
            if is_ejection[out_port]:
                # Ejection needs no downstream VC; mark with a sentinel so
                # SA treats the flit as allocated.
                state.out_vc = -1
                continue
            if not flit.is_head:
                continue
            if va_table is not None:
                candidates = va_table[out_port]
            else:
                candidates = routing.va_candidates(
                    router_id, packet, out_port, self.out_vc_count
                )
            for cand_port, cand_vc, escaped in candidates:
                if faults is not None and faults.port_dead(router_id, cand_port):
                    continue
                owners = out_vc_owner[cand_port]
                if owners[cand_vc] is None:
                    owners[cand_vc] = packet.packet_id
                    state.out_vc = cand_vc
                    if escaped:
                        packet.on_escape = True
                        state.route_port = cand_port
                    activity.vc_allocations += 1
                    if obs is not None:
                        obs.on_vc_allocated(
                            router_id, port, vc, state.route_port,
                            cand_vc, packet, cycle,
                        )
                    break

    # -- stage 2b: switch allocation ------------------------------------------
    def allocate_switch(self, cycle: int) -> List[Grant]:
        """SA (both sub-stages) and the wide-link second-grant pass."""
        num_ports = self.num_ports
        port_active = self._port_active
        vc_states = self._vc_states
        allocator = self.allocator
        activity = self.activity
        num_vcs = self.num_vcs
        dead_ports = None if self.faults is None else self.faults.dead_ports
        router_id = self.router_id
        is_ejection = self.is_ejection
        out_credits = self.out_credits
        eligible_by_port: List[List[int]] = [_NO_VCS] * num_ports
        bids: List[Optional[int]] = [None] * num_ports  # per input port
        bidders: Optional[Dict[int, List[int]]] = None
        for port in range(num_ports):
            if port_active[port] == 0:
                continue
            # VCs whose head flit could traverse the switch now, scanned
            # inline (one method call per active port per cycle is
            # measurable at mesh scale).  VC ascending order is
            # load-bearing: ``_pick_second_flit`` scans the eligible list
            # in order when choosing a same-port companion flit.
            eligible = []
            states = vc_states[port]
            for vc in range(num_vcs):
                state = states[vc]
                queue = state.queue
                if not queue:
                    continue
                flit = queue[0]
                if flit.ready_at > cycle:
                    continue
                out_vc = state.out_vc
                if out_vc is None:
                    continue
                if state.packet_id != flit.packet.packet_id:
                    continue  # new packet still needs RC/VA
                out_port = state.route_port
                if is_ejection[out_port]:
                    eligible.append(vc)
                elif dead_ports is not None and (router_id, out_port) in dead_ports:
                    continue  # committed across a dead channel: a purge frees it
                elif out_credits[out_port][out_vc] > 0:
                    eligible.append(vc)
                else:
                    activity.credit_stalls += 1
            if not eligible:
                continue
            eligible_by_port[port] = eligible
            if len(eligible) == 1:
                # Single requester: a round-robin scan always grants it and
                # parks priority just past it (see RoundRobinArbiter.
                # grant_from); apply the pointer update directly.
                bid = eligible[0]
                arbiter = allocator.input_stage[port]
                nxt = bid + 1
                arbiter._next = nxt if nxt < arbiter.num_requesters else 0
            else:
                bid = allocator.pick_input_vc(port, eligible)
                activity.arbitration_conflicts += len(eligible) - 1
            activity.arbitrations += 1
            bids[port] = bid
            # Group bids by requested output port (same insertion order as
            # a separate pass over ``bids`` -- ports ascend).
            out_port = vc_states[port][bid].route_port
            if bidders is None:
                bidders = {out_port: [port]}
            elif out_port in bidders:
                bidders[out_port].append(port)
            else:
                bidders[out_port] = [port]
        if bidders is None:
            return _NO_GRANTS

        static_lanes = self._static_lanes
        merging = self._merging
        grants: List[Grant] = []
        for out_port, ports in bidders.items():
            if len(ports) == 1:
                # Same single-requester shortcut as the input stage.
                winner_port = ports[0]
                arbiter = allocator.output_stage[out_port]
                nxt = winner_port + 1
                arbiter._next = nxt if nxt < arbiter.num_requesters else 0
            else:
                winner_port = allocator.pick_output_winner(out_port, ports)
                activity.arbitration_conflicts += len(ports) - 1
            activity.arbitrations += 1
            if winner_port is None:
                continue
            winner_vc = bids[winner_port]
            winner_state = vc_states[winner_port][winner_vc]
            first = Grant(
                in_port=winner_port,
                in_vc=winner_vc,
                flit=winner_state.queue[0],
                out_port=out_port,
                out_vc=None if is_ejection[out_port] else winner_state.out_vc,
            )
            grants.append(first)
            if not merging or static_lanes[out_port] < 2:
                continue
            second = self._pick_second_flit(
                out_port, first, bids, eligible_by_port, cycle
            )
            if second is not None:
                second.merged = True
                grants.append(second)
                activity.merged_flit_pairs += 1
        return grants

    def _pick_second_flit(
        self,
        out_port: int,
        first: Grant,
        bids: List[Optional[int]],
        eligible_by_port: List[List[int]],
        cycle: int,
    ) -> Optional[Grant]:
        """Second parallel output arbiter for a wide (two-lane) output.

        Candidates, per Section 3.2/3.3:

        * the next flit of the same packet in the winner's VC (needs a
          second credit in the same downstream VC);
        * another eligible VC of the winner's input port routed to the same
          output (case a);
        * the losing bid of a different input port routed to the same
          output (case b).
        """
        state = self._vc_states[first.in_port][first.in_vc]
        # Same-packet continuation: the following flit of the same VC.
        if len(state.queue) > 1:
            nxt = state.queue[1]
            same_packet = nxt.packet.packet_id == state.packet_id
            if (
                same_packet
                and nxt.ready_at <= cycle
                and not self.is_ejection[out_port]
                and self.out_credits[out_port][state.out_vc] >= 2
            ):
                return Grant(
                    in_port=first.in_port,
                    in_vc=first.in_vc,
                    flit=nxt,
                    out_port=out_port,
                    out_vc=state.out_vc,
                )
            if same_packet and self.is_ejection[out_port] and nxt.ready_at <= cycle:
                return Grant(
                    in_port=first.in_port,
                    in_vc=first.in_vc,
                    flit=nxt,
                    out_port=out_port,
                    out_vc=None,
                )
        # Cross-VC candidates (cases a and b), arbitrated by input port.
        candidate_vc_by_port: Dict[int, int] = {}
        for vc in eligible_by_port[first.in_port]:
            if vc == first.in_vc:
                continue
            if self._vc_states[first.in_port][vc].route_port == out_port:
                candidate_vc_by_port[first.in_port] = vc
                break
        for port, vc in enumerate(bids):
            if vc is None or port == first.in_port:
                continue
            if self._vc_states[port][vc].route_port == out_port:
                candidate_vc_by_port.setdefault(port, vc)
        if not candidate_vc_by_port:
            return None
        chosen_port = self.allocator.pick_second_winner(
            out_port, candidate_vc_by_port.keys()
        )
        self.activity.arbitrations += 1
        if chosen_port is None:
            return None
        vc = candidate_vc_by_port[chosen_port]
        chosen_state = self._vc_states[chosen_port][vc]
        return Grant(
            in_port=chosen_port,
            in_vc=vc,
            flit=chosen_state.queue[0],
            out_port=out_port,
            out_vc=None if self.is_ejection[out_port] else chosen_state.out_vc,
        )

    # -- stage 2c: switch traversal --------------------------------------------
    def commit_grant(self, grant: Grant) -> None:
        """Pop the granted flit, spend a credit, release tail resources."""
        state = self._vc_states[grant.in_port][grant.in_vc]
        flit = state.queue.popleft()
        if flit is not grant.flit:
            raise RuntimeError("switch traversal popped an unexpected flit")
        self.occupied_flits -= 1
        activity = self.activity
        activity.buffer_reads += 1
        activity.crossbar_traversals += 1
        if not state.queue:
            if self._active.pop((grant.in_port, grant.in_vc), None):
                self._port_active[grant.in_port] -= 1
        out_vc = grant.out_vc
        if out_vc is not None and out_vc >= 0:
            credits = self.out_credits[grant.out_port]
            credits[out_vc] -= 1
            if credits[out_vc] < 0:
                raise RuntimeError(
                    f"negative credits at router {self.router_id} "
                    f"port {grant.out_port} vc {out_vc}"
                )
        if flit.is_tail:
            # The input VC is free for a new packet now, but the *output*
            # VC (the downstream buffer) stays allocated until the tail
            # drains out of the downstream router: the network delivers a
            # release_vc() when that happens.  This conservative VC state
            # machine is what makes VC count a binding resource at hot
            # routers -- the effect HeteroNoC's buffer redistribution
            # exploits.
            state.reset_packet()

    def return_credit(self, port: int, vc: int) -> None:
        """Upstream credit increment for a slot freed downstream."""
        self.out_credits[port][vc] += 1
        if self.out_credits[port][vc] > self._credit_ceiling[port]:
            raise RuntimeError(
                f"credit overflow at router {self.router_id} port {port} vc {vc}"
            )

    def release_vc(self, port: int, vc: int) -> None:
        """Downstream VC drained its packet: it may host a new one."""
        self.out_vc_owner[port][vc] = None

    def input_vc_free(self, port: int, vc: int) -> bool:
        """Whether an input VC can accept a *new* packet (used by the
        injection logic at local ports, which has no upstream router to
        track ownership for it)."""
        state = self._vc_states[port][vc]
        return not state.queue and state.packet_id is None

    # -- introspection -----------------------------------------------------------
    def buffered_flits(self) -> int:
        """Flits currently buffered in this router (all ports, all VCs)."""
        return self.occupied_flits
