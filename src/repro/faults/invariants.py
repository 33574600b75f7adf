"""Simulator invariant checks (the ``REPRO_CHECK=1`` layer).

Every check is *read-only*: running them cannot perturb a simulation, so
a run with checking enabled produces byte-identical results to one
without -- the golden-run tests pin this.  The checks:

* **credit conservation** -- for every inter-router channel and VC, the
  upstream credit count plus flits buffered downstream, flits in flight
  on the link, and credits in flight back upstream must equal the
  downstream buffer depth;
* **buffer accounting** -- each router's ``occupied_flits`` equals the
  sum of its VC queue lengths, and the active-VC index structures agree
  with the queues;
* **VC state machine** -- an input VC holding a downstream allocation
  must own the downstream VC it claims (``out_vc_owner`` agreement),
  and credit counts must sit inside ``[0, depth]``.

Channels incident to a dead router or dead link (when a fault injector
is attached) are exempt from credit conservation: a fail-stop
deliberately discards flits and the purge machinery reconciles the
healthy remainder of the network instead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class InvariantViolation(RuntimeError):
    """A simulator invariant does not hold; the run is untrustworthy.

    Attributes:
        violations: one human-readable description per broken invariant.
        cycle: the cycle at which the check ran.
    """

    def __init__(self, violations: List[str], cycle: int) -> None:
        self.violations = list(violations)
        self.cycle = cycle
        preview = "; ".join(self.violations[:3])
        more = len(self.violations) - 3
        if more > 0:
            preview += f" (+{more} more)"
        super().__init__(
            f"{len(self.violations)} invariant violation(s) at cycle "
            f"{cycle}: {preview}"
        )


def _in_flight_counts(network) -> Tuple[Dict, Dict]:
    """Flits on links and credits on the wire, keyed by (router, port, vc).

    Arrival events are keyed by their *downstream* coordinates, credit
    events by their *upstream* coordinates -- exactly how the network
    schedules them.
    """
    arrivals: Dict[Tuple[int, int, int], int] = {}
    for events in network._arrivals.values():
        for router_id, port, vc, _flit in events:
            key = (router_id, port, vc)
            arrivals[key] = arrivals.get(key, 0) + 1
    credits: Dict[Tuple[int, int, int], int] = {}
    for events in network._credits.values():
        for router_id, port, vc, _release in events:
            key = (router_id, port, vc)
            credits[key] = credits.get(key, 0) + 1
    return arrivals, credits


def check_network_invariants(network) -> List[str]:
    """Return a description of every broken invariant (empty == healthy)."""
    violations: List[str] = []
    topo = network.topology
    faults = network.faults
    dead_routers = faults.dead_routers if faults is not None else frozenset()
    dead_ports = faults.dead_ports if faults is not None else frozenset()

    # -- per-router buffer and index accounting --------------------------------
    for router in network.routers:
        rid = router.router_id
        total = 0
        for port in range(router.num_ports):
            active = 0
            for vc in range(router.config.num_vcs):
                state = router._vc_states[port][vc]
                depth = len(state.queue)
                total += depth
                keyed = (port, vc) in router._active
                if depth > 0:
                    active += 1
                    if not keyed:
                        violations.append(
                            f"router {rid} port {port} vc {vc}: "
                            f"{depth} buffered flits but VC not in the "
                            "active index"
                        )
                elif keyed:
                    violations.append(
                        f"router {rid} port {port} vc {vc}: empty VC "
                        "still in the active index"
                    )
                if depth > router.config.buffer_depth:
                    violations.append(
                        f"router {rid} port {port} vc {vc}: {depth} flits "
                        f"exceed buffer depth {router.config.buffer_depth}"
                    )
                # VC state machine: a held downstream allocation must be
                # owned by this packet at the routed output port.
                if (
                    state.out_vc is not None
                    and state.out_vc >= 0
                    and state.packet_id is not None
                ):
                    owner = router.out_vc_owner[state.route_port][state.out_vc]
                    if owner != state.packet_id:
                        violations.append(
                            f"router {rid} port {port} vc {vc}: packet "
                            f"{state.packet_id} claims output vc "
                            f"{state.out_vc} of port {state.route_port} "
                            f"owned by {owner}"
                        )
            if router._port_active[port] != active:
                violations.append(
                    f"router {rid} port {port}: active-VC count "
                    f"{router._port_active[port]} != {active} non-empty VCs"
                )
        if router.occupied_flits != total:
            violations.append(
                f"router {rid}: occupied_flits {router.occupied_flits} != "
                f"{total} buffered flits"
            )

    # -- event-kernel active-set coverage --------------------------------------
    # The active sets are conservative supersets: every router holding
    # flits and every source with pending work must be a member, or the
    # event-driven stepper would skip them forever.
    active_routers = network._active_routers
    for router in network.routers:
        if router.occupied_flits > 0 and router.router_id not in active_routers:
            violations.append(
                f"router {router.router_id}: {router.occupied_flits} "
                "buffered flits but not in the network's active-router set"
            )
    active_sources = network._active_sources
    for node, source in enumerate(network.sources):
        if (source.queue or source.mid_packet) and node not in active_sources:
            violations.append(
                f"source {node}: pending work but not in the network's "
                "active-source set"
            )

    # -- credit conservation per channel ---------------------------------------
    arrivals, credit_events = _in_flight_counts(network)
    for src, sport, dst, dport in topo.channels():
        if src in dead_routers or dst in dead_routers:
            continue
        if (src, sport) in dead_ports or (dst, dport) in dead_ports:
            continue
        upstream = network.routers[src]
        downstream = network.routers[dst]
        depth = upstream._credit_ceiling[sport]
        for vc in range(upstream.out_vc_count[sport]):
            held = upstream.out_credits[sport][vc]
            if held < 0 or held > depth:
                violations.append(
                    f"channel {src}:{sport}->{dst}:{dport} vc {vc}: credit "
                    f"count {held} outside [0, {depth}]"
                )
            buffered = len(downstream._vc_states[dport][vc].queue)
            on_link = arrivals.get((dst, dport, vc), 0)
            returning = credit_events.get((src, sport, vc), 0)
            conserved = held + buffered + on_link + returning
            if conserved != depth:
                violations.append(
                    f"channel {src}:{sport}->{dst}:{dport} vc {vc}: credits "
                    f"not conserved ({held} held + {buffered} buffered + "
                    f"{on_link} on link + {returning} returning != {depth})"
                )
    return violations
