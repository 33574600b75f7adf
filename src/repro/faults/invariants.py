"""Simulator invariant checks (the ``REPRO_CHECK=1`` layer).

Every check is *read-only* and reads only the network's lane view
(:meth:`~repro.noc.network.Network.lane_view`), which the compiled
kernel's arena and the event kernel's routers give alike: a checked run
is the unchecked run, on the same kernel, byte for byte.  The checks:

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

from typing import List


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


def check_network_invariants(network) -> List[str]:
    """Return a description of every broken invariant (empty == healthy),
    read from the network's :meth:`~repro.noc.network.Network.lane_view`
    on either kernel.  Whole columns are swept first, so a healthy check
    costs a few passes over lists; only suspect lanes are described."""
    view = network.lane_view()
    P, V = view.P, view.V
    per_router = P * V
    qlen, claim, route, out_vc = view.qlen, view.claim, view.route, view.out_vc
    nonempty = [depth > 0 for depth in qlen]

    def owner(lane):
        return view.owner[(lane // per_router * P + route[lane]) * V + out_vc[lane]]

    # -- per-VC index, depth and claim accounting ------------------------------
    # VC state machine: a held downstream allocation must be owned by the
    # claiming packet at the routed output port.
    suspects = [
        lane for lane, vc in enumerate(out_vc)
        if vc >= 0 and claim[lane] >= 0 and owner(lane) != claim[lane]
    ]
    if nonempty != view.indexed or any(
        max(qlen[at:at + per_router]) > depth
        for at, depth in zip(range(0, len(qlen), per_router), view.depth)
    ):
        suspects = range(len(qlen))
    violations: List[str] = []
    for lane in suspects:
        depth, keyed = qlen[lane], view.indexed[lane]
        rp, vc = divmod(lane, V)
        rid, port = divmod(rp, P)
        where = f"router {rid} port {port} vc {vc}"
        if depth and not keyed:
            violations.append(f"{where}: {depth} buffered flits but VC not "
                              "in the active index")
        elif keyed and not depth:
            violations.append(f"{where}: empty VC still in the active index")
        if depth > view.depth[rid]:
            violations.append(
                f"{where}: {depth} flits exceed buffer depth {view.depth[rid]}"
            )
        if out_vc[lane] >= 0 and claim[lane] >= 0 and owner(lane) != claim[lane]:
            violations.append(
                f"{where}: packet {claim[lane]} claims output vc "
                f"{out_vc[lane]} of port {route[lane]} owned by "
                f"{None if owner(lane) < 0 else owner(lane)}"
            )

    # -- per-port and per-router counts, active sets ---------------------------
    counts = [sum(nonempty[at:at + V]) for at in range(0, len(qlen), V)]
    for rp, (active, nonempty_vcs) in enumerate(zip(view.port_active, counts)):
        if active != nonempty_vcs:
            violations.append(
                f"router {rp // P} port {rp % P}: active-VC count {active} "
                f"!= {nonempty_vcs} non-empty VCs"
            )
    for rid, occupied in enumerate(view.occupied):
        total = sum(qlen[rid * per_router:(rid + 1) * per_router])
        if occupied != total:
            violations.append(
                f"router {rid}: occupied_flits {occupied} != {total} "
                "buffered flits"
            )
        # The active sets are conservative supersets: every router holding
        # flits and every source with pending work must be a member, or
        # the kernel would skip them forever.
        if occupied and rid not in view.active_routers:
            violations.append(
                f"router {rid}: {occupied} buffered flits but not in the "
                "network's active-router set"
            )
    for node in view.queued:
        if node not in view.active_sources:
            violations.append(
                f"source {node}: pending work but not in the network's "
                "active-source set"
            )

    # -- credit conservation per channel VC ------------------------------------
    credits, ceiling = view.credits, view.ceiling
    on_link, returning = view.on_link, view.returning
    channels = zip(*view.channels)
    suspects = channels if min(credits) < 0 else [
        (up, down, rp) for up, down, rp in channels
        if credits[up] + returning[up] + qlen[down] + on_link[down] != ceiling[rp]
    ]
    faults = network.faults
    dead_routers = faults.dead_routers if faults is not None else frozenset()
    dead_ports = faults.dead_ports if faults is not None else frozenset()
    for up, down, rp in suspects:
        (src, sport), (dst, dport) = divmod(rp, P), divmod(down // V, P)
        if src in dead_routers or dst in dead_routers:
            continue
        if (src, sport) in dead_ports or (dst, dport) in dead_ports:
            continue
        held, depth = credits[up], ceiling[rp]
        channel = f"channel {src}:{sport}->{dst}:{dport} vc {up % V}"
        if held < 0 or held > depth:
            violations.append(
                f"{channel}: credit count {held} outside [0, {depth}]"
            )
        if held + qlen[down] + on_link[down] + returning[up] != depth:
            violations.append(
                f"{channel}: credits not conserved ({held} held + "
                f"{qlen[down]} buffered + {on_link[down]} on link + "
                f"{returning[up]} returning != {depth})"
            )
    return violations
