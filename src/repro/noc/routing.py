"""Routing disciplines.

All evaluations in the paper use deterministic dimension-order (X-Y)
routing; the asymmetric-CMP case study (Section 7) adds *table-based*
routing for traffic to/from the four large cores, which zig-zags through
the big routers along the diagonals and relies on a reserved escape
virtual channel for deadlock freedom.

A routing object answers two questions for the router model:

* :meth:`Routing.output_port` -- given the current router and a packet,
  which output port does the head flit request?
* :meth:`Routing.allowed_vcs` -- which virtual channels at the downstream
  router may the packet be allocated (dateline classes on the torus,
  escape-channel reservation under table-based routing)?
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.noc.flit import Packet
from repro.noc.topology import (
    EAST,
    NORTH,
    SOUTH,
    WEST,
    ConcentratedMesh,
    FlattenedButterfly,
    Mesh,
    Topology,
    Torus,
)


class RoutingError(Exception):
    """Raised when no legal output port exists for a packet."""


#: shape -> route tables, filled by :meth:`Routing._probe_tables`.
_PROBED_TABLES: Dict[tuple, Tuple[Tuple[int, ...], ...]] = {}


class Routing:
    """Base class for routing disciplines."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def build_route_tables(self) -> Optional[Sequence[Sequence[int]]]:
        """Precomputed ``tables[router][dst_node] -> out_port``, or ``None``.

        A discipline may return full (router, destination) -> output-port
        tables when :meth:`output_port` is a *pure* function of the current
        router and the packet's destination -- no per-packet routing state
        (torus dateline classes, escape-channel flags) and no dependence on
        the packet's source.  :class:`~repro.noc.network.Network` then
        installs one table row per router so route computation on the cycle
        loop is a list index instead of a method call.  Disciplines with
        dynamic state (torus dateline, table/escape routing, fault-aware
        rerouting) return ``None`` and keep the per-packet lookup.
        """
        return None

    def uses_default_va(self) -> bool:
        """Whether VC-allocation candidates can be precomputed per port.

        True when the discipline keeps the base-class ``allowed_vcs`` /
        ``va_candidates`` (every downstream VC of the routed port, in
        order), which makes the candidate list a pure function of the
        output port.
        """
        cls = type(self)
        return (
            cls.allowed_vcs is Routing.allowed_vcs
            and cls.va_candidates is Routing.va_candidates
        )

    def _probe_tables(self) -> Tuple[Tuple[int, ...], ...]:
        """Build full route tables by probing :meth:`output_port`.

        One probe packet per destination serves every router (only
        disciplines whose :meth:`output_port` leaves the packet untouched
        may build tables at all).  Probes carry ``packet_id=-1``: they
        are no network's packets.

        A pure discipline gives every network of one shape the same
        tables, so they are probed once per (discipline, topology class,
        dimensions) and shared, as tuples nobody can edit.
        """
        topo = self.topology
        shape = (type(self), type(topo), topo.width, topo.height, topo.num_nodes)
        tables = _PROBED_TABLES.get(shape)
        if tables is None:
            probes = [
                Packet(src=0, dst=dst, num_flits=1, created_at=0, packet_id=-1)
                for dst in range(topo.num_nodes)
            ]
            output_port = self.output_port
            tables = tuple(
                tuple(output_port(router, probe) for probe in probes)
                for router in range(topo.num_routers)
            )
            # Threads that probed the same shape at once keep one result.
            tables = _PROBED_TABLES.setdefault(shape, tables)
        return tables

    def output_port(self, router: int, packet: Packet) -> int:
        """Output port the packet requests at ``router``.

        For a packet whose destination attaches to ``router``, the local
        (ejection) port of the destination node is returned.
        """
        raise NotImplementedError

    def allowed_vcs(
        self, router: int, out_port: int, packet: Packet, num_vcs: int
    ) -> Sequence[int]:
        """Virtual channels the packet may claim at the downstream router."""
        return range(num_vcs)

    def va_candidates(
        self,
        router: int,
        packet: Packet,
        route_port: int,
        out_vc_count: Sequence[int],
    ) -> Sequence[Tuple[int, int, bool]]:
        """(out_port, vc, escaped) candidates for VC allocation, in order.

        ``route_port`` is the output port already chosen by RC for this
        packet (passed in rather than recomputed because
        :meth:`output_port` may mutate per-packet routing state).  The
        ``escaped`` flag tells the router to switch the packet onto the
        escape path if that candidate wins (only table-based routing uses
        it).
        """
        return [
            (route_port, vc, False)
            for vc in self.allowed_vcs(
                router, route_port, packet, out_vc_count[route_port]
            )
        ]

    def _ejection_port(self, router: int, packet: Packet) -> Optional[int]:
        """Local port if the packet terminates at ``router``, else None."""
        if self.topology.router_of_node(packet.dst) == router:
            return self.topology.local_port_of_node(packet.dst)
        return None


class XYRouting(Routing):
    """Deterministic dimension-order routing for mesh-like topologies.

    Routes fully in X (columns) first, then in Y (rows).  Applicable to
    :class:`Mesh` and :class:`ConcentratedMesh`; deadlock-free because the
    X-before-Y turn restriction breaks all channel-dependency cycles.
    """

    def __init__(self, topology: Topology) -> None:
        if not isinstance(topology, (Mesh, ConcentratedMesh)):
            raise TypeError(
                f"XYRouting needs a mesh-like topology, got {type(topology).__name__}"
            )
        if isinstance(topology, Torus):
            raise TypeError("use TorusXYRouting for torus topologies")
        super().__init__(topology)

    def build_route_tables(self) -> Sequence[Sequence[int]]:
        # X-Y is a pure function of (router, destination): precomputable.
        return self._probe_tables()

    def output_port(self, router: int, packet: Packet) -> int:
        ejection = self._ejection_port(router, packet)
        if ejection is not None:
            return ejection
        topo = self.topology
        row, col = topo.coords(router)
        dst_row, dst_col = topo.coords(topo.router_of_node(packet.dst))
        if col < dst_col:
            return topo.direction_port(EAST)
        if col > dst_col:
            return topo.direction_port(WEST)
        if row < dst_row:
            return topo.direction_port(SOUTH)
        if row > dst_row:
            return topo.direction_port(NORTH)
        raise RoutingError(
            f"packet {packet.packet_id} at its destination router {router} "
            "but ejection port lookup failed"
        )


class TorusXYRouting(Routing):
    """Dimension-order routing on a torus with shortest-way wrap links.

    Deadlock within each unidirectional ring is avoided with dateline
    virtual-channel classes: a packet starts in class 0 and moves to class 1
    after traversing the wrap-around link of the dimension it is currently
    routing in; the class is reset when the packet turns from X to Y.  The
    low half of the VCs serves class 0, the high half class 1.
    """

    def __init__(self, topology: Torus) -> None:
        if not isinstance(topology, Torus):
            raise TypeError(
                f"TorusXYRouting needs a Torus, got {type(topology).__name__}"
            )
        super().__init__(topology)

    def _step(self, router: int, packet: Packet) -> Tuple[int, bool, bool]:
        """(direction_port, uses_wrap_link, turns_dimension) for next hop."""
        topo = self.topology
        row, col = topo.coords(router)
        dst_row, dst_col = topo.coords(topo.router_of_node(packet.dst))
        width, height = topo.width, topo.height
        if col != dst_col:
            right = (dst_col - col) % width
            left = (col - dst_col) % width
            if right <= left:
                wraps = col == width - 1
                return topo.direction_port(EAST), wraps, False
            wraps = col == 0
            return topo.direction_port(WEST), wraps, False
        down = (dst_row - row) % height
        up = (row - dst_row) % height
        # "turning" marks entry into the Y dimension -- the Y-phase router in
        # the packet's source row; the caller resets the dateline class
        # there and nowhere else, so class 1 survives past the Y wrap link.
        turning = topo.coords(topo.router_of_node(packet.src))[0] == row
        if down <= up:
            wraps = row == height - 1
            return topo.direction_port(SOUTH), wraps, turning
        wraps = row == 0
        return topo.direction_port(NORTH), wraps, turning

    def output_port(self, router: int, packet: Packet) -> int:
        ejection = self._ejection_port(router, packet)
        if ejection is not None:
            return ejection
        port, wraps, turns = self._step(router, packet)
        if turns:
            packet.vc_class = 0
        if wraps:
            packet.vc_class = 1
        return port

    def allowed_vcs(
        self, router: int, out_port: int, packet: Packet, num_vcs: int
    ) -> Sequence[int]:
        if self.topology.is_local_port(router, out_port):
            return range(num_vcs)
        if num_vcs < 2:
            raise RoutingError(
                "torus dateline routing needs at least 2 VCs per channel"
            )
        # Most packets never cross a dateline, so class 0 gets the larger
        # share of the VCs; class 1 only needs enough to break the cycle.
        split = num_vcs - max(1, num_vcs // 3)
        if packet.vc_class == 0:
            return range(split)
        return range(split, num_vcs)


class FlattenedButterflyRouting(Routing):
    """Minimal (row-then-column) routing on a flattened butterfly.

    At most two network hops: a row link to the destination column followed
    by a column link to the destination row.  Dimension order makes it
    deadlock-free, mirroring X-Y on the mesh.
    """

    def __init__(self, topology: FlattenedButterfly) -> None:
        if not isinstance(topology, FlattenedButterfly):
            raise TypeError(
                "FlattenedButterflyRouting needs a FlattenedButterfly, "
                f"got {type(topology).__name__}"
            )
        super().__init__(topology)

    def build_route_tables(self) -> Sequence[Sequence[int]]:
        # Row-then-column is a pure function of (router, destination).
        return self._probe_tables()

    def output_port(self, router: int, packet: Packet) -> int:
        ejection = self._ejection_port(router, packet)
        if ejection is not None:
            return ejection
        topo = self.topology
        row, col = topo.coords(router)
        dst_router = topo.router_of_node(packet.dst)
        dst_row, dst_col = topo.coords(dst_router)
        if col != dst_col:
            return topo.row_port_to(router, dst_col)
        return topo.col_port_to(router, dst_row)


def minimal_routing_for(topology: Topology) -> Routing:
    """The paper's deterministic minimal routing for ``topology``."""
    if isinstance(topology, Torus):
        return TorusXYRouting(topology)
    if isinstance(topology, FlattenedButterfly):
        return FlattenedButterflyRouting(topology)
    if isinstance(topology, (Mesh, ConcentratedMesh)):
        return XYRouting(topology)
    raise TypeError(f"no minimal routing known for {type(topology).__name__}")


def xy_path_routers(mesh: Mesh, src: int, dst: int) -> List[int]:
    """Routers an X-Y-routed packet traverses from src to dst (inclusive)."""
    src_row, src_col = mesh.coords(src)
    dst_row, dst_col = mesh.coords(dst)
    path = []
    col_step = 1 if dst_col >= src_col else -1
    for col in range(src_col, dst_col + col_step, col_step):
        path.append(mesh.router_at(src_row, col))
    row_step = 1 if dst_row >= src_row else -1
    for row in range(src_row + row_step, dst_row + row_step, row_step) if src_row != dst_row else []:
        path.append(mesh.router_at(row, dst_col))
    return path


def router_traversal_counts(mesh: Mesh) -> Dict[int, int]:
    """How many uniform-random flows traverse each router under X-Y.

    This is the analytic version of the Figure 1 heat map: central routers
    are crossed by far more (src, dst) pairs than peripheral ones.
    """
    counts = {rid: 0 for rid in range(mesh.num_routers)}
    for src in range(mesh.num_routers):
        for dst in range(mesh.num_routers):
            if src == dst:
                continue
            for router in xy_path_routers(mesh, src, dst):
                counts[router] += 1
    return counts


def max_big_router_path(
    mesh: Mesh, src_router: int, dst_router: int, big_routers: Set[int]
) -> List[int]:
    """Minimal path from src to dst visiting the most big routers.

    Searches only *monotone* minimal paths (every hop moves toward the
    destination), choosing among them the staircase that traverses the most
    routers in ``big_routers`` -- the paper's "zig-zag X-Y-X-Y" paths that
    maximally exploit the diagonal big routers (Section 7).

    Returns the router sequence including both endpoints.
    """
    src_row, src_col = mesh.coords(src_router)
    dst_row, dst_col = mesh.coords(dst_router)
    dr = 0 if dst_row == src_row else (1 if dst_row > src_row else -1)
    dc = 0 if dst_col == src_col else (1 if dst_col > src_col else -1)

    rows = list(range(src_row, dst_row + dr, dr)) if dr else [src_row]
    cols = list(range(src_col, dst_col + dc, dc)) if dc else [src_col]

    # Dynamic program over the src->dst rectangle: best[i][j] is the largest
    # big-router count achievable from cell (i, j) to the destination moving
    # only toward it.  Process cells outward from the destination corner.
    n_rows, n_cols = len(rows), len(cols)
    best = [[0] * n_cols for _ in range(n_rows)]
    move_row = [[False] * n_cols for _ in range(n_rows)]
    for i in range(n_rows - 1, -1, -1):
        for j in range(n_cols - 1, -1, -1):
            router = mesh.router_at(rows[i], cols[j])
            here = 1 if router in big_routers else 0
            if i == n_rows - 1 and j == n_cols - 1:
                best[i][j] = here
                continue
            down = best[i + 1][j] if i + 1 < n_rows else -1
            right = best[i][j + 1] if j + 1 < n_cols else -1
            if down >= right:
                best[i][j] = here + down
                move_row[i][j] = True
            else:
                best[i][j] = here + right
    path = []
    i = j = 0
    while True:
        path.append(mesh.router_at(rows[i], cols[j]))
        if i == n_rows - 1 and j == n_cols - 1:
            break
        if move_row[i][j] and i + 1 < n_rows:
            i += 1
        else:
            j += 1
    return path


def _path_to_ports(mesh: Mesh, path: List[int]) -> List[int]:
    """Convert a router sequence into per-hop output ports."""
    ports = []
    for here, there in zip(path, path[1:]):
        here_row, here_col = mesh.coords(here)
        there_row, there_col = mesh.coords(there)
        if there_col == here_col + 1:
            ports.append(mesh.direction_port(EAST))
        elif there_col == here_col - 1:
            ports.append(mesh.direction_port(WEST))
        elif there_row == here_row + 1:
            ports.append(mesh.direction_port(SOUTH))
        elif there_row == here_row - 1:
            ports.append(mesh.direction_port(NORTH))
        else:
            raise RoutingError(f"non-adjacent hop {here} -> {there}")
    return ports


class TableRouting(Routing):
    """Table-based routing through big routers, with X-Y escape channels.

    For source/destination pairs present in the table (built for the large
    cores of the asymmetric CMP), packets follow a precomputed minimal
    staircase path that maximizes big-router usage.  All other packets use
    plain X-Y.  Table-following packets avoid the reserved escape VC; if a
    blocked packet is ever allocated the escape VC it permanently switches
    to X-Y routing (``packet.on_escape``), which guarantees deadlock freedom
    (the escape subnetwork is the acyclic X-Y network).
    """

    def __init__(
        self,
        topology: Mesh,
        big_routers: Set[int],
        table_nodes: Set[int],
        escape_vc: int = 0,
    ) -> None:
        if isinstance(topology, Torus) or not isinstance(topology, Mesh):
            raise TypeError("TableRouting is defined for plain meshes")
        super().__init__(topology)
        self.big_routers = frozenset(big_routers)
        self.table_nodes = frozenset(table_nodes)
        self.escape_vc = escape_vc
        self._xy = XYRouting(topology)
        # (src_router, dst_router) -> {router_on_path: out_port}
        self._table: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._build_table()

    def _build_table(self) -> None:
        topo = self.topology
        routers_of_interest = {
            topo.router_of_node(node) for node in self.table_nodes
        }
        for endpoint in routers_of_interest:
            for other in range(topo.num_routers):
                if other == endpoint:
                    continue
                for src, dst in ((endpoint, other), (other, endpoint)):
                    if (src, dst) in self._table:
                        continue
                    path = max_big_router_path(topo, src, dst, self.big_routers)
                    ports = _path_to_ports(topo, path)
                    self._table[(src, dst)] = dict(zip(path, ports))

    def uses_table(self, packet: Packet) -> bool:
        """Whether the packet's flow is steered by the routing table."""
        return (
            packet.src in self.table_nodes or packet.dst in self.table_nodes
        )

    def output_port(self, router: int, packet: Packet) -> int:
        ejection = self._ejection_port(router, packet)
        if ejection is not None:
            return ejection
        if packet.on_escape or not self.uses_table(packet):
            return self._xy.output_port(router, packet)
        src_router = self.topology.router_of_node(packet.src)
        dst_router = self.topology.router_of_node(packet.dst)
        hops = self._table.get((src_router, dst_router))
        if hops is None or router not in hops:
            # Not on the tabled path (e.g. the packet escaped earlier and
            # the flag was lost) -- fall back to X-Y, which is always legal.
            return self._xy.output_port(router, packet)
        return hops[router]

    def allowed_vcs(
        self, router: int, out_port: int, packet: Packet, num_vcs: int
    ) -> Sequence[int]:
        if self.topology.is_local_port(router, out_port):
            return range(num_vcs)
        if packet.on_escape:
            return (self.escape_vc,)
        return range(num_vcs)

    def va_candidates(
        self,
        router: int,
        packet: Packet,
        route_port: int,
        out_vc_count: Sequence[int],
    ) -> Sequence[Tuple[int, int, bool]]:
        """Tabled packets try non-escape VCs on their tabled port first.

        As a last resort they may claim the *escape* VC, but only in the
        X-Y direction: the escape subnetwork carries exclusively X-Y-routed
        traffic, so it inherits X-Y's freedom from channel-dependency
        cycles.  Claiming it flips ``packet.on_escape`` (the router acts on
        the ``escaped`` flag), after which the packet finishes via X-Y on
        escape channels only.
        """
        if self.topology.is_local_port(router, route_port):
            return [(route_port, vc, False) for vc in range(out_vc_count[route_port])]
        if packet.on_escape:
            return [(route_port, self.escape_vc, False)]
        if not self.uses_table(packet):
            return [
                (route_port, vc, False)
                for vc in range(out_vc_count[route_port])
            ]
        xy_port = self._xy.output_port(router, packet)
        candidates = [
            (route_port, vc, False)
            for vc in range(out_vc_count[route_port])
            if vc != self.escape_vc
        ]
        candidates.append((xy_port, self.escape_vc, True))
        return candidates

    def path_routers(self, src_router: int, dst_router: int) -> List[int]:
        """Routers on the tabled path (for tests and diagnostics)."""
        hops = self._table.get((src_router, dst_router))
        if hops is None:
            raise KeyError(f"no tabled path {src_router} -> {dst_router}")
        path = [src_router]
        mesh = self.topology
        while path[-1] != dst_router:
            port = hops[path[-1]]
            neighbor = mesh.neighbor(path[-1], port)
            if neighbor is None:
                raise RoutingError("tabled path walks off the mesh")
            path.append(neighbor[0])
        return path
