"""Static deadlock freedom: the channel-dependency graph is acyclic.

A wormhole network cannot deadlock if no cycle exists among the channels
packets may hold while waiting for the next one (Dally & Seitz).  A
channel here is ``(router, output port, VC at the downstream input)``;
walking every (source, destination) pair through ``output_port`` and
``va_candidates`` -- the two calls the router's RC and VA stages make --
yields every "holds a, waits for b" edge a routing discipline can
create on a given network, VC counts of heterogeneous routers included.
The check is exhaustive, needs no traffic and runs in milliseconds, so
it holds for every routing x topology x router mix the repo ships; the
dynamic drain tests (``test_network_properties``) only ever sampled it.

``TableRouting`` is adaptive-with-escape (Duato): its full graph may
have cycles by design, so the obligation there is that the escape
sub-network is acyclic and that every tabled hop offers an escape
candidate.
"""

from collections import defaultdict

import pytest

from repro.core.layouts import build_network, diagonal_positions, layout_by_name
from repro.exec.point import SweepPoint
from repro.noc.flit import Packet
from repro.noc.routing import SOUTH, TableRouting, TorusXYRouting
from repro.noc.topology import Mesh


def _probe(src, dst):
    return Packet(src=src, dst=dst, num_flits=1, created_at=0, packet_id=-1)


def _hops(network, routing, packet, router):
    """``(router, port, candidates)`` for every network hop of ``packet``
    from ``router`` to its ejection, as RC and VA would see them."""
    topo = network.topology
    for _ in range(topo.num_routers):
        port = routing.output_port(router, packet)
        if topo.is_local_port(router, port):
            assert topo.node_at(router, port) == packet.dst
            return
        candidates = list(routing.va_candidates(
            router, packet, port, network.routers[router].out_vc_count
        ))
        assert candidates, f"no VC candidate at router {router}"
        yield router, port, candidates
        router = topo.neighbor(router, port)[0]
    raise AssertionError(f"{packet.src} -> {packet.dst} never ejects")


def _dependency_graph(network, routing=None):
    """Edges ``held channel -> wanted channel`` over all node pairs."""
    routing = routing or network.routing
    topo = network.topology
    edges = defaultdict(set)
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            if src == dst:
                continue
            held = ()
            hops = _hops(network, routing, _probe(src, dst),
                         topo.router_of_node(src))
            for router, port, candidates in hops:
                wanted = {(router, p, vc) for p, vc, _ in candidates}
                assert {p for _, p, _ in wanted} == {port}
                for channel in held:
                    edges[channel] |= wanted
                held = wanted
    return edges


def _find_cycle(edges):
    """Some cycle of ``edges`` as a list of channels, or ``None``."""
    done, on_path = set(), {}
    for root in list(edges):
        if root in done:
            continue
        path = [root]
        on_path[root] = 0
        stack = [iter(edges[root])]
        while stack:
            for nxt in stack[-1]:
                if nxt in on_path:
                    return path[on_path[nxt]:] + [nxt]
                if nxt not in done and nxt in edges:
                    on_path[nxt] = len(path)
                    path.append(nxt)
                    stack.append(iter(edges[nxt]))
                    break
            else:
                stack.pop()
                node = path.pop()
                del on_path[node]
                done.add(node)
    return None


def _network(topology, mesh_size, layout):
    return SweepPoint(
        layout=layout, topology=topology, mesh_size=mesh_size
    ).build_network()


# -- deterministic disciplines: the whole graph is acyclic ------------------------
@pytest.mark.parametrize(
    "topology, mesh_size, layout",
    [
        ("mesh", 4, "baseline"),
        ("mesh", 4, "diagonal+BL"),
        ("mesh", 8, "baseline"),
        ("mesh", 8, "diagonal+BL"),
        ("cmesh", 4, None),
        ("fbfly", 4, None),
        ("torus", 4, "baseline"),
        # the 2-VC small routers leave one VC per dateline class
        ("torus", 4, "diagonal+BL"),
        ("torus", 8, "baseline"),
        ("torus", 8, "center+BL"),
        ("torus", 8, "diagonal+BL"),
    ],
)
def test_channel_dependency_graph_is_acyclic(topology, mesh_size, layout):
    network = _network(topology, mesh_size, layout)
    edges = _dependency_graph(network)
    assert edges, "no multi-hop route walked"
    cycle = _find_cycle(edges)
    assert cycle is None, f"channel-dependency cycle: {cycle}"


def test_small_torus_routers_split_one_vc_per_class():
    """The tightest case shipped: a 2-VC channel carries both dateline
    classes, one VC each, and the graph above covered it."""
    network = _network("torus", 8, "diagonal+BL")
    topo = network.topology
    two_vc = {
        (rid, port)
        for rid, router in enumerate(network.routers)
        for port in range(topo.num_ports(rid))
        if not topo.is_local_port(rid, port) and router.out_vc_count[port] == 2
    }
    assert two_vc
    channels = set(_dependency_graph(network))
    assert any(
        (rid, port, 0) in channels and (rid, port, 1) in channels
        for rid, port in two_vc
    )


class _ClassDroppedAfterWrap(TorusXYRouting):
    """The dateline bug this file exists to catch (PR 19's parent): the
    class was reset at *every* Y hop instead of only at the X -> Y turn,
    so a packet fell back to class 0 one hop after the Y wrap link."""

    def _step(self, router, packet):
        port, wraps, _ = super()._step(router, packet)
        topo = self.topology
        col = topo.coords(router)[1]
        dst_col = topo.coords(topo.router_of_node(packet.dst))[1]
        return port, wraps, col == dst_col


@pytest.mark.parametrize("mesh_size, wrap_router", [(4, 13), (8, 57)])
def test_checker_finds_the_dropped_dateline_class(mesh_size, wrap_router):
    """The graph of the broken scheme has a cycle through the Y wrap
    link: (bottom-row router, SOUTH, class 1) -> (router 1, SOUTH,
    class 0) closes the column-1 ring."""
    network = _network("torus", mesh_size, "baseline")
    south = network.topology.direction_port(SOUTH)
    num_vcs = network.routers[1].out_vc_count[south]
    class_0 = set(network.routing.allowed_vcs(1, south, _probe(0, 1), num_vcs))
    edges = _dependency_graph(
        network, _ClassDroppedAfterWrap(network.topology)
    )
    cycle = _find_cycle(edges)
    assert cycle is not None
    assert len({(router, port) for router, port, _ in cycle[1:]}) >= mesh_size
    after_wrap = {
        vc
        for vc_held in range(num_vcs)
        if vc_held not in class_0
        for router, port, vc in edges[(wrap_router, south, vc_held)]
        if (router, port) == (1, south)
    }
    assert after_wrap & class_0, "class 1 -> class 0 edge across the dateline"
    # ... which the shipped scheme does not have: class 1 stays class 1.
    fixed = _dependency_graph(network)
    assert all(
        vc not in class_0
        for vc_held in range(num_vcs)
        if vc_held not in class_0
        for router, port, vc in fixed[(wrap_router, south, vc_held)]
        if (router, port) == (1, south)
    )


# -- table routing: acyclic escape sub-network, always reachable ------------------
def _table_network(mesh_size, layout, table_nodes):
    mesh = Mesh(mesh_size)
    routing = TableRouting(
        mesh,
        big_routers=diagonal_positions(mesh_size),
        table_nodes=table_nodes,
        escape_vc=0,
    )
    return build_network(
        layout_by_name(layout, mesh_size), topology=mesh, routing=routing
    )


@pytest.mark.parametrize(
    "mesh_size, layout", [(4, "diagonal+BL"), (8, "diagonal+BL"),
                          (8, "baseline")]
)
def test_table_routing_escape_network(mesh_size, layout):
    last = mesh_size * mesh_size - 1
    corners = {0, mesh_size - 1, last - mesh_size + 1, last}
    network = _table_network(mesh_size, layout, corners)
    routing, topo = network.routing, network.topology
    escape_vc = routing.escape_vc
    edges = defaultdict(set)
    tabled_hops = 0

    def walk_escape(packet, router, held):
        """X-Y from ``router`` on, holding escape channels only when the
        packet is confined to them (escaped) or may pick them (X-Y)."""
        for hop_router, _port, candidates in _hops(
            network, routing, packet, router
        ):
            wanted = {
                (hop_router, p, vc) for p, vc, _ in candidates
                if vc == escape_vc
            }
            assert wanted, "an X-Y routed packet always may use the escape VC"
            for channel in held:
                edges[channel] |= wanted
            held = wanted

    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            if src == dst:
                continue
            packet = _probe(src, dst)
            if not routing.uses_table(packet):
                walk_escape(packet, topo.router_of_node(src), ())
                continue
            for router, port, candidates in _hops(
                network, routing, packet, topo.router_of_node(src)
            ):
                tabled_hops += 1
                # never the escape VC on the tabled port ...
                assert all(
                    vc != escape_vc for _, vc, escaped in candidates
                    if not escaped
                )
                # ... and exactly one way out, in the X-Y direction.
                escapes = [(p, vc) for p, vc, escaped in candidates if escaped]
                xy_port = routing._xy.output_port(router, packet)
                assert escapes == [(xy_port, escape_vc)]
                # Taking it confines the packet to X-Y on escape VCs from
                # the next router on, holding the escape channel it won.
                escaped = _probe(src, dst)
                escaped.on_escape = True
                walk_escape(
                    escaped,
                    topo.neighbor(router, xy_port)[0],
                    {(router, xy_port, escape_vc)},
                )
    assert tabled_hops > 0
    assert edges
    assert _find_cycle(edges) is None
