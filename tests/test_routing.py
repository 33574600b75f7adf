"""Unit and property tests for routing disciplines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.flit import Packet
from repro.noc.routing import (
    FlattenedButterflyRouting,
    RoutingError,
    TableRouting,
    TorusXYRouting,
    XYRouting,
    max_big_router_path,
    minimal_routing_for,
    xy_path_routers,
)
from repro.noc.topology import (
    ConcentratedMesh,
    FlattenedButterfly,
    Mesh,
    Torus,
)
from repro.core.layouts import diagonal_positions


def _walk(topology, routing, packet, max_hops=64):
    """Follow routing decisions until ejection; return router path."""
    router = topology.router_of_node(packet.src)
    path = [router]
    for _ in range(max_hops):
        port = routing.output_port(router, packet)
        if topology.is_local_port(router, port):
            assert topology.node_at(router, port) == packet.dst
            return path
        neighbor = topology.neighbor(router, port)
        assert neighbor is not None, "routed off the edge of the network"
        router = neighbor[0]
        path.append(router)
    raise AssertionError("packet did not reach its destination")


class TestXYRouting:
    def test_reaches_destination_minimally(self):
        mesh = Mesh(8)
        routing = XYRouting(mesh)
        packet = Packet(src=0, dst=63, num_flits=1, created_at=0)
        path = _walk(mesh, routing, packet)
        assert len(path) - 1 == 14  # manhattan distance

    def test_x_before_y(self):
        mesh = Mesh(8)
        routing = XYRouting(mesh)
        packet = Packet(src=0, dst=58, num_flits=1, created_at=0)  # (7, 2)
        path = _walk(mesh, routing, packet)
        rows = [mesh.coords(r)[0] for r in path]
        cols = [mesh.coords(r)[1] for r in path]
        # Column settles to its final value before the row starts moving.
        first_row_move = next(i for i, r in enumerate(rows) if r != rows[0])
        assert all(c == cols[-1] for c in cols[first_row_move:])

    def test_ejection_at_destination_router(self):
        mesh = Mesh(4)
        routing = XYRouting(mesh)
        packet = Packet(src=5, dst=5, num_flits=1, created_at=0)
        assert routing.output_port(5, packet) == mesh.LOCAL

    def test_rejects_torus(self):
        with pytest.raises(TypeError):
            XYRouting(Torus(4))

    def test_works_on_cmesh(self):
        cmesh = ConcentratedMesh(4, concentration=4)
        routing = XYRouting(cmesh)
        packet = Packet(src=0, dst=63, num_flits=1, created_at=0)
        path = _walk(cmesh, routing, packet)
        assert path[-1] == cmesh.router_of_node(63)

    @given(
        src=st.integers(min_value=0, max_value=63),
        dst=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_minimal(self, src, dst):
        if src == dst:
            return
        mesh = Mesh(8)
        routing = XYRouting(mesh)
        packet = Packet(src=src, dst=dst, num_flits=1, created_at=0)
        path = _walk(mesh, routing, packet)
        sr, sc = mesh.coords(src)
        dr, dc = mesh.coords(dst)
        assert len(path) - 1 == abs(sr - dr) + abs(sc - dc)


class TestTorusXYRouting:
    def test_takes_shortest_way_around(self):
        torus = Torus(8)
        routing = TorusXYRouting(torus)
        packet = Packet(src=0, dst=7, num_flits=1, created_at=0)
        path = _walk(torus, routing, packet)
        assert len(path) - 1 == 1  # wraps west

    def test_dateline_class_changes_on_wrap(self):
        torus = Torus(8)
        routing = TorusXYRouting(torus)
        packet = Packet(src=0, dst=6, num_flits=1, created_at=0)
        assert packet.vc_class == 0
        _walk(torus, routing, packet)
        # 0 -> 7 -> 6 heading west; the 0 -> 7 hop is the wrap.
        assert packet.vc_class == 1

    def test_class_resets_on_dimension_turn(self):
        torus = Torus(8)
        routing = TorusXYRouting(torus)
        # Wraps in X (0 -> 7...), then turns into Y without wrapping.
        packet = Packet(src=0, dst=14, num_flits=1, created_at=0)  # (1, 6)
        _walk(torus, routing, packet)
        assert packet.vc_class == 0

    @pytest.mark.parametrize("size, src, dst", [(8, 48, 8), (4, 13, 5)])
    def test_class_survives_past_the_y_wrap_link(self, size, src, dst):
        """Class 1 from the Y wrap link to the destination: falling back
        to class 0 on the far side closes the ring's dependency cycle."""
        torus = Torus(size)
        routing = TorusXYRouting(torus)
        packet = Packet(src=src, dst=dst, num_flits=1, created_at=0)
        router, classes = torus.router_of_node(src), []
        while not torus.is_local_port(
            router, port := routing.output_port(router, packet)
        ):
            classes.append(packet.vc_class)
            router = torus.neighbor(router, port)[0]
        # south from the source row, over the wrap, then on: 0* 1 1+
        wrap = classes.index(1)
        assert classes[:wrap] == [0] * wrap
        assert classes[wrap:] == [1] * (len(classes) - wrap)
        assert len(classes) - wrap >= 2

    def test_allowed_vcs_split(self):
        torus = Torus(4)
        routing = TorusXYRouting(torus)
        packet = Packet(src=0, dst=2, num_flits=1, created_at=0)
        packet.vc_class = 0
        # Class 0 (pre-dateline, the common case) gets the larger share.
        assert list(routing.allowed_vcs(0, 2, packet, 4)) == [0, 1, 2]
        packet.vc_class = 1
        assert list(routing.allowed_vcs(0, 2, packet, 4)) == [3]
        packet.vc_class = 0
        assert list(routing.allowed_vcs(0, 2, packet, 3)) == [0, 1]
        packet.vc_class = 1
        assert list(routing.allowed_vcs(0, 2, packet, 3)) == [2]

    def test_needs_two_vcs(self):
        torus = Torus(4)
        routing = TorusXYRouting(torus)
        packet = Packet(src=0, dst=2, num_flits=1, created_at=0)
        with pytest.raises(RoutingError):
            routing.allowed_vcs(0, 2, packet, 1)

    @given(
        src=st.integers(min_value=0, max_value=63),
        dst=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_reaches(self, src, dst):
        if src == dst:
            return
        torus = Torus(8)
        routing = TorusXYRouting(torus)
        packet = Packet(src=src, dst=dst, num_flits=1, created_at=0)
        path = _walk(torus, routing, packet)
        from repro.noc.topology import torus_distance

        assert len(path) - 1 == torus_distance(torus, src, dst)


class TestFlattenedButterflyRouting:
    def test_at_most_two_hops(self):
        fbfly = FlattenedButterfly(4, concentration=4)
        routing = FlattenedButterflyRouting(fbfly)
        for src in range(0, 64, 7):
            for dst in range(0, 64, 5):
                if fbfly.router_of_node(src) == fbfly.router_of_node(dst):
                    continue
                packet = Packet(src=src, dst=dst, num_flits=1, created_at=0)
                path = _walk(fbfly, routing, packet)
                assert len(path) - 1 <= 2


class TestMinimalRoutingFactory:
    def test_dispatch(self):
        assert isinstance(minimal_routing_for(Mesh(4)), XYRouting)
        assert isinstance(minimal_routing_for(Torus(4)), TorusXYRouting)
        assert isinstance(
            minimal_routing_for(FlattenedButterfly(4)), FlattenedButterflyRouting
        )
        assert isinstance(minimal_routing_for(ConcentratedMesh(4)), XYRouting)


class TestMaxBigRouterPath:
    def test_path_is_minimal_and_monotone(self):
        mesh = Mesh(8)
        big = diagonal_positions(8)
        path = max_big_router_path(mesh, 0, 63, big)
        assert path[0] == 0 and path[-1] == 63
        assert len(path) - 1 == 14
        # Monotone: every hop moves toward the destination.
        for a, b in zip(path, path[1:]):
            ar, ac = mesh.coords(a)
            br, bc = mesh.coords(b)
            assert (br - ar, bc - ac) in ((1, 0), (0, 1))

    def test_visits_at_least_as_many_big_as_xy(self):
        mesh = Mesh(8)
        big = diagonal_positions(8)
        for src, dst in ((0, 62), (8, 55), (16, 31), (1, 62)):
            staircase = max_big_router_path(mesh, src, dst, big)
            xy = xy_path_routers(mesh, src, dst)
            assert sum(1 for r in staircase if r in big) >= sum(
                1 for r in xy if r in big
            )

    def test_degenerate_same_row(self):
        mesh = Mesh(8)
        path = max_big_router_path(mesh, 0, 7, set())
        assert path == list(range(8))


class TestTableRouting:
    def _routing(self):
        mesh = Mesh(8)
        return mesh, TableRouting(
            mesh,
            big_routers=diagonal_positions(8),
            table_nodes={0, 7, 56, 63},
            escape_vc=0,
        )

    def test_tabled_packet_reaches_destination(self):
        mesh, routing = self._routing()
        packet = Packet(src=0, dst=34, num_flits=1, created_at=0)
        path = _walk(mesh, routing, packet)
        assert path[-1] == 34

    def test_untabled_packet_uses_xy(self):
        mesh, routing = self._routing()
        packet = Packet(src=10, dst=34, num_flits=1, created_at=0)
        xy_packet = Packet(src=10, dst=34, num_flits=1, created_at=0)
        assert _walk(mesh, routing, packet) == _walk(
            mesh, XYRouting(mesh), xy_packet
        )

    def test_tabled_path_maximizes_big_routers(self):
        mesh, routing = self._routing()
        big = diagonal_positions(8)
        path = routing.path_routers(0, 62)
        xy = xy_path_routers(mesh, 0, 62)
        assert sum(r in big for r in path) >= sum(r in big for r in xy)

    def test_escaped_packet_restricted_to_escape_vc(self):
        mesh, routing = self._routing()
        packet = Packet(src=0, dst=34, num_flits=1, created_at=0)
        packet.on_escape = True
        candidates = routing.va_candidates(8, packet, 2, [3] * 5)
        assert all(vc == 0 for _port, vc, _esc in candidates)

    def test_escape_candidate_is_last_and_xy_directed(self):
        mesh, routing = self._routing()
        packet = Packet(src=0, dst=63, num_flits=1, created_at=0)
        route_port = routing.output_port(0, packet)
        candidates = list(
            routing.va_candidates(0, packet, route_port, [3] * 5)
        )
        *normal, escape = candidates
        assert all(not esc for _p, _v, esc in normal)
        assert all(vc != 0 for _p, vc, _e in normal)
        port, vc, escaped = escape
        assert escaped and vc == 0
        xy = XYRouting(mesh)
        assert port == xy.output_port(
            0, Packet(src=0, dst=63, num_flits=1, created_at=0)
        )

    def test_uses_table_predicate(self):
        _, routing = self._routing()
        assert routing.uses_table(Packet(src=0, dst=30, num_flits=1, created_at=0))
        assert routing.uses_table(Packet(src=30, dst=63, num_flits=1, created_at=0))
        assert not routing.uses_table(Packet(src=30, dst=31, num_flits=1, created_at=0))

    def test_rejects_torus(self):
        with pytest.raises(TypeError):
            TableRouting(Torus(8), set(), set())


class TestRouteTables:
    """``build_route_tables``: the precomputed routing tensors.

    The network (and the structure-of-arrays kernel, which refuses to
    run without them) installs ``tables[router][dst] -> out_port`` when
    the discipline is a pure function of (router, destination).  These
    tests pin which disciplines publish tables, that every entry agrees
    with the dynamic ``output_port`` lookup, and that probes carry
    explicit packet ids.
    """

    PURE = [
        (Mesh(4), XYRouting),
        (ConcentratedMesh(4, concentration=4), XYRouting),
        (FlattenedButterfly(4, concentration=4), FlattenedButterflyRouting),
    ]

    @pytest.mark.parametrize(
        "topology,routing_cls", PURE,
        ids=["mesh", "cmesh", "fbfly"],
    )
    def test_tables_match_dynamic_output_port(self, topology, routing_cls):
        routing = routing_cls(topology)
        tables = routing.build_route_tables()
        assert tables is not None
        assert len(tables) == topology.num_routers
        for router, row in enumerate(tables):
            assert len(row) == topology.num_nodes
            for dst, port in enumerate(row):
                packet = Packet(src=0, dst=dst, num_flits=1, created_at=0)
                assert port == routing.output_port(router, packet)

    def test_table_entries_are_legal_ports(self):
        cmesh = ConcentratedMesh(4, concentration=4)
        tables = XYRouting(cmesh).build_route_tables()
        for router, row in enumerate(tables):
            nports = cmesh.num_ports(router)
            assert all(0 <= port < nports for port in row)
            # Destinations attached here map to distinct local ports.
            local = [
                row[dst] for dst in range(cmesh.num_nodes)
                if cmesh.router_of_node(dst) == router
            ]
            assert len(set(local)) == len(local)
            assert all(cmesh.is_local_port(router, p) for p in local)

    def test_stateful_disciplines_publish_no_tables(self):
        """Torus dateline classes and table/escape routing mutate
        per-packet state, so they must keep the dynamic lookup."""
        assert TorusXYRouting(Torus(4)).build_route_tables() is None
        table = TableRouting(
            Mesh(8),
            big_routers=diagonal_positions(8),
            table_nodes={0, 63},
        )
        assert table.build_route_tables() is None

    def test_one_table_per_shape_shared_and_immutable(self):
        """Every network of a shape gets the same tuple of tuples; another
        size, topology class or discipline gets its own."""
        tables = XYRouting(Mesh(4)).build_route_tables()
        assert XYRouting(Mesh(4)).build_route_tables() is tables
        assert isinstance(tables, tuple)
        assert all(isinstance(row, tuple) for row in tables)
        others = [
            XYRouting(Mesh(5)).build_route_tables(),
            XYRouting(Mesh(4, 2)).build_route_tables(),
            XYRouting(ConcentratedMesh(4, concentration=1)).build_route_tables(),
            XYRouting(ConcentratedMesh(4, concentration=4)).build_route_tables(),
            FlattenedButterflyRouting(
                FlattenedButterfly(4, concentration=4)
            ).build_route_tables(),
        ]
        assert len({id(t) for t in others + [tables]}) == 6

    def test_networks_share_tables_unless_faults_rule_them_out(self):
        from repro.core.layouts import baseline_layout, build_network
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import FaultSchedule, FaultSpec

        first = build_network(baseline_layout(4))
        second = build_network(baseline_layout(4))
        for a, b in zip(first.routers, second.routers):
            assert a._route_table is b._route_table
        assert first.routers[0]._route_table is not first.routers[1]._route_table
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="link", router=5, port=2, mode="transient",
                             at=50, repair_after=100),),
            seed=3,
        )
        second.attach_faults(FaultInjector(schedule, second.topology))
        assert all(router._route_table is None for router in second.routers)
        assert first.routers[5]._route_table is not None

    def test_threads_probing_one_shape_end_with_one_table(self):
        """The job server builds networks on several worker threads."""
        import threading

        from repro.noc import routing as routing_module

        shape = Mesh(7)
        barrier = threading.Barrier(4)
        results = []

        def build():
            barrier.wait(timeout=30)
            results.append(XYRouting(shape).build_route_tables())

        before = len(routing_module._PROBED_TABLES)
        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 and all(t is results[0] for t in results)
        assert len(routing_module._PROBED_TABLES) == before + 1

    def test_probe_does_not_consume_packet_ids(self):
        before = Packet(src=0, dst=1, num_flits=1, created_at=0)
        XYRouting(Mesh(4)).build_route_tables()
        after = Packet(src=0, dst=1, num_flits=1, created_at=0)
        assert after.packet_id == before.packet_id + 1, (
            "probe packets must carry explicit ids, not draw the "
            "hand-built-packet default"
        )

    def test_uses_default_va_flags(self):
        """VA-candidate tables are only precomputable for disciplines
        that keep the base-class allowed_vcs/va_candidates."""
        assert XYRouting(Mesh(4)).uses_default_va()
        assert FlattenedButterflyRouting(
            FlattenedButterfly(4, concentration=4)
        ).uses_default_va()
        assert not TorusXYRouting(Torus(4)).uses_default_va()
        assert not TableRouting(
            Mesh(8), big_routers=diagonal_positions(8), table_nodes={0},
        ).uses_default_va()

    def test_table_routing_builds_both_directions_per_endpoint(self):
        mesh = Mesh(8)
        routing = TableRouting(
            mesh,
            big_routers=diagonal_positions(8),
            table_nodes={0, 63},
        )
        for endpoint in (0, 63):
            endpoint_router = mesh.router_of_node(endpoint)
            for other in range(mesh.num_routers):
                if other == endpoint_router:
                    continue
                to = routing.path_routers(endpoint_router, other)
                fro = routing.path_routers(other, endpoint_router)
                assert to[0] == endpoint_router and to[-1] == other
                assert fro[0] == other and fro[-1] == endpoint_router
