"""Differential testing: the cycle kernels against a full-scan reference.

:meth:`Network.step` can be driven by two kernels -- the event-driven
active-set kernel (default) and the compiled C kernel
(``repro.noc.ckernel``, skipped here only when no C compiler exists) --
and both must be *bit-identical* to the full-scan reference of
``tests/full_scan.py`` and to each other: same flit movements, same
arbitration pointer evolution, same activity counters, same delivered
packets, every cycle.
These tests drive all three over a randomized matrix of mesh sizes,
layouts, injection rates, payload sizes and seeds (plus faulty and
observed configurations, which exercise the c kernel's automatic
fallback) and compare a deep per-cycle digest of the complete
simulation state.  Concentrated meshes and flattened butterflies ride
along: several local ports per router, 8 and 10 ports instead of 5, so
the compiled kernel's arena image sees multi-bit ejection masks and
non-trivial node -> (router, port) maps.  Mid-run hand-offs mirror
``tests/test_active_set.py``: flipping between the full-scan reference
and the event kernel, or passing a compiled run through its arena
image, while wormholes are in flight must not perturb a single bit.
"""

import io
import os
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.layouts import build_network, layout_by_name
from repro.exec import SweepPoint
from repro.noc.ckernel import ckernel_available, unavailable_reason
from repro.noc.config import NetworkConfig
from repro.noc.network import Network
from tests.full_scan import full_scan, full_scan_step

KERNELS = NetworkConfig.KERNELS  # ("event", "c")
#: what a differential leg can run: a kernel, or the full-scan reference
LEGS = ("event", "full_scan", "c")


def _use_leg(net, leg):
    """Make ``net`` run ``leg`` (a kernel name or ``"full_scan"``)."""
    if leg == "full_scan":
        full_scan(net)
    else:
        net.use_kernel(leg)
    return net

#: skip-or-run marker for tests that *require* the compiled kernel: on a
#: compilerless host they skip (the fallback ladder has its own tests in
#: tests/test_ckernel.py), everywhere else they must really run it.
needs_ckernel = pytest.mark.skipif(
    not ckernel_available(),
    reason=f"compiled kernel unavailable: {unavailable_reason()}",
)


def _digest(net):
    """Deep per-cycle state digest: anything that can diverge shows here,
    the always-on counters included (activities, per-port link flits and
    busy cycles, clean deliveries), which run whether or not a window is
    open.  A network on the compiled kernel is read from its arena
    image."""
    if net._ck is not None:
        return _arena_digest(net)
    routers = []
    for router in net.routers:
        allocator = router.allocator
        routers.append((
            router.occupied_flits,
            router._va_offset,
            tuple(router._port_active),
            tuple(tuple(credits) for credits in router.out_credits),
            tuple(tuple(owners) for owners in router.out_vc_owner),
            tuple(arb._next for arb in allocator.input_stage),
            tuple(arb._next for arb in allocator.output_stage),
            tuple(arb._next for arb in allocator.second_output_stage),
            tuple(vars(router.activity).values()),
            tuple(net._link_flits[router.router_id]),
            tuple(net._link_busy[router.router_id]),
            tuple(
                (
                    port,
                    vc,
                    state.packet_id,
                    state.route_port,
                    state.out_vc,
                    tuple(
                        (f.packet.packet_id, f.index, f.ready_at)
                        for f in state.queue
                    ),
                )
                for port in range(router.num_ports)
                for vc in range(router.num_vcs)
                if (state := router._vc_states[port][vc]).queue
                or state.packet_id is not None
            ),
        ))
    events = tuple(
        (when, tuple((r, p, v, f.packet.packet_id, f.index) for r, p, v, f in evs))
        for when, evs in sorted(net._arrivals.items())
    )
    credits = tuple(
        (when, tuple(evs)) for when, evs in sorted(net._credits.items())
    )
    return (
        net.cycle,
        net.packets_in_flight,
        net.total_delivered,
        net._clean_flits,
        tuple(routers),
        events,
        credits,
    )


def _arena_digest(net):
    """:func:`_digest` of a network on the compiled kernel, decoded from
    ``CKernel.image()`` (the layout ``ck_dump`` documents in
    ``_ckernel.c``) into the same tuple the object model gives."""
    import ctypes
    from array import array

    from repro.noc import ckernel

    ck = net._ck
    words = array("q", ck.image())
    R, P, V, nnodes, D, cal_sz = words[1:7]
    cycle, _, pk_top, _ = words[7:11]
    assert (R, P, V, nnodes, D, cal_sz, cycle) == (
        ck.R, ck.P, ck.V, ck.nnodes, ck.D, ck.cal_sz, net.cycle
    )
    RP, L = R * P, R * P * V

    def address(aid):
        return ctypes.addressof(ck._arr(aid).contents)

    def offset(aid):
        """Where array ``aid`` sits in the image's copy of the dynamic
        block (it starts at ``A_ST_PID`` and ends with ``A_LB``)."""
        return 11 + (address(aid) - address(ckernel.A_ST_PID)) // 8

    def arr(aid, n):
        return words[offset(aid):offset(aid) + n]

    at = offset(ckernel.A_LB) + RP
    for _ in range(nnodes):  # source rings: not part of the digest
        at += 1 + words[at]
    buckets = ({}, {})  # when -> arrival / credit ints
    for index in range(2 * cal_sz):
        n = words[at]
        if n:
            when = cycle + (index // 2 - cycle) % cal_sz
            buckets[index % 2][when] = words[at + 1:at + 1 + n]
        at += 1 + n
    pk_id = words[at:at + pk_top]

    st_pid, st_route = arr(ckernel.A_ST_PID, L), arr(ckernel.A_ST_ROUTE, L)
    st_outvc = arr(ckernel.A_ST_OUTVC, L)
    cred, owner = arr(ckernel.A_CRED, L), arr(ckernel.A_OWNER, L)
    occ = arr(ckernel.A_OCC, RP)
    arbiters = [arr(aid, RP) for aid in (
        ckernel.A_IN_NEXT, ckernel.A_OUT_NEXT, ckernel.A_SEC_NEXT
    )]
    occupied, va_off = arr(ckernel.A_OCCUPIED, R), arr(ckernel.A_VA_OFF, R)
    qs_pkt, qs_seq = arr(ckernel.A_QS_PKT, L * D), arr(ckernel.A_QS_SEQ, L * D)
    qs_ready = arr(ckernel.A_QS_READY, L * D)
    qhead, qlen = arr(ckernel.A_QHEAD, L), arr(ckernel.A_QLEN, L)
    pending = {field: arr(aid, R) for aid, field in ckernel._ACTIVITY_FIELDS}
    pending_flits, pending_busy = arr(ckernel.A_LF, RP), arr(ckernel.A_LB, RP)
    shape = net._shape
    routers = []
    for rid, activity in enumerate(net._activities):
        ports = range(shape.num_ports[rid])
        lanes = []
        for port in ports:
            for vc in range(shape.configs[rid].num_vcs):
                lane = (rid * P + port) * V + vc
                queue = tuple(
                    (pk_id[qs_pkt[slot]], qs_seq[slot], qs_ready[slot])
                    for slot in (
                        lane * D + (qhead[lane] + i) % D
                        for i in range(qlen[lane])
                    )
                )
                if queue or st_pid[lane] != -1:
                    lanes.append((
                        port, vc,
                        None if st_pid[lane] == -1 else st_pid[lane],
                        None if st_route[lane] == -1 else st_route[lane],
                        None if st_outvc[lane] == -2 else st_outvc[lane],
                        queue,
                    ))
        downstream = [
            range((rid * P + port) * V,
                  (rid * P + port) * V + shape.out_vcs[rid][port])
            for port in ports
        ]
        routers.append((
            occupied[rid],
            va_off[rid],
            tuple(occ[rid * P + port].bit_count() for port in ports),
            tuple(tuple(cred[i] for i in vcs) for vcs in downstream),
            tuple(
                tuple(None if owner[i] == -1 else owner[i] for i in vcs)
                for vcs in downstream
            ),
            *(tuple(stage[rid * P + port] for port in ports)
              for stage in arbiters),
            tuple(
                value + pending[field][rid] if field in pending else value
                for field, value in vars(activity).items()
            ),
            *(
                tuple(totals[rid][port] + counts[rid * P + port]
                      for port in ports)
                for totals, counts in ((net._link_flits, pending_flits),
                                       (net._link_busy, pending_busy))
            ),
            tuple(lanes),
        ))
    events = tuple(
        (when, tuple(
            (raw[e], raw[e + 1], raw[e + 2], pk_id[raw[e + 3]], raw[e + 4])
            for e in range(0, len(raw), 5)
        ))
        for when, raw in sorted(buckets[0].items())
    )
    credits = tuple(
        (when, tuple(
            (raw[e], raw[e + 1], raw[e + 2], bool(raw[e + 3]))
            for e in range(0, len(raw), 4)
        ))
        for when, raw in sorted(buckets[1].items())
    )
    return (
        net.cycle,
        net.packets_in_flight,
        net.total_delivered,
        net._clean_flits,
        tuple(routers),
        events,
        credits,
    )


def _concentrated(topology, width, concentration, **config):
    """A homogeneous cmesh / fbfly network (``width``^2 routers, each
    with ``concentration`` local ports); ``config`` overrides
    :class:`NetworkConfig` fields."""
    net = SweepPoint(
        topology=topology, mesh_size=width, concentration=concentration
    ).build_network()
    if config:
        net = Network(net.topology, net.router_configs, NetworkConfig(**config))
    return net


#: (topology, width, concentration): 16, 64 and 18 nodes; 8 ports per
#: cmesh router, 6-10 per fbfly router.
CONCENTRATED = [
    (topology, width, concentration)
    for topology in ("cmesh", "fbfly")
    for width, concentration in ((2, 4), (4, 4), (3, 2))
]


def _run_one(leg, mesh_size, layout, rate, seed, cycles, payload_bits,
             net=None, **config):
    """Drive one leg with deterministic traffic; return digests.
    A freshly built ``net`` replaces the ``layout`` mesh; ``config``
    overrides the mesh's :class:`NetworkConfig` fields."""
    if net is None:
        net = build_network(layout_by_name(layout, mesh_size), **config)
    _use_leg(net, leg)
    rng = random.Random(seed)
    num_nodes = net.topology.num_nodes
    digests = []
    delivered = []
    net.on_delivery = lambda packet, cycle: delivered.append(
        (packet.packet_id, packet.src, packet.dst, cycle, packet.hops,
         packet.min_lanes)
    )
    for _ in range(cycles):
        for node in range(num_nodes):
            if rng.random() < rate:
                dst = rng.randrange(num_nodes)
                if dst != node:
                    net.enqueue(
                        net.make_packet(node, dst, payload_bits=payload_bits)
                    )
        net.step()
        digests.append(_digest(net))
    # Let in-flight traffic settle (bounded, in case of congestion).
    settle = 0
    while not net.idle() and settle < 3000:
        net.step()
        digests.append(_digest(net))
        settle += 1
    return digests, delivered


def _assert_same(reference, other, name):
    assert reference[1] == other[1], (
        f"delivered-packet records diverged (event vs {name})"
    )
    assert len(reference[0]) == len(other[0]), (
        f"kernels ran different cycle counts (event vs {name})"
    )
    for cycle_index, (a, b) in enumerate(zip(reference[0], other[0])):
        assert a == b, f"state digest diverged at step {cycle_index} ({name})"


#: the default link delay, credit delay and router pipeline depth
DEFAULT_TIMING = {"link_delay": 1, "credit_delay": 1, "router_pipeline_stages": 2}


def _every_concentrated_shape(test):
    """Pin one explicit example per concentrated shape, so none depends
    on what hypothesis happens to draw."""
    for shape in CONCENTRATED:
        test = example(
            mesh_size=2, layout="baseline", rate=0.15, seed=2011,
            payload_bits=1024, concentrated=shape, **DEFAULT_TIMING,
        )(test)
    return test


def _wrap_edges(test):
    """Pin the edges of the C kernel's wrapped indices: a calendar of 4
    buckets (a link delay of 3: arrivals land up to three buckets past
    the running cycle's and wrap), and a loaded 4x4 mesh of 6-flit
    packets in 5-deep flit rings, where 188 of the 192 lanes that carry
    flits see a packet straddle the ring's wrap."""
    test = example(
        mesh_size=3, layout="diagonal+BL", rate=0.2, seed=7,
        payload_bits=1024, concentrated=None,
        link_delay=3, credit_delay=2, router_pipeline_stages=2,
    )(test)
    return example(
        mesh_size=4, layout="baseline", rate=0.35, seed=2,
        payload_bits=1024, concentrated=None, **DEFAULT_TIMING,
    )(test)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    mesh_size=st.sampled_from([2, 3, 4]),
    layout=st.sampled_from(["baseline", "diagonal+BL"]),
    rate=st.floats(min_value=0.01, max_value=0.35),
    seed=st.integers(min_value=0, max_value=2**16),
    payload_bits=st.sampled_from([64, 1024]),
    concentrated=st.sampled_from([None] + CONCENTRATED),
    link_delay=st.sampled_from([1, 2, 3]),
    credit_delay=st.sampled_from([1, 2, 3]),
    router_pipeline_stages=st.sampled_from([1, 2, 3]),
)
@_every_concentrated_shape
@_wrap_edges
def test_kernels_bit_identical(
    mesh_size, layout, rate, seed, payload_bits, concentrated, **timing
):
    """``concentrated`` (a cmesh/fbfly shape) replaces the layout mesh;
    ``timing`` sets the link and credit delays (the C calendar has
    ``max(credit delay, link delay) + 1`` buckets) and the pipeline
    depth."""

    def run(name):
        net = concentrated and _concentrated(*concentrated, **timing)
        return _run_one(
            name, mesh_size, layout, rate, seed, 120, payload_bits, net=net,
            **timing,
        )

    event = run("event")
    others = ["full_scan"]
    if ckernel_available():
        others.append("c")
    for name in others:
        _assert_same(event, run(name), name)


@pytest.mark.parametrize("layout", ["baseline", "diagonal+B", "diagonal+BL"])
def test_kernels_loaded_smoke(layout):
    """One fixed loaded point per layout, every leg (fast determinism
    check that runs without hypothesis -- the CI ckernel-smoke subset).
    On a compilerless host the ``"c"`` run transparently degrades to
    event, which must *still* be bit-identical."""
    runs = {
        name: _run_one(name, 4, layout, 0.20, 1234, 150, 1024)
        for name in LEGS
    }
    _assert_same(runs["event"], runs["full_scan"], "full_scan")
    _assert_same(runs["event"], runs["c"], "c")


@pytest.mark.parametrize("leg", ["full_scan", "c"])
def test_kernels_match_event_under_faults(leg):
    """Faulty runs: the full-scan reference really steps, a requested c
    kernel transparently falls back to the event kernel -- both must
    match it bit-for-bit."""
    from repro.faults.schedule import FaultSchedule, FaultSpec
    from repro.traffic.patterns import pattern_by_name
    from repro.traffic.runner import run_synthetic

    def run(name):
        net = _use_leg(build_network(layout_by_name("baseline", 4)), name)
        faults = FaultSchedule(
            specs=(
                FaultSpec(kind="link", router=5, port=2, mode="transient",
                          at=150, repair_after=200),
                FaultSpec(kind="router", router=10, mode="transient",
                          at=260, repair_after=120),
            ),
            seed=3,
        )
        result = run_synthetic(
            net, pattern_by_name("uniform_random", net.topology),
            0.08, seed=11, faults=faults,
            warmup_packets=80, measure_packets=300,
        )
        if name == "c":
            # Dynamic (fault-aware) routing forces the fallback.
            assert net.active_kernel == "event"
        stats = net.stats
        return (
            result.total_cycles,
            stats.packets_offered,
            len(stats.records),
            sorted(
                (r.packet_id, r.total, r.hops, r.transfer, r.blocking)
                for r in stats.records
            ),
            _digest(net),
        )

    assert run("event") == run(leg)


def test_switching_kernels_mid_run_is_safe():
    """The full-scan reference and plain ``step()`` share one network's
    state, so alternating between them mid-run (e.g. to bisect a
    divergence) must not lose any traffic."""
    net = build_network(layout_by_name("baseline", 3))
    rng = random.Random(7)
    num_nodes = net.topology.num_nodes
    offered = 0
    scanning = False
    for step_index in range(300):
        if step_index in (60, 120, 180, 240):
            scanning = not scanning
        for node in range(num_nodes):
            if rng.random() < 0.1:
                dst = rng.randrange(num_nodes)
                if dst != node:
                    net.enqueue(net.make_packet(node, dst))
                    offered += 1
        if scanning:
            full_scan_step(net)
        else:
            net.step()
    net.drain()
    assert net.total_delivered == offered
    assert net.total_buffered_flits() == 0


@pytest.mark.parametrize(
    "pivot, concentrated",
    [
        pytest.param("full_scan", None, id="full_scan"),
        pytest.param("c", None, id="c", marks=needs_ckernel),
    ] + [
        pytest.param(
            "c", (topology, width, concentration), marks=needs_ckernel,
            id=f"c-{topology}-{width}x{width}c{concentration}",
        )
        for topology, width, concentration in CONCENTRATED
    ],
)
def test_mid_run_switch_is_bit_identical(pivot, concentrated):
    """A hand-off mid-wormhole must not perturb a single bit: the event
    kernel for the whole run == switching to the full-scan reference
    and back.  The c kernel is chosen before the first step and never
    hands its run to the object model, so its legs hand the run over
    the way a c run can: at the same cycles the network goes through
    its arena image (captured, pickled and restored), and the c run
    must still equal the event one (on the concentrated shapes three
    times over)."""
    from repro.noc.snapshot import capture, dumps, loads

    schedule = {80: pivot, 160: "event"}
    if concentrated:
        schedule = {60: pivot, 120: "event", 180: pivot}

    def run(switch):
        if concentrated:
            net = _concentrated(*concentrated)
        else:
            net = build_network(layout_by_name("diagonal+BL", 4))
        if switch and pivot == "c":
            net.use_kernel("c")
        rng = random.Random(99)
        num_nodes = net.topology.num_nodes
        leg = "event"
        for step_index in range(240):
            if switch and step_index in schedule:
                leg = schedule[step_index]
                if pivot == "c":
                    assert net.active_kernel == "c"
                    net = loads(dumps(capture(net)))
            for node in range(num_nodes):
                if rng.random() < 0.15:
                    dst = rng.randrange(num_nodes)
                    if dst != node:
                        net.enqueue(net.make_packet(node, dst))
            if leg == "full_scan":
                full_scan_step(net)
            else:
                net.step()
        net.drain()
        return _digest(net)

    assert run(False) == run(True)


def test_kernel_env_overrides():
    """REPRO_KERNEL selects the kernel at construction, over the config
    field."""
    try:
        os.environ["REPRO_KERNEL"] = "c"
        net = build_network(layout_by_name("baseline", 2))
        assert net.kernel == "c"
    finally:
        del os.environ["REPRO_KERNEL"]
    net = build_network(layout_by_name("baseline", 2))
    assert net.kernel == "event"
    assert all(r._route_table is not None for r in net.routers)


def test_full_scan_reference_scans_everything(monkeypatch):
    """The reference's own guard: every cycle it steps, every router and
    every source is in the active sets and no router holds a route or
    VA table; between its cycles the network's tables are back."""
    net = full_scan(build_network(layout_by_name("diagonal+BL", 3)))
    seen = []
    step = Network.step

    def watching(net, span=None):
        seen.append((
            net._active_routers == set(range(len(net.routers))),
            net._active_sources == set(range(net.topology.num_nodes)),
            all(r._route_table is None and r._va_table is None
                for r in net.routers),
        ))
        return step(net, span)

    monkeypatch.setattr(Network, "step", watching)
    net.enqueue(net.make_packet(0, 8))
    net.drain()
    assert net.total_delivered == 1
    assert len(seen) == net.cycle > 0
    assert all(all(cycle) for cycle in seen), seen
    assert all(r._route_table is not None for r in net.routers)


def _via_config(name, monkeypatch, capsys):
    NetworkConfig(kernel=name)


def _via_env(name, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_KERNEL", name)
    build_network(layout_by_name("baseline", 2))


def _via_use_kernel(name, monkeypatch, capsys):
    build_network(layout_by_name("baseline", 2)).use_kernel(name)


def _via_sweep_point(name, monkeypatch, capsys):
    from repro.exec import SweepPoint

    SweepPoint(layout="baseline", mesh_size=2, kernel=name)


def _via_run_all(name, monkeypatch, capsys):
    from repro.experiments import run_all

    assert run_all.main(["--kernel", name, "--list"]) == 2
    raise ValueError(capsys.readouterr().out)


def _via_bench(name, monkeypatch, capsys):
    from repro.noc import bench

    with pytest.raises(SystemExit) as excinfo:
        bench.main(["--kernel", name, "--no-history"])
    assert excinfo.value.code == 2
    raise ValueError(capsys.readouterr().err)


@pytest.mark.parametrize("name", ["soa", "vectorized", "naive"])
@pytest.mark.parametrize(
    "door",
    [_via_config, _via_env, _via_use_kernel, _via_sweep_point, _via_run_all,
     _via_bench],
)
def test_unknown_kernel_rejected_everywhere(door, name, monkeypatch, capsys):
    """A kernel name outside ``NetworkConfig.KERNELS`` -- the removed
    ``"soa"`` and ``"naive"`` included, there is no alias -- fails
    loudly at every door
    it can arrive through, and the message names the valid kernels.
    (A served job carrying it gets a 400: ``tests/test_serve.py``.)"""
    with pytest.raises(ValueError) as excinfo:
        door(name, monkeypatch, capsys)
    message = str(excinfo.value)
    assert name in message
    for kernel in KERNELS:
        assert repr(kernel) in message, message


def _attach_watchdog(net):
    from repro.faults import Watchdog

    net.attach_watchdog(Watchdog(stall_window=10_000, check_interval=64))


def _attach_observer(net):
    from repro.obs.hooks import Observer

    net.attach_observer(Observer())


def _attach_faults(net):
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule

    net.attach_faults(FaultInjector(FaultSchedule(specs=()), net.topology))


def _set_dynamic_routing(net):
    from repro.noc.routing import XYRouting

    class DynamicXY(XYRouting):
        def build_route_tables(self):
            return None

    net.routing = DynamicXY(net.topology)


def _use_event_kernel(net):
    net.use_kernel("event")


@needs_ckernel
@pytest.mark.parametrize(
    "attach, cause",
    [
        (_attach_watchdog, "a watchdog"),
        (_attach_observer, "an observer"),
        (_attach_faults, "a fault injector"),
        (_set_dynamic_routing, "routing is dynamic"),
        (_use_event_kernel, "the event kernel drives"),
    ],
    ids=["watchdog", "observer", "faults", "routing", "use_kernel"],
)
def test_ckernel_falls_back_when_hooks_attached(attach, cause):
    """Watchdogs, observation hooks, fault injectors and dynamic routing
    need the per-flit object datapath, and the kernel is chosen before
    the first step: given then, a requested c kernel falls back to event
    for the whole run, ``span_blocker()`` names the cause and c cannot
    be started later; once the c arena is live, the same call raises
    instead of evicting the kernel."""
    net = build_network(layout_by_name("baseline", 3))
    net.use_kernel("c")
    attach(net)
    net.enqueue(net.make_packet(0, 8))
    net.step()
    assert net.active_kernel == "event", "must run the event kernel"
    assert cause in net.span_blocker()
    with pytest.raises(RuntimeError, match="before the first step"):
        net.use_kernel("c")  # the object model has stepped
    net.drain()
    assert net.total_delivered == 1

    net = build_network(layout_by_name("baseline", 3))
    net.use_kernel("c")
    net.enqueue(net.make_packet(0, 8))
    net.step()
    assert net.active_kernel == "c"
    with pytest.raises(RuntimeError, match="c kernel is live"):
        attach(net)
    assert net.active_kernel == "c"
    assert net.kernel == "c", "the *requested* kernel is unchanged"


def test_route_tables_match_dynamic_routing():
    """Precomputed (router, dest) tables agree with per-packet RC."""
    net = build_network(layout_by_name("diagonal+BL", 4))
    routing = net.routing
    for router in net.routers:
        table = router._route_table
        assert table is not None
        for dst in range(net.topology.num_nodes):
            probe = net.make_packet(src=0, dst=dst)
            assert table[dst] == routing.output_port(router.router_id, probe)


def test_route_tables_cleared_under_faults():
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule

    net = build_network(layout_by_name("baseline", 3))
    assert all(r._route_table is not None for r in net.routers)
    injector = FaultInjector(FaultSchedule(specs=()), net.topology)
    net.attach_faults(injector)
    assert all(r._route_table is None for r in net.routers)


@pytest.mark.parametrize("layout", ["baseline", "diagonal+BL"])
def test_va_tables_follow_routing_kind(layout):
    """XY routing precomputes VA candidates; probe one router's table."""
    net = build_network(layout_by_name(layout, 3))
    router = net.routers[0]
    assert router._va_table is not None
    for port in range(router.num_ports):
        expected = [(port, vc, False) for vc in range(router.out_vc_count[port])]
        assert list(router._va_table[port]) == expected


# -- network shapes: built once per process, routers only on demand -------------
def _count_routers(monkeypatch):
    """Count Router constructions from here on (a one-element list)."""
    from repro.noc.router import Router

    built = [0]
    init = Router.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Router, "__init__", counting_init)
    return built


def _shape_point(kernel, **fields):
    from repro.exec import SweepPoint

    fields.setdefault("layout", "diagonal+BL")
    fields.setdefault("mesh_size", 8)
    fields.setdefault("rate", 0.05)
    return SweepPoint(
        kernel=kernel, seed=3, warmup_packets=100, measure_packets=600,
        **fields,
    )


def _shape_result(kernel):
    """``execute_point`` of the shape test point, minus the spec key (the
    kernel is part of it)."""
    from repro.exec import execute_point

    result = execute_point(_shape_point(kernel)).to_dict()
    del result["key"]
    return result


@needs_ckernel
class TestNetworkShape:
    def test_span_driven_point_builds_no_router(self, monkeypatch):
        built = _count_routers(monkeypatch)
        result = _shape_result("c")
        assert built[0] == 0
        assert result == _shape_result("event")
        assert built[0] == 64  # the event kernel builds them at its first step

    def test_networks_of_one_shape_are_independent(self):
        import pickle

        first = _shape_point("c").build_network()
        second = _shape_point("event").build_network()
        shape = first._shape
        assert second._shape is shape
        expected = _shape_result("event")
        assert _shape_result("c") == expected
        before = pickle.dumps(vars(shape))
        assert shape.arena is not None
        assert _shape_result("event") == expected
        assert _shape_result("c") == expected
        assert pickle.dumps(vars(shape)) == before

    def test_arena_image_fills_the_first_block_exactly(self):
        """The image ends where ``ck_new``'s block does: after the last
        of its arrays, ``A_CREDOK`` (one int64 per router port)."""
        import ctypes

        from repro.noc.ckernel import A_CREDOK, A_NPORTS

        net = build_network(layout_by_name("diagonal+BL", 8))
        net.use_kernel("c")
        assert net.span_blocker() is None
        ck = net._ck
        start = ctypes.addressof(ck._arr(A_NPORTS).contents)
        last = ctypes.addressof(ck._arr(A_CREDOK).contents)
        assert start + len(net._shape.arena[1]) == last + 8 * ck.RP

    def test_c_checkpoint_and_restore_build_no_router(
        self, monkeypatch, tmp_path
    ):
        """A checkpoint of a c run pickles the arena image, not an object
        model: taking it, restoring it and resuming from it construct no
        Router, the payload holds no Router or Flit, and the resumed
        point equals the uninterrupted one."""
        import pickle
        import shutil

        from repro.exec import execute_point
        from repro.exec.point import checkpoint_path_for
        from repro.noc.snapshot import load_snapshot
        from repro.traffic.patterns import pattern_by_name
        from repro.traffic.runner import run_synthetic

        built = _count_routers(monkeypatch)
        point = _shape_point("c")
        net = point.build_network()
        path = tmp_path / "run.ckpt"
        run_synthetic(
            net, pattern_by_name(point.pattern, net.topology), point.rate,
            warmup_packets=point.warmup_packets,
            measure_packets=point.measure_packets, seed=point.seed,
            checkpoint_every=25, checkpoint_path=path,
        )
        run = load_snapshot(path)  # the run's last checkpoint
        assert run.network.active_kernel == "c"
        pickled = set()

        class Recording(pickle.Pickler):
            def reducer_override(self, obj):
                pickled.add(type(obj).__name__)
                return NotImplemented

        Recording(io.BytesIO()).dump(run)
        assert "CKernel" in pickled and "Packet" in pickled
        assert not pickled & {"Router", "Flit", "_VCState"}, pickled

        expected = execute_point(point).to_dict()
        checkpoints = tmp_path / "checkpoints"
        checkpoints.mkdir()
        shutil.copy(path, checkpoint_path_for(point, checkpoints))
        resumed = execute_point(
            point, checkpoint_every=10_000, checkpoint_dir=checkpoints
        ).to_dict()
        assert resumed == expected
        assert built[0] == 0

    def test_memo_stays_at_its_bound_under_a_placement_search(self):
        from repro.noc import network
        from repro.search.refine import refine_placements

        placements = [(a, b) for a in range(4) for b in range(12, 16)]
        assert len(placements) > network.SHAPE_MEMO_SIZE
        records = refine_placements(
            placements, 4, rate=0.05, measure_packets=20, warmup_packets=5,
            kernel="c", cache=None,
        )
        assert len(records) == len(placements)
        assert len(network._SHAPES) == network.SHAPE_MEMO_SIZE

    def test_memo_under_concurrent_builds(self):
        """Threads building networks at once share one shape per layout
        and leave the memo within its bound."""
        import sys
        import threading

        from repro.noc import network

        layouts = ("baseline", "center+BL", "diagonal+BL")
        shapes = {name: set() for name in layouts}

        def build(offset):
            for i in range(12):
                name = layouts[(offset + i) % len(layouts)]
                net = build_network(layout_by_name(name, 4))
                shapes[name].add(id(net._shape))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=build, args=(k,)) for k in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert all(len(ids) == 1 for ids in shapes.values())
        assert len(network._SHAPES) <= network.SHAPE_MEMO_SIZE
