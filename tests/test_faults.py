"""Fault-injection, resilience and watchdog tests.

Covers the acceptance criteria of the resilience subsystem:

* a 5% transient link-fault rate on the 4x4 mesh delivers 100% of
  measured packets through NI retransmission (fixed seed);
* permanent router kills lose exactly the unreachable packets, and
  every one of them is an *explicit* loss (full accounting);
* a hand-built routing cycle deadlocks and the watchdog names the
  blocked routers/VCs within its window, with the same diagnosis on both
  kernels; without a watchdog, the NI's timeout purges the wedged
  wormholes and delivers every packet;
* a synthetically leaked credit trips the ``REPRO_CHECK`` invariant
  suite within one check interval, on either kernel;
* fault-free runs never trip the invariants on either kernel (property
  test), and a golden reference run is byte-identical with
  ``REPRO_CHECK=1``;
* fault schedules ride inside sweep points: hashing, caching and JSON
  round-trips.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layouts import build_network, layout_by_name
from repro.exec import SweepPoint, run_sweep
from repro.exec.point import PointResult, execute_point
from repro.faults import (
    FAULT_KINDS,
    FAULT_MODES,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    InvariantViolation,
    SimulationStalled,
    Watchdog,
    check_network_invariants,
    kill_routers,
)
from repro.noc.ckernel import A_CRED, ckernel_available, unavailable_reason
from repro.noc.config import RouterConfig
from repro.noc.network import Network
from repro.noc.routing import Routing
from repro.noc.topology import Mesh
from repro.traffic.patterns import pattern_by_name
from repro.traffic.runner import run_synthetic

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "golden_runs.json"

needs_ckernel = pytest.mark.skipif(
    not ckernel_available(),
    reason=f"compiled kernel unavailable: {unavailable_reason()}",
)
KERNELS = ["event", pytest.param("c", marks=needs_ckernel)]


def _build(mesh_size=4, layout="baseline"):
    network = build_network(
        layout_by_name(layout, mesh_size), topology=Mesh(mesh_size)
    )
    pattern = pattern_by_name("uniform_random", network.topology)
    return network, pattern


def _channel_pairs(topology):
    """One ``(router, port)`` handle per full-duplex channel: the
    direction met first in ``topology.channels()``."""
    seen = set()
    handles = []
    for src, sport, dst, dport in topology.channels():
        if (dst, dport, src, sport) not in seen:
            seen.add((src, sport, dst, dport))
            handles.append((src, sport))
    return handles


# -- schedules ride inside sweep points ---------------------------------------
class TestSchedules:
    def test_schedule_json_round_trip(self):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(kind="router", router=5),
                FaultSpec(kind="link", router=1, port=2, mode="transient",
                          at=10, repair_after=50),
                FaultSpec(kind="link", router=3, port=1, at=20),
                FaultSpec(kind="router", router=2, mode="transient",
                          at=5, repair_after=8),
            ),
            seed=42,
            retransmit_timeout=128,
            max_retries=3,
            backoff_factor=1.5,
        )
        payload = schedule.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert FaultSchedule.from_dict(payload) == schedule

    def test_spec_validation(self):
        assert FAULT_KINDS == ("link", "router")
        assert FAULT_MODES == ("permanent", "transient")
        for kind in ("meteor", "vc_stuck", "bit_flip", "link_degrade"):
            with pytest.raises(ValueError):
                FaultSpec(kind=kind, router=0, port=1)
        with pytest.raises(ValueError):
            FaultSpec(kind="link", router=0)  # port required
        with pytest.raises(ValueError):
            FaultSpec(kind="router", router=0, port=1)
        with pytest.raises(ValueError):
            FaultSpec(kind="link", router=0, port=1, mode="transient")
        with pytest.raises(ValueError):
            FaultSpec(kind="link", router=0, port=1, mode="intermittent")
        with pytest.raises(TypeError):  # a retired field
            FaultSpec.from_dict({"kind": "link", "router": 0, "port": 1,
                                 "rate": 0.01})

    def test_from_dict_rejects_unknown_keys(self):
        """A typo in a served job's schedule is an error, not a default
        (``max_retry`` used to run with ``max_retries=8``)."""
        payload = kill_routers([5]).to_dict()
        with pytest.raises(ValueError, match="max_retry"):
            FaultSchedule.from_dict({**payload, "max_retry": 2})

    def test_sweep_point_spec_omits_faults_when_absent(self):
        point = SweepPoint(mesh_size=4, rate=0.05)
        assert "faults" not in point.spec_dict()

    def test_sweep_point_key_changes_with_faults(self):
        base = SweepPoint(mesh_size=4, rate=0.05)
        faulty = SweepPoint(mesh_size=4, rate=0.05, faults=kill_routers([5]))
        assert base.key() != faulty.key()

    def test_sweep_point_coerces_dict_schedule(self):
        schedule = kill_routers([5], retransmit_timeout=64)
        via_obj = SweepPoint(mesh_size=4, rate=0.05, faults=schedule)
        via_dict = SweepPoint(
            mesh_size=4, rate=0.05, faults=schedule.to_dict()
        )
        assert via_dict.faults == schedule
        assert via_dict.key() == via_obj.key()

    def test_point_result_tolerates_legacy_payloads(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        payload = next(iter(golden.values()))["result"]
        assert "resilience" not in payload
        result = PointResult.from_dict(payload)
        assert result.resilience is None
        assert result.error is None


# -- resilience mechanisms -----------------------------------------------------
class TestResilience:
    def test_transient_link_faults_deliver_every_measured_packet(self):
        """Acceptance: 5% of channels suffer transient link faults; the
        NI retransmission layer still delivers 100% of the measured
        packets (fixed seed, zero explicit losses)."""
        network, pattern = _build()
        channels = _channel_pairs(network.topology)
        count = max(1, round(0.05 * len(channels)))
        schedule = FaultSchedule(
            specs=tuple(
                FaultSpec(kind="link", router=router, port=port,
                          mode="transient", at=100 + 37 * i, repair_after=400)
                for i, (router, port) in enumerate(channels[:count])
            ),
        )
        result = run_synthetic(
            network, pattern, 0.05, warmup_packets=50, measure_packets=300,
            seed=3, faults=schedule,
        )
        assert len(result.stats.records) == 300
        assert result.lost_measured_packets == 0
        assert not result.saturated

    def test_repeated_transient_link_episodes_recovered(self):
        """A channel that fails, repairs and fails again is a list of
        transient specs; every episode applies and repairs, and the NI
        still delivers every measured packet."""
        network, pattern = _build()
        channels = _channel_pairs(network.topology)[:3]
        schedule = FaultSchedule(
            specs=tuple(
                FaultSpec(kind="link", router=router, port=port,
                          mode="transient", at=60 + 150 * episode + 20 * i,
                          repair_after=40)
                for episode in range(2)
                for i, (router, port) in enumerate(channels)
            ),
        )
        result = run_synthetic(
            network, pattern, 0.05, warmup_packets=50, measure_packets=250,
            seed=5, faults=schedule,
        )
        assert len(result.stats.records) == 250
        assert result.lost_measured_packets == 0
        assert result.resilience["fault_events"] == 12  # 6 applies + 6 repairs

    def test_overlapping_faults_keep_a_channel_dead_until_the_last_repair(self):
        """Fault effects are refcounted: a link fault and a fault of the
        router at its far end share both channel ends, and the channel
        lives again only when both have repaired."""
        network, _ = _build()
        router, port = 5, 2
        far = network.topology.neighbor(router, port)
        schedule = FaultSchedule(
            specs=(
                FaultSpec(kind="link", router=router, port=port,
                          mode="transient", at=10, repair_after=100),
                FaultSpec(kind="router", router=far[0], mode="transient",
                          at=50, repair_after=20),
            ),
        )
        injector = FaultInjector(schedule, network.topology)
        network.attach_faults(injector)
        ends = {(router, port), far}
        seen = []
        for cycle in (0, 10, 50, 70, 110):
            injector.tick(network, cycle)
            seen.append((
                ends <= injector.dead_ports,
                far[0] in injector.dead_routers,
                injector.topology_epoch,
            ))
        assert seen == [
            (False, False, 0),
            (True, False, 1),   # link down
            (True, True, 2),    # far router down too
            (True, False, 3),   # router back, the link still down
            (False, False, 4),  # last repair: the channel lives
        ]
        assert injector.dead_ports == set()
        assert [(c, a) for c, a, _ in injector.events] == [
            (10, "apply"), (50, "apply"), (70, "repair"), (110, "repair"),
        ]

    def test_router_kill_loses_exactly_the_unreachable_packets(self):
        network, pattern = _build()
        result = run_synthetic(
            network, pattern, 0.05, warmup_packets=50, measure_packets=300,
            seed=3, faults=kill_routers([5], at=200),
        )
        # Full accounting: every measured packet is a record or an
        # explicit loss -- nothing silently truncated.
        assert len(result.stats.records) + result.lost_measured_packets == 300
        assert result.lost_measured_packets > 0
        assert result.resilience["lost_measured"] == result.lost_measured_packets

    def test_transient_router_kill_recovers_after_repair(self):
        """Packets for a transiently dead router park at the NI and get
        through once the router repairs -- zero losses."""
        network, pattern = _build()
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="router", router=5, mode="transient",
                             at=100, repair_after=800),),
        )
        result = run_synthetic(
            network, pattern, 0.05, warmup_packets=50, measure_packets=300,
            seed=3, faults=schedule,
        )
        assert len(result.stats.records) == 300
        assert result.lost_measured_packets == 0
        assert result.resilience["fault_events"] == 2  # apply + repair

    def test_wormhole_committed_from_an_empty_vc_is_purged_at_the_fault(
        self, monkeypatch
    ):
        """Regression: at cycle 28 of this run, router 11 holds an input
        VC committed to packet 12's wormhole across its port 3 with none
        of the packet's flits buffered (the rest is upstream).  Killing
        that channel then must purge the packet and hand it to the NI at
        once -- before the fix its body flits waited behind the dead port
        until the NI timeout purged it, 288 cycles later."""
        from repro.faults.retransmit import RetransmissionManager

        cycle, router, port, packet_id = 28, 11, 3, 12
        committed = []
        real_tick = FaultInjector.tick

        def tick(self, network, now):
            if now == cycle:
                committed.extend(
                    not state.queue
                    for states in network.routers[router]._vc_states
                    for state in states
                    if state.packet_id == packet_id
                    and state.out_vc is not None and state.out_vc >= 0
                    and state.route_port == port
                )
            return real_tick(self, network, now)

        retries = []
        real_retry = RetransmissionManager._retry

        def retry(self, entry, now, purge):
            retries.append((entry.packet.packet_id, now, purge))
            return real_retry(self, entry, now, purge)

        monkeypatch.setattr(FaultInjector, "tick", tick)
        monkeypatch.setattr(RetransmissionManager, "_retry", retry)
        network, pattern = _build()
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="link", router=router, port=port,
                             at=cycle),),
        )
        result = run_synthetic(
            network, pattern, 0.05, warmup_packets=50, measure_packets=300,
            seed=3, faults=schedule,
        )
        assert committed == [True]  # the VC is committed and empty
        assert [r for r in retries if r[0] == packet_id] == [
            (packet_id, cycle, False)  # purged by the fault, not a timeout
        ]
        assert len(result.stats.records) == 300
        assert result.lost_measured_packets == 0

    def test_repaired_channels_recover_full_credit(self, monkeypatch):
        """Regression: purges while an element is dead deliberately skip
        restoring credits at dead routers, so without repair-time
        reconciliation a repaired channel runs permanently short -- and
        trips the conservation invariant.  With REPRO_CHECK=1 the whole
        faulty run (apply, purge, repair) must stay invariant-clean."""
        monkeypatch.setenv("REPRO_CHECK", "1")
        network, pattern = _build()
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="router", router=5, mode="transient",
                             at=100, repair_after=800),),
        )
        result = run_synthetic(
            network, pattern, 0.05, warmup_packets=50, measure_packets=300,
            seed=3, faults=schedule,
        )
        assert len(result.stats.records) == 300
        assert check_network_invariants(network) == []
        # Conservation per channel at end of run: held credits plus
        # whatever is still buffered or in flight must equal the depth
        # (pre-fix, repaired channels ran short by the purged flits).
        arrivals = {}
        for events in network._arrivals.values():
            for rid, port, vc, _flit in events:
                arrivals[rid, port, vc] = arrivals.get((rid, port, vc), 0) + 1
        returning = {}
        for events in network._credits.values():
            for rid, port, vc, _release in events:
                returning[rid, port, vc] = returning.get((rid, port, vc), 0) + 1
        for src, sport, dst, dport in network.topology.channels():
            router = network.routers[src]
            depth = router._credit_ceiling[sport]
            for vc in range(router.out_vc_count[sport]):
                total = (
                    router.out_credits[sport][vc]
                    + len(network.routers[dst]._vc_states[dport][vc].queue)
                    + arrivals.get((dst, dport, vc), 0)
                    + returning.get((src, sport, vc), 0)
                )
                assert total == depth, (src, sport, vc, total)


# -- watchdog and invariants ---------------------------------------------------
class _ClockwiseRing(Routing):
    """Adversarial routing: every packet circles 0 -> 1 -> 3 -> 2 -> 0.

    With one VC and packets longer than the per-hop buffering, four
    simultaneous wormholes form the textbook cyclic channel dependency
    that X-Y routing exists to forbid.
    """

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


class _ProbedRing(_ClockwiseRing):
    """The same cycle as static route tables, so the c kernel can run it."""

    def build_route_tables(self):
        return self._probe_tables()


def _ring_network(routing=_ClockwiseRing):
    topo = Mesh(2)
    configs = {
        rid: RouterConfig(num_vcs=1, buffer_depth=2)
        for rid in range(topo.num_routers)
    }
    network = Network(topo, configs)
    network.routing = routing(topo)
    return network


def _wedge(network, watchdog):
    """Start the four cyclic wormholes and step ``network`` -- sampled by
    ``watchdog`` after every cycle, as the run driver does -- until the
    watchdog gives up; returns its diagnosis."""
    for i in range(4):
        src = _ClockwiseRing.ORDER[i]
        dst = _ClockwiseRing.ORDER[(i + 3) % 4]
        network.enqueue(
            network.make_packet(src, dst, payload_bits=network.flit_width * 8)
        )
    with pytest.raises(SimulationStalled) as excinfo:
        for _ in range(5_000):
            network.step()
            watchdog.check(network, network.cycle - 1)
    # The diagnosis, not just the exception, reaches the message.
    assert "blocked" in str(excinfo.value)
    return excinfo.value.diagnosis


def test_routing_cycle_wedge_recovered_by_timeout_purge():
    """With no watchdog, the NI's retransmission timeout is the only way
    out of a wormhole wedge: it purges packets whose flits are still
    buffered in the network, and every measured packet gets through.
    An empty schedule arms the NI and leaves the ring's routing as is."""
    network = _ring_network()
    buffered_at_purge = []
    purge_packet = network.purge_packet

    def spy(packet):
        buffered_at_purge.append(any(
            flit.packet is packet
            for router in network.routers
            for states in router._vc_states
            for state in states
            for flit in state.queue
        ))
        return purge_packet(packet)

    network.purge_packet = spy
    result = run_synthetic(
        network, pattern_by_name("uniform_random", network.topology), 0.05,
        warmup_packets=10, measure_packets=40, seed=3,
        faults=FaultSchedule(retransmit_timeout=64), watchdog=None,
    )
    assert len(result.stats.records) == 40
    assert result.lost_measured_packets == 0
    assert result.resilience["fault_events"] == 0
    assert result.resilience["retransmissions"] > 0
    assert any(buffered_at_purge), "no timeout purged a wedged wormhole"


class TestWatchdog:
    def test_hand_built_routing_cycle_raises_simulation_stalled(self):
        """A 4-packet cyclic wormhole wedge is detected within the
        watchdog window and the diagnosis names the blocked VCs."""
        diagnosis = _wedge(
            _ring_network(), Watchdog(stall_window=64, check_interval=16)
        )
        assert diagnosis.kind == "deadlock"
        assert diagnosis.packets_in_flight == 4
        assert len(diagnosis.blocked) >= 1
        entry = diagnosis.blocked[0]
        assert entry.router in _ClockwiseRing.ORDER
        assert entry.vc == 0
        # Detected within (stall_window + check_interval) of the wedge.
        assert diagnosis.cycle < 1_000

    @needs_ckernel
    def test_wedge_diagnosed_alike_on_the_c_kernel(self):
        """The checks read the lane view both kernels give: the wedge
        stalls the C arena too, and its diagnosis -- kind, cycle, every
        blocked VC with its reason, the queued sources -- is the event
        kernel's, with no router built."""
        diagnoses = {}
        for kernel in ("event", "c"):
            network = _ring_network(_ProbedRing)
            network.use_kernel(kernel)
            diagnoses[kernel] = _wedge(
                network, Watchdog(stall_window=64, check_interval=16)
            )
            assert network.active_kernel == kernel
        assert network._routers is None
        assert diagnoses["c"] == diagnoses["event"]
        assert diagnoses["c"].kind == "deadlock"
        assert {entry.reason for entry in diagnoses["c"].blocked} >= {
            "zero credits on out vc 0 (downstream buffer full)"
        }

    def test_progress_check_builds_no_router(self):
        """The movement signature reads the activity counters the network
        owns, so checking a network whose object model was never built
        leaves it unbuilt -- and reads what the routers would."""
        network = build_network(layout_by_name("baseline", 4))
        watchdog = Watchdog()
        watchdog.check(network, 0)
        assert network._routers is None
        network.enqueue(network.make_packet(0, 15, payload_bits=1024))
        for _ in range(5):
            network.step()
        assert watchdog._movement_signature(network) == (
            sum(r.activity.crossbar_traversals for r in network.routers)
            + sum(r.activity.buffer_writes for r in network.routers),
            1,
        )

    def test_watchdog_quiet_on_healthy_run(self):
        network, pattern = _build()
        run_synthetic(
            network, pattern, 0.05, warmup_packets=40, measure_packets=150,
            seed=2,
            watchdog=Watchdog(stall_window=500, check_interval=8),
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_credit_leak_detected_within_one_interval(self, kernel):
        network, _ = _build()
        network.use_kernel(kernel)
        src, sport, _, _ = next(iter(network.topology.channels()))
        if kernel == "c":
            assert network.span_blocker() is None  # the arena is live
            ck = network._ck
            ck._view(A_CRED, ck.L)[(src * ck.P + sport) * ck.V] -= 1
        else:
            network.routers[src].out_credits[sport][0] -= 1
        violations = check_network_invariants(network)
        assert any("not conserved" in v for v in violations)
        watchdog = Watchdog(check_interval=1, check_invariants=True)
        with pytest.raises(InvariantViolation) as excinfo:
            for _ in range(4):
                network.step()
                watchdog.check(network, network.cycle - 1)
        assert network.active_kernel == kernel
        assert excinfo.value.cycle <= 4
        assert any("not conserved" in v for v in excinfo.value.violations)

    def test_buffer_accounting_leak_detected(self):
        network, _ = _build()
        network.routers[3].occupied_flits += 1
        violations = check_network_invariants(network)
        assert any("occupied_flits" in v for v in violations)

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=5, deadline=None)
    @given(
        rate=st.floats(min_value=0.02, max_value=0.08),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_fault_free_runs_never_trip_invariants(self, kernel, rate, seed):
        """Property: the invariant suite is silent on healthy runs at any
        load/seed, on either kernel -- the REPRO_CHECK layer must never
        false-positive (on ``c`` it samples at span ends)."""
        network, pattern = _build()
        network.use_kernel(kernel)
        result = run_synthetic(
            network, pattern, rate, warmup_packets=30, measure_packets=100,
            seed=seed,
            watchdog=Watchdog(
                stall_window=50_000, check_interval=16, check_invariants=True
            ),
        )
        assert network.active_kernel == kernel
        assert result.kernel_cycles["event"] == (
            result.total_cycles if kernel == "event" else 0
        )


# -- golden byte-identity with the fault subsystem compiled in ----------------
class TestGoldenWithChecks:
    def test_golden_run_identical_under_repro_check(self, monkeypatch):
        """REPRO_CHECK=1 (watchdog + invariants attached, faults absent)
        must not perturb a golden reference by a single byte."""
        monkeypatch.setenv("REPRO_CHECK", "1")
        golden = json.loads(GOLDEN_PATH.read_text())
        name = "homogeneous-4x4-UR"
        point = SweepPoint(**golden[name]["spec"])
        assert execute_point(point).to_dict() == golden[name]["result"]


# -- faulty points cache and parallelize like healthy ones --------------------
class TestFaultyPointExecution:
    def _point(self):
        return SweepPoint(
            layout="baseline", mesh_size=4, pattern="uniform_random",
            rate=0.05, seed=7, warmup_packets=20, measure_packets=60,
            faults=kill_routers(
                [5], at=50, retransmit_timeout=64, max_retries=1,
                backoff_factor=1.0,
            ),
        )

    def test_execute_point_reports_resilience(self):
        result = execute_point(self._point())
        assert result.resilience is not None
        assert result.measured_packets + result.lost_measured_packets == 60

    def test_faulty_point_caches_and_round_trips(self, tmp_path):
        point = self._point()
        first = run_sweep([point], cache=str(tmp_path))[0]
        second = run_sweep([point], cache=str(tmp_path))[0]
        assert not first.from_cache and second.from_cache
        assert second.to_dict() == first.to_dict()
        assert second.resilience == first.resilience
        assert second.lost_measured_packets == first.lost_measured_packets

    def test_faulty_point_process_backend_matches_serial(self, tmp_path):
        point = self._point()
        serial = run_sweep([point], jobs=1, cache=None)[0]
        process = run_sweep(
            [point, point], jobs=2, backend="process", cache=None
        )[0]
        assert process.to_dict() == serial.to_dict()


def test_resilience_harness_registered():
    from repro.experiments.run_all import HARNESSES

    assert "resilience" in HARNESSES
