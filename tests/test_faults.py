"""Fault-injection, resilience and watchdog tests.

Covers the acceptance criteria of the resilience subsystem:

* a 5% transient link-fault rate on the 4x4 mesh delivers 100% of
  measured packets through NI retransmission (fixed seed);
* permanent router kills lose exactly the unreachable packets, and
  every one of them is an *explicit* loss (full accounting);
* a hand-built routing cycle deadlocks and the watchdog names the
  blocked routers/VCs within its window;
* a synthetically leaked credit trips the ``REPRO_CHECK`` invariant
  suite within one check interval;
* fault-free runs never trip the invariants (property test), and a
  golden reference run is byte-identical with ``REPRO_CHECK=1``;
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
    FaultSchedule,
    FaultSpec,
    FaultInjector,
    InvariantViolation,
    SimulationStalled,
    Watchdog,
    check_network_invariants,
    intermittent_link_faults,
    kill_routers,
    mesh_link_channels,
)
from repro.noc.config import RouterConfig
from repro.noc.network import Network
from repro.noc.routing import Routing
from repro.noc.topology import Mesh
from repro.traffic.patterns import pattern_by_name
from repro.traffic.runner import run_synthetic

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "golden_runs.json"


def _build(mesh_size=4, layout="baseline"):
    network = build_network(
        layout_by_name(layout, mesh_size), topology=Mesh(mesh_size)
    )
    pattern = pattern_by_name("uniform_random", network.topology)
    return network, pattern


# -- schedules ride inside sweep points ---------------------------------------
class TestSchedules:
    def test_schedule_json_round_trip(self):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(kind="router", router=5),
                FaultSpec(kind="link", router=1, port=2, mode="transient",
                          at=10, repair_after=50),
                FaultSpec(kind="vc_stuck", router=3, port=1, vc=0),
                FaultSpec(kind="bit_flip", router=2, port=3,
                          mode="intermittent", rate=0.01, duration=8),
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
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor", router=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="link", router=0)  # port required
        with pytest.raises(ValueError):
            FaultSpec(kind="router", router=0, port=1)
        with pytest.raises(ValueError):
            FaultSpec(kind="vc_stuck", router=0, port=1)  # vc required
        with pytest.raises(ValueError):
            FaultSpec(kind="link", router=0, port=1, mode="transient")
        with pytest.raises(ValueError):
            FaultSpec(kind="link", router=0, port=1, mode="intermittent")

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
        channels = mesh_link_channels(network.topology)
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

    def test_intermittent_poisson_link_faults_recovered(self):
        network, pattern = _build()
        channels = mesh_link_channels(network.topology)
        schedule = intermittent_link_faults(
            channels[:3], rate=0.002, duration=40, seed=9,
        )
        result = run_synthetic(
            network, pattern, 0.05, warmup_packets=50, measure_packets=250,
            seed=5, faults=schedule,
        )
        assert len(result.stats.records) == 250
        assert result.lost_measured_packets == 0
        assert result.resilience["fault_events"] > 0

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

    def test_bit_flip_corruption_retransmits_until_clean(self):
        network, pattern = _build()
        channels = mesh_link_channels(network.topology)
        router, port = next(
            (r, p) for r, p in channels if r == 5
        )
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="bit_flip", router=router, port=port,
                             mode="transient", at=80, repair_after=400),),
        )
        result = run_synthetic(
            network, pattern, 0.1, warmup_packets=50, measure_packets=300,
            seed=3, faults=schedule,
        )
        assert len(result.stats.records) == 300
        assert result.lost_measured_packets == 0
        assert result.resilience["corrupt_deliveries"] > 0
        assert result.resilience["retransmissions"] > 0

    def test_stuck_vc_recovered_by_timeout_purge(self):
        network, pattern = _build()
        channels = mesh_link_channels(network.topology)
        router, port = next((r, p) for r, p in channels if r == 5)
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="vc_stuck", router=router, port=port,
                             vc=0, mode="transient", at=50,
                             repair_after=600),),
        )
        result = run_synthetic(
            network, pattern, 0.08, warmup_packets=50, measure_packets=300,
            seed=3, faults=schedule,
        )
        assert len(result.stats.records) == 300
        assert result.lost_measured_packets == 0

    def test_link_degrade_halves_lanes_and_loses_nothing(self):
        network, pattern = _build(layout="diagonal+BL")
        wide = next(
            (router.router_id, port)
            for router in network.routers
            for port in range(router.num_ports)
            if not router.is_ejection[port] and router._output_lanes(port) == 2
        )
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="link_degrade", router=wide[0],
                             port=wide[1]),),
        )
        injector = FaultInjector(schedule, network.topology)
        network.attach_faults(injector)
        injector.tick(network, 0)
        assert network.routers[wide[0]]._output_lanes(wide[1]) == 1
        network.detach_faults()

        network, pattern = _build(layout="diagonal+BL")
        result = run_synthetic(
            network, pattern, 0.05, warmup_packets=50, measure_packets=250,
            seed=3, faults=schedule,
        )
        assert len(result.stats.records) == 250
        assert result.lost_measured_packets == 0


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


class TestWatchdog:
    def _ring_network(self):
        topo = Mesh(2)
        configs = {
            rid: RouterConfig(num_vcs=1, buffer_depth=2)
            for rid in range(topo.num_routers)
        }
        network = Network(topo, configs)
        network.routing = _ClockwiseRing(topo)
        return network

    def test_hand_built_routing_cycle_raises_simulation_stalled(self):
        """A 4-packet cyclic wormhole wedge is detected within the
        watchdog window and the diagnosis names the blocked VCs."""
        network = self._ring_network()
        network.attach_watchdog(Watchdog(stall_window=64, check_interval=16))
        for i in range(4):
            src = _ClockwiseRing.ORDER[i]
            dst = _ClockwiseRing.ORDER[(i + 3) % 4]
            network.enqueue(
                network.make_packet(src, dst, payload_bits=network.flit_width * 8)
            )
        with pytest.raises(SimulationStalled) as excinfo:
            for _ in range(5_000):
                network.step()
        diagnosis = excinfo.value.diagnosis
        assert diagnosis.kind == "deadlock"
        assert diagnosis.packets_in_flight == 4
        assert len(diagnosis.blocked) >= 1
        entry = diagnosis.blocked[0]
        assert entry.router in _ClockwiseRing.ORDER
        assert entry.vc == 0
        # The diagnosis, not just the exception, reaches the message.
        assert "blocked" in str(excinfo.value)
        # Detected within (stall_window + check_interval) of the wedge.
        assert diagnosis.cycle < 1_000

    def test_watchdog_quiet_on_healthy_run(self):
        network, pattern = _build()
        run_synthetic(
            network, pattern, 0.05, warmup_packets=40, measure_packets=150,
            seed=2,
            watchdog=Watchdog(stall_window=500, check_interval=8),
        )

    def test_credit_leak_detected_within_one_interval(self):
        network, _ = _build()
        src, sport, _, _ = next(iter(network.topology.channels()))
        network.routers[src].out_credits[sport][0] -= 1
        violations = check_network_invariants(network)
        assert any("not conserved" in v for v in violations)
        network.attach_watchdog(
            Watchdog(check_interval=1, check_invariants=True)
        )
        with pytest.raises(InvariantViolation) as excinfo:
            for _ in range(4):
                network.step()
        assert excinfo.value.cycle <= 4
        assert any("not conserved" in v for v in excinfo.value.violations)

    def test_buffer_accounting_leak_detected(self):
        network, _ = _build()
        network.routers[3].occupied_flits += 1
        violations = check_network_invariants(network)
        assert any("occupied_flits" in v for v in violations)

    @settings(max_examples=5, deadline=None)
    @given(
        rate=st.floats(min_value=0.02, max_value=0.08),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_fault_free_runs_never_trip_invariants(self, rate, seed):
        """Property: the invariant suite is silent on healthy runs at any
        load/seed -- the REPRO_CHECK layer must never false-positive."""
        network, pattern = _build()
        run_synthetic(
            network, pattern, rate, warmup_packets=30, measure_packets=100,
            seed=seed,
            watchdog=Watchdog(
                stall_window=50_000, check_interval=16, check_invariants=True
            ),
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
