"""Metrics registry semantics and the kernel metrics observer.

The registry is a flat (name, labels) namespace of counters / gauges /
histograms; :class:`~repro.obs.metrics.KernelMetrics` populates one from
kernel events.  The headline invariant -- total link-flit crossings equal
``sum(num_flits * hops)`` over delivered packets once the network drains
-- gets its own exhaustive treatment in ``test_obs_attribution.py``; here
we check the instruments themselves and the whole-run accounting.
"""

import json
import random

import pytest

from repro.core.layouts import build_network, layout_by_name
from repro.obs.hooks import CompositeObserver, Observer
from repro.obs.metrics import Histogram, KernelMetrics, MetricsRegistry
from repro.traffic.patterns import UniformRandom
from repro.traffic.runner import run_synthetic


def _drive(net, seed=5, cycles=150, rate=0.1):
    rng = random.Random(seed)
    num_nodes = net.topology.num_nodes
    for _ in range(cycles):
        for node in range(num_nodes):
            if rng.random() < rate:
                dst = rng.randrange(num_nodes)
                if dst != node:
                    net.enqueue(net.make_packet(node, dst))
        net.step()
    net.drain()


class TestRegistry:
    def test_counter_identity_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("flits", router=1, port=2)
        b = reg.counter("flits", port=2, router=1)  # label order irrelevant
        c = reg.counter("flits", router=1, port=3)
        assert a is b and a is not c
        a.inc()
        a.value += 2
        assert b.value == 3 and c.value == 0
        assert len(reg) == 2

    def test_gauge_set(self):
        reg = MetricsRegistry()
        g = reg.gauge("occupancy")
        g.set(17)
        assert reg.gauge("occupancy").value == 17

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x", (1.0, 2.0))

    def test_snapshot_rows(self):
        reg = MetricsRegistry()
        reg.counter("b", router=1).inc(5)
        reg.gauge("a").set(2.5)
        rows = reg.snapshot()
        assert [r["name"] for r in rows] == ["a", "b"]  # sorted
        assert rows[0] == {"name": "a", "labels": {}, "kind": "gauge",
                           "value": 2.5}
        assert rows[1]["labels"] == {"router": 1}
        assert rows[1]["value"] == 5

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n").inc(4)
        path = tmp_path / "reg.json"
        reg.write_json(path)
        assert json.loads(path.read_text())[0]["value"] == 4


class TestHistogram:
    def test_bucketing_and_stats(self):
        h = Histogram((10.0, 20.0))
        for v in (5, 10, 11, 25):
            h.observe(v)
        assert h.bucket_counts == [2, 1, 1]  # <=10, <=20, overflow
        assert h.count == 4
        assert h.min == 5 and h.max == 25
        assert h.mean == pytest.approx(51 / 4)

    def test_empty_mean_is_zero(self):
        assert Histogram((1.0,)).mean == 0.0

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram((5.0, 2.0))

    def test_to_dict_round_trips_json(self):
        h = Histogram((2.0,))
        h.observe(1)
        assert json.loads(json.dumps(h.to_dict()))["count"] == 1


class _LinkRecount(Observer):
    """The per-event counting ``KernelMetrics`` used to do: link flits
    from ``on_link_traversal``, busy channels as the distinct (router,
    port) pairs a flit departed from in a cycle, cycles from
    ``on_cycle_end``."""

    def __init__(self):
        self.flits, self.busy, self.cycles, self.used = {}, {}, 0, set()

    def on_link_traversal(self, src_router, src_port, dst_router, dst_port,
                          flit, cycle):
        key = (src_router, src_port)
        self.flits[key] = self.flits.get(key, 0) + 1
        self.used.add(key)

    def on_cycle_end(self, cycle, measuring):
        for key in self.used:
            self.busy[key] = self.busy.get(key, 0) + 1
        self.used.clear()
        self.cycles += 1


def _run(net, **knobs):
    return run_synthetic(
        net, UniformRandom(net.topology.num_nodes), rate=0.05,
        warmup_packets=20, measure_packets=100, seed=5, **knobs,
    )


class TestKernelMetrics:
    def _run(self, size=3, **drive):
        net = build_network(layout_by_name("baseline", size))
        metrics = KernelMetrics(net)
        net.attach_observer(metrics)
        _drive(net, **drive)
        return net, metrics

    def test_whole_run_accounting(self):
        net, metrics = self._run()
        snap = metrics.snapshot()
        # Drained and fault-free: everything injected was delivered and
        # every delivered flit's link crossings are accounted for.
        assert snap["packets_delivered"] == snap["packets_offered"] > 0
        assert snap["flits_injected"] == snap["flits_delivered"] > 0
        assert snap["conserved"] is True
        assert metrics.conserved is True
        assert snap["link_flits_total"] == snap["expected_link_flits"]
        assert metrics.cycles == net.cycle

    def test_pair_matrix_consistent_with_totals(self):
        _, metrics = self._run(seed=7)
        snap = metrics.snapshot()
        assert sum(metrics.pair_packets().values()) == snap["packets_delivered"]
        assert sum(metrics.pair_flits().values()) == snap["flits_delivered"]
        assert metrics._latency_hist.count == snap["packets_delivered"]

    def test_link_and_vc_views_agree(self):
        _, metrics = self._run(seed=9)
        # Every link flit came from a switch grant on the same (router,
        # port); ejection grants (vc == -1) never cross a link.
        grants_by_link = {}
        for (router, port, vc), n in metrics.vc_grants().items():
            if vc >= 0:
                key = (router, port)
                grants_by_link[key] = grants_by_link.get(key, 0) + n
        assert grants_by_link == metrics.link_flits()

    def test_link_busy_bounded_by_cycles(self):
        _, metrics = self._run(seed=3)
        for key, busy in metrics.link_busy().items():
            assert 0 < busy <= metrics.cycles
            # A busy cycle moves at least one flit over the link.
            assert busy <= metrics.link_flits()[key]

    def test_contention_counters_are_deltas_since_attach(self):
        net = build_network(layout_by_name("baseline", 3))
        _drive(net, seed=2, cycles=80)  # un-instrumented prefix
        metrics = KernelMetrics(net)
        net.attach_observer(metrics)
        rows = metrics.router_contention()
        assert all(
            r["credit_stalls"] == 0 and r["arbitration_conflicts"] == 0
            and r["buffer_writes"] == 0
            for r in rows
        ), "pre-attach activity leaked into the delta"
        _drive(net, seed=4, cycles=120, rate=0.2)
        rows = metrics.router_contention()
        assert sum(r["buffer_writes"] for r in rows) > 0

    def test_windows_equal_a_per_event_recount(self):
        """The link counts, busy cycles and cycles ``KernelMetrics``
        reads off the network's counters equal a per-event recount at
        every heartbeat of warmup, measurement window and drain, and
        after a drain to idle."""
        net = build_network(layout_by_name("baseline", 4))
        metrics, recount = KernelMetrics(net), _LinkRecount()
        phases = set()

        def compare(progress=None):
            if progress is not None:
                phases.add(progress.phase)
            assert metrics.link_flits() == recount.flits
            assert metrics.link_busy() == recount.busy
            assert metrics.cycles == recount.cycles == net.cycle

        _run(net, observer=CompositeObserver([metrics, recount]),
             progress=compare, progress_every=8)
        assert phases == {"warmup", "measure", "drain"}
        net.drain()
        compare()
        assert metrics.conserved and recount.flits

    def test_metrics_made_after_a_run_count_the_next_run(self):
        """``run_synthetic`` starts a fresh record on a network that has
        run, and the counters run on: metrics made between two runs
        report the second run's own counts -- never a negative delta,
        crossbar traversals equal to that run's switch grants router by
        router, every field equal to the same run on a twin network."""
        net, twin = (build_network(layout_by_name("baseline", 4))
                     for _ in range(2))
        _run(net)
        _run(twin)
        metrics = KernelMetrics(net)
        before = [activity.snapshot() for activity in twin._activities]
        _run(net, observer=metrics)
        _run(twin)
        rows = metrics.router_contention()
        assert all(value >= 0 for row in rows for value in row.values())
        grants = [0] * net.topology.num_routers
        for (router, _, _), count in metrics.vc_grants().items():
            grants[router] += count
        assert [row["crossbar_traversals"] for row in rows] == grants
        assert sum(grants) > 0
        own = [now.delta_since(then)
               for now, then in zip(twin._activities, before)]
        assert rows == [
            {
                "router": router,
                "credit_stalls": delta.credit_stalls,
                "arbitration_conflicts": delta.arbitration_conflicts,
                "buffer_writes": delta.buffer_writes,
                "crossbar_traversals": delta.crossbar_traversals,
            }
            for router, delta in enumerate(own)
        ]

    def test_occupancy_samples_taken(self):
        _, metrics = self._run(seed=1)
        assert metrics._occupancy_hist.count > 0
        assert metrics._active_hist.count == metrics._occupancy_hist.count

    def test_write_json(self, tmp_path):
        _, metrics = self._run()
        path = tmp_path / "metrics.json"
        metrics.write_json(path)
        snap = json.loads(path.read_text())
        assert snap["conserved"] is True
        assert snap["link_flits"] == sorted(
            snap["link_flits"], key=lambda r: (r["router"], r["port"])
        )
