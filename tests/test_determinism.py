"""Determinism properties of the sweep engine and the run driver.

The paper's trend claims (and the parallel backend's correctness) rest on
one property: a :class:`~repro.exec.SweepPoint` fully determines its
result.  These tests pin that from several angles -- repeated execution,
sweep-order shuffling, backend choice, process history, concurrency -- and
the converse: changing the seed really does change the injection stream.
"""

import dataclasses
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layouts import baseline_layout, build_network
from repro.exec import SweepPoint, execute_point, run_sweep
from repro.traffic.patterns import UniformRandom
from repro.traffic.runner import run_synthetic
from tests.test_snapshot import _drive

#: a cheap 4x4 reference point (~0.1 s to execute).
POINT = SweepPoint(
    layout="baseline", mesh_size=4, pattern="uniform_random",
    rate=0.05, seed=3, warmup_packets=20, measure_packets=120,
)


def _points(n=3):
    """A few distinct cheap points."""
    rates = (0.03, 0.05, 0.08)
    return [dataclasses.replace(POINT, rate=rates[i]) for i in range(n)]


class TestSweepPointDeterminism:
    def test_same_point_twice_identical_stats_sums(self):
        first = execute_point(POINT)
        second = execute_point(POINT)
        assert first.latency_sum_cycles == second.latency_sum_cycles
        assert first.hops_sum == second.hops_sum
        assert first.packet_id_sum == second.packet_id_sum
        assert first.to_dict() == second.to_dict()

    def test_result_independent_of_process_history(self):
        """Executing unrelated simulations first must not leak into a
        point's result."""
        reference = execute_point(POINT)
        network = build_network(baseline_layout(4))
        run_synthetic(
            network, UniformRandom(16), 0.1,
            warmup_packets=10, measure_packets=50, seed=99,
        )
        assert execute_point(POINT).to_dict() == reference.to_dict()

    def test_shuffled_sweep_order_identical_results(self):
        points = _points()
        forward = run_sweep(points, jobs=1, cache=None)
        order = [2, 0, 1]
        shuffled = run_sweep([points[i] for i in order], jobs=1, cache=None)
        for dst, src in enumerate(order):
            assert shuffled[dst].to_dict() == forward[src].to_dict()

    def test_different_seeds_different_injection_streams(self):
        a = execute_point(POINT)
        b = execute_point(dataclasses.replace(POINT, seed=POINT.seed + 1))
        # Same packet-id bookkeeping, different traffic.
        assert a.packet_id_sum == b.packet_id_sum
        assert (a.latency_sum_cycles, a.hops_sum, a.total_cycles) != (
            b.latency_sum_cycles, b.hops_sum, b.total_cycles,
        )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           rate=st.sampled_from([0.02, 0.05, 0.09]))
    def test_replay_property(self, seed, rate):
        """Any (seed, rate) replays to the same result."""
        point = dataclasses.replace(
            POINT, seed=seed, rate=rate, measure_packets=60, warmup_packets=10
        )
        assert execute_point(point).to_dict() == execute_point(point).to_dict()


class TestRunSyntheticInjectionPath:
    """Pins of the `_offer_load` refactor (single injection path)."""

    def _run(self, seed=5, warmup=25, measure=150, rate=0.06):
        self.network = build_network(baseline_layout(4))
        return run_synthetic(
            self.network, UniformRandom(16), rate,
            warmup_packets=warmup, measure_packets=measure, seed=seed,
        )

    def test_packet_ids_are_creation_ordered(self):
        """Measured records are exactly ids [warmup, warmup+measure):
        warmup packets take the first ids, measured packets the next
        block, drain packets everything after."""
        warmup, measure = 25, 150
        result = self._run(warmup=warmup, measure=measure)
        ids = sorted(record.packet_id for record in result.stats.records)
        assert ids == list(range(warmup, warmup + measure))

    def test_drain_keeps_offering_load(self):
        """The drain phase keeps creating packets (ids past the measured
        window exist), i.e. the shared injection path really runs there."""
        result = self._run()
        assert result.stats.packets_delivered >= len(result.stats.records)
        # The network saw more creations than warmup+measure: the source
        # of the extra ids is the drain loop's _offer_load.
        assert self.network.next_packet_id > 25 + 150

    def test_identical_records_across_runs(self):
        first = self._run()
        second = self._run()
        assert [
            (r.packet_id, r.src, r.dst, r.total, r.queuing, r.blocking, r.hops)
            for r in first.stats.records
        ] == [
            (r.packet_id, r.src, r.dst, r.total, r.queuing, r.blocking, r.hops)
            for r in second.stats.records
        ]

    def test_offer_load_budget_and_rng_order(self):
        """_offer_load draws fires() then destination, and stops drawing
        destinations once the budget is exhausted -- the invariant that
        keeps warmup/measure streams identical to the pre-refactor code."""
        from repro.traffic.runner import _offer_load

        class CountingPattern(UniformRandom):
            calls = 0

            def destination(self, src, rng):
                type(self).calls += 1
                return super().destination(src, rng)

        class AlwaysFire:
            def fires(self, node, rng):
                return True

        network = build_network(baseline_layout(4))
        pattern = CountingPattern(16)
        created = _offer_load(
            network, pattern, AlwaysFire(), random.Random(0), budget=5
        )
        assert created == 5
        assert CountingPattern.calls == 5  # no destination drawn past budget

    def test_on_create_sees_packet_before_enqueue(self):
        from repro.traffic.runner import _offer_load

        seen = []

        class AlwaysFire:
            def fires(self, node, rng):
                return True

        network = build_network(baseline_layout(4))
        offered_before = network.stats.packets_offered

        def mark(packet):
            packet.measured = True
            seen.append(packet.packet_id)

        created = _offer_load(
            network, UniformRandom(16), AlwaysFire(), random.Random(1),
            budget=3, on_create=mark,
        )
        assert created == 3 and len(seen) == 3
        # measured flag set pre-enqueue => packets_offered counted them.
        assert network.stats.packets_offered == offered_before + 3


class TestBackendEquivalence:
    def test_process_equals_serial(self):
        points = _points(2)
        serial = run_sweep(points, jobs=1, cache=None)
        process = run_sweep(points, jobs=2, backend="process", cache=None)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in process]

    def test_results_returned_in_input_order(self):
        points = _points(3)
        results = run_sweep(points, jobs=2, backend="process", cache=None)
        assert [r.rate for r in results] == [p.rate for p in points]
        assert [r.key for r in results] == [p.key() for p in points]


class TestNoSharedSimulationState:
    """Nothing another run does in the same process -- on another thread
    or between this run's cycles -- shows in a run."""

    @pytest.mark.parametrize("kernel", ["event", "c"])
    def test_threaded_execute_point_equals_serial(self, kernel):
        points = [
            dataclasses.replace(point, kernel=kernel, seed=seed)
            for seed in range(4)
            for point in _points()
        ]
        serial = [execute_point(point).to_dict() for point in points]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = [r.to_dict() for r in pool.map(execute_point, points)]
        assert threaded == serial

    def test_interleaved_networks_match_their_solo_digests(self):
        def fresh():
            return [
                (build_network(baseline_layout(4)), random.Random(seed), rate)
                for seed, rate in ((3, 0.10), (4, 0.25))
            ]

        solo = [_drive(net, rng, 100, rate) for net, rng, rate in fresh()]
        together = [[], []]
        pair = fresh()
        for _ in range(100):
            for digests, (net, rng, rate) in zip(together, pair):
                digests += _drive(net, rng, 1, rate)
        assert together == solo

    def test_repeated_traced_library_runs_are_identical(self):
        from repro.obs import observe

        point = SweepPoint(layout="baseline", rate=0.02, seed=11,
                           warmup_packets=20, measure_packets=60)

        def traced():
            network = point.build_network()
            observation = observe(network, trace=True)
            point.run(network, profiler=observation.profiler,
                      sampler=observation.sampler)
            return observation.tracer.traces

        first, second = traced(), traced()
        assert first and first == second


@pytest.mark.parametrize("bad", [0, -2])
def test_jobs_must_be_positive(bad):
    with pytest.raises(ValueError):
        run_sweep([POINT], jobs=bad, cache=None)
