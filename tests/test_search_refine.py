"""Tests for the cycle-simulated refinement stage (repro.search.refine)."""

import math

import pytest

from repro.core.layouts import diagonal_positions
from repro.search.objectives import PlacementEvaluator
from repro.search.refine import placement_points, refine_placements

CANDIDATES = [tuple(sorted(diagonal_positions(4))), (0, 1, 2, 3, 4, 5, 6, 7)]


def _strip_cache_flag(records):
    return [
        {k: v for k, v in record.items() if k != "from_cache"}
        for record in records
    ]


class TestPlacementPoints:
    def test_one_point_per_candidate(self):
        points = placement_points(CANDIDATES, 4, rate=0.05)
        assert len(points) == 2
        assert all(p.mesh_size == 4 for p in points)
        assert all(p.pattern == "uniform_random" for p in points)
        assert points[0].big_positions == CANDIDATES[0]

    def test_default_warmup_scales_with_measure(self):
        points = placement_points(CANDIDATES, 4, measure_packets=800)
        assert points[0].warmup_packets == 100

    def test_per_candidate_fault_schedules(self):
        evaluator = PlacementEvaluator(4, kill_count=1)
        schedules = [evaluator.kill_schedule(c, at=50) for c in CANDIDATES]
        points = placement_points(CANDIDATES, 4, faults=schedules)
        assert all(p.faults is not None for p in points)
        assert points[0].key() != placement_points(CANDIDATES, 4)[0].key()

    def test_mismatched_schedule_count_rejected(self):
        with pytest.raises(ValueError, match="schedules"):
            placement_points(CANDIDATES, 4, faults=[None])

    def test_kernel_forwarded_to_every_point(self):
        points = placement_points(CANDIDATES, 4, kernel="c")
        assert all(p.kernel == "c" for p in points)
        assert all(p.spec_dict()["kernel"] == "c" for p in points)
        # Unset stays off the spec, so existing cached refinements keep
        # their keys.
        default = placement_points(CANDIDATES, 4)
        assert all("kernel" not in p.spec_dict() for p in default)


class TestRefinePlacements:
    def test_sorted_by_latency_with_scores_attached(self):
        records = refine_placements(
            CANDIDATES, 4, rate=0.05, measure_packets=120, cache=None
        )
        assert len(records) == 2
        latencies = [r["latency_cycles"] for r in records]
        assert latencies == sorted(latencies)
        for record in records:
            assert not math.isnan(record["latency_cycles"])
            assert record["analytic_score"] > 0
            assert record["scalar_score"] > 0
            assert record["from_cache"] is False

    def test_same_seed_rerun_is_all_cache_hits(self, tmp_path):
        """The acceptance property: repeating a refinement with the same
        seed performs zero new cycle simulations."""
        cache = str(tmp_path / "sweep-cache")
        first = refine_placements(
            CANDIDATES, 4, rate=0.05, measure_packets=120, cache=cache
        )
        assert all(r["from_cache"] is False for r in first)
        second = refine_placements(
            CANDIDATES, 4, rate=0.05, measure_packets=120, cache=cache
        )
        assert all(r["from_cache"] is True for r in second)
        assert _strip_cache_flag(second) == _strip_cache_flag(first)

    def test_serial_and_parallel_are_bit_identical(self):
        serial = refine_placements(
            CANDIDATES, 4, rate=0.05, measure_packets=120, cache=None, jobs=1
        )
        parallel = refine_placements(
            CANDIDATES, 4, rate=0.05, measure_packets=120, cache=None, jobs=2
        )
        assert _strip_cache_flag(serial) == _strip_cache_flag(parallel)

    def test_explicit_evaluator_supplies_the_scores(self):
        evaluator = PlacementEvaluator(4)
        records = refine_placements(
            CANDIDATES,
            4,
            rate=0.05,
            measure_packets=120,
            cache=None,
            evaluator=evaluator,
        )
        for record in records:
            expected = evaluator.evaluate(record["big_positions"])
            assert record["analytic_score"] == expected.analytic
            assert record["scalar_score"] == expected.scalar


class TestSubmitRefinement:
    def test_server_refinement_matches_local(self, tmp_path):
        """submit_refinement -> collect_refinement returns the same
        ranked records as a local refine_placements of the same
        candidates, and a resubmission dedups onto the finished job."""
        from repro.search.refine import collect_refinement, submit_refinement
        from repro.serve import SweepServer

        local = refine_placements(
            CANDIDATES, 4, rate=0.05, measure_packets=120, cache=None
        )
        server = SweepServer(tmp_path / "s.sqlite", port=0, workers=2)
        server.start()
        try:
            url = f"http://127.0.0.1:{server.port}"
            submitted = submit_refinement(
                url, CANDIDATES, 4, rate=0.05, measure_packets=120
            )
            assert not submitted["deduped"]
            records = collect_refinement(
                url, submitted["job_id"], CANDIDATES, mesh_size=4
            )
            assert _strip_cache_flag(records) == _strip_cache_flag(local)
            again = submit_refinement(
                url, CANDIDATES, 4, rate=0.05, measure_packets=120
            )
            assert again["deduped"]
            assert again["job_id"] == submitted["job_id"]
        finally:
            server.stop()

    def test_collect_needs_mesh_size_or_evaluator(self):
        from repro.search.refine import collect_refinement

        with pytest.raises(ValueError, match="mesh_size or evaluator"):
            collect_refinement("http://127.0.0.1:1", "job", CANDIDATES)
