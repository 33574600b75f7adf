"""Tests for the multi-objective placement evaluator (repro.search)."""

import pytest

from repro.core.layouts import diagonal_positions
from repro.faults.schedule import FaultSchedule
from repro.search.canonical import (
    canonical_placement,
    placement_orbit,
)
from repro.search.objectives import (
    FlowModel,
    ObjectiveWeights,
    PlacementEvaluator,
    default_hotspots,
)

DIAG4 = tuple(sorted(diagonal_positions(4)))


class TestFlowModel:
    def test_uniform_random_keeps_all_eight_symmetries(self):
        assert len(FlowModel(4).symmetry_maps) == 8
        assert FlowModel(4).symmetric

    def test_hotspot_keeps_the_four_axis_preserving_maps(self):
        """The hotspot destination boost breaks (s, d) <-> (d, s) weight
        symmetry, so the four axis-swapping transforms no longer preserve
        scores; the D4-symmetric default hotspot set keeps the other four."""
        model = FlowModel(4, "hotspot")
        assert len(model.symmetry_maps) == 4
        assert not model.symmetric

    def test_asymmetric_hotspots_keep_only_identity(self):
        model = FlowModel(4, "hotspot", hotspots=(1,))
        assert len(model.symmetry_maps) == 1

    def test_offered_load_matches_traversal_counts(self):
        """Uniform-random offered load is the footnote-4 traversal count,
        normalized."""
        from repro.noc.routing import router_traversal_counts
        from repro.noc.topology import Mesh

        model = FlowModel(4)
        counts = router_traversal_counts(Mesh(4))
        total = sum(counts.values())
        for rid, count in counts.items():
            assert model.load[rid] == pytest.approx(count / total)

    def test_hotspot_destinations_hotter(self):
        model = FlowModel(8, "hotspot", hotspot_factor=4.0)
        hot = default_hotspots(8)
        cold_corner = 0
        assert all(model.offered[h] > model.offered[cold_corner] for h in hot)

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            FlowModel(4, "transpose")

    def test_bad_hotspot_factor_rejected(self):
        with pytest.raises(ValueError, match="hotspot_factor"):
            FlowModel(4, "hotspot", hotspot_factor=0.5)

    def test_hotspots_outside_mesh_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FlowModel(4, "hotspot", hotspots=(99,))


class TestEvaluator:
    def test_full_objective_vector_is_orbit_invariant(self):
        """Every axis -- including fairness (self-dual min) and resilience
        (kill tie-breaks) -- scores identically across all eight
        reflections, each evaluated by a fresh evaluator (no shared
        cache)."""
        placement = frozenset({0, 1, 3, 6, 9, 10, 12, 14})
        reference = None
        for member in placement_orbit(placement, 4):
            record = PlacementEvaluator(4).evaluate(member)
            vector = (
                record.analytic,
                record.fairness,
                record.contention,
                record.balance,
                record.resilience,
                record.power_slack,
                record.scalar,
            )
            if reference is None:
                reference = vector
            else:
                assert vector == pytest.approx(reference, abs=1e-12)

    def test_symmetric_candidates_hit_the_cache(self):
        evaluator = PlacementEvaluator(4)
        first = evaluator.evaluate(DIAG4)
        for member in placement_orbit(DIAG4, 4):
            again = evaluator.evaluate(member)
            assert again is first
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits >= len(placement_orbit(DIAG4, 4))

    def test_canonical_recorded_with_original_positions(self):
        evaluator = PlacementEvaluator(4)
        shifted = frozenset({1, 2, 4, 7, 8, 11, 13, 14})
        record = evaluator.evaluate(shifted)
        assert record.positions == tuple(sorted(shifted))
        assert record.canonical == canonical_placement(shifted, 4)

    def test_diagonal_scores_higher_than_corner_cluster(self):
        evaluator = PlacementEvaluator(4)
        cluster = {0, 1, 2, 4, 5, 6, 8, 9}
        assert evaluator.score(DIAG4) > evaluator.score(cluster)

    def test_balance_is_one_for_family_and_lower_for_rows(self):
        evaluator = PlacementEvaluator(4)
        assert evaluator.evaluate(DIAG4).balance == pytest.approx(1.0)
        rows = set(range(8))  # two full rows: balanced columns, skewed rows
        assert evaluator.evaluate(rows).balance < 1.0

    def test_resilience_penalizes_spof_concentration(self):
        """Killing the two hottest big routers hurts a center cluster far
        more than the diagonal."""
        evaluator = PlacementEvaluator(4, kill_count=2)
        center = {5, 6, 9, 10, 1, 2, 13, 14}
        assert (
            evaluator.evaluate(DIAG4).resilience
            >= evaluator.evaluate(center).resilience
        )

    def test_kill_schedule_is_a_fault_schedule(self):
        evaluator = PlacementEvaluator(4, kill_count=2)
        schedule = evaluator.kill_schedule(DIAG4, at=100)
        assert isinstance(schedule, FaultSchedule)
        kills = evaluator.worst_kills(DIAG4)
        assert len(kills) == 2
        assert set(kills) <= set(DIAG4)

    def test_power_slack_sign(self):
        evaluator = PlacementEvaluator(8)
        assert evaluator.power_slack(16) > 0  # the paper's 16/48 mix fits
        assert evaluator.power_slack(64) < 0  # all-big blows the budget

    def test_extra_terms_reach_scalar(self):
        def prefer_corner(big, model):
            return 1.0 if 0 in big else 0.0

        weights = ObjectiveWeights(extras={"corner": 10.0})
        evaluator = PlacementEvaluator(
            4, weights=weights, extra_terms={"corner": prefer_corner}
        )
        with_corner = evaluator.evaluate({0, 5, 10, 15})
        without = evaluator.evaluate({1, 4, 11, 14})
        assert with_corner.extras["corner"] == 1.0
        assert with_corner.scalar > without.scalar + 5.0

    def test_empty_placement_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PlacementEvaluator(4).evaluate(())

    def test_out_of_mesh_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            PlacementEvaluator(4).evaluate({0, 99})

    def test_bad_utilization_rejected(self):
        with pytest.raises(ValueError, match="reference_utilization"):
            PlacementEvaluator(4, reference_utilization=1.5)

    def test_bad_kill_count_rejected(self):
        with pytest.raises(ValueError, match="kill_count"):
            PlacementEvaluator(4, kill_count=-1)


class TestCalibration:
    def test_4x4_global_optimum_is_the_figure3_diagonal(self):
        """Under the default weights the argmax of the entire 12,870-wide
        4x4 space is the paper's exact diagonal placement -- the
        calibration the defaults are documented to satisfy."""
        import itertools

        evaluator = PlacementEvaluator(4)
        best = max(
            (
                evaluator.evaluate(frozenset(combo))
                for combo in itertools.combinations(range(16), 8)
            ),
            key=lambda r: r.scalar,
        )
        assert best.canonical == canonical_placement(DIAG4, 4)
