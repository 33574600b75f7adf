"""Tests for the placement-search experiment harness (smoke scale)."""

import pytest

from repro.core.layouts import diagonal_positions
from repro.experiments import placement_search
from repro.search.canonical import (
    canonical_placement,
    is_diagonal_family,
    wrapped_diagonals,
)


class TestFamilyCandidates:
    def test_every_candidate_is_family(self):
        for candidate in placement_search.family_candidates(8, 16):
            assert is_diagonal_family(candidate, 8)
            assert len(candidate) == 16

    def test_contains_the_figure3_diagonal(self):
        diag8 = canonical_placement(diagonal_positions(8), 8)
        assert diag8 in placement_search.family_candidates(8, 16)

    def test_contains_a_parallel_stripe(self):
        bands = wrapped_diagonals(8)
        stripe = canonical_placement(bands[1] | bands[5], 8)
        assert stripe in placement_search.family_candidates(8, 16)

    def test_candidates_are_canonical_and_distinct(self):
        candidates = placement_search.family_candidates(8, 16)
        assert len(set(candidates)) == len(candidates)
        for candidate in candidates:
            assert candidate == canonical_placement(candidate, 8)

    def test_non_divisible_budget_has_no_family(self):
        assert placement_search.family_candidates(8, 15) == []


class TestSmokeRun:
    @pytest.fixture(scope="class")
    def smoke(self):
        return placement_search.run(smoke=True, refine_packets=120)

    def test_all_checks_pass(self, smoke):
        failed = [n for n, ok in smoke["checks"].items() if not ok]
        assert not failed

    def test_exhaustive_covers_the_footnote4_space(self, smoke):
        assert smoke["count_4x4"] == 12870

    def test_annealing_cheaper_than_enumeration(self, smoke):
        assert smoke["anneal_4x4"].evaluations < smoke["count_4x4"] / 4

    def test_winner_is_the_diagonal(self, smoke):
        diag4 = canonical_placement(diagonal_positions(4), 4)
        assert smoke["exhaustive"].best_placement == diag4
        assert smoke["anneal_4x4"].best_placement == diag4

    def test_refinement_reports_every_candidate(self, smoke):
        refinement = smoke["refinement"]
        assert refinement["rows"]
        for row in refinement["rows"]:
            assert row["mean_latency_cycles"] > 0
            assert row["min_latency_cycles"] <= row["max_latency_cycles"]
        assert refinement["total_points"] == len(refinement["rows"]) * len(
            refinement["seeds"]
        )

    def test_smoke_is_deterministic(self, smoke):
        again = placement_search.run(smoke=True, refine_packets=120)
        assert (
            again["exhaustive"].best_placement
            == smoke["exhaustive"].best_placement
        )
        assert again["anneal_4x4"].history == smoke["anneal_4x4"].history
        assert [r["mean_latency_cycles"] for r in again["refinement"]["rows"]] == [
            r["mean_latency_cycles"] for r in smoke["refinement"]["rows"]
        ]
