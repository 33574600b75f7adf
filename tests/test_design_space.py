"""Tests for the footnote-4 placement search: the X-Y geometry it scores
with and the exhaustive 4x4 enumeration in :mod:`repro.search`."""

import itertools

import pytest

from repro.core.layouts import (
    center_positions,
    diagonal_positions,
    row2_5_positions,
)
from repro.noc.routing import router_traversal_counts, xy_path_routers
from repro.noc.topology import Mesh
from repro.search import PlacementEvaluator, exhaustive_search


@pytest.fixture(scope="module")
def evaluator4():
    return PlacementEvaluator(4)


class TestXYPaths:
    def test_straight_line(self):
        mesh = Mesh(4)
        assert xy_path_routers(mesh, 0, 3) == [0, 1, 2, 3]

    def test_l_shape(self):
        mesh = Mesh(4)
        assert xy_path_routers(mesh, 0, 13) == [0, 1, 5, 9, 13]

    def test_same_router(self):
        assert xy_path_routers(Mesh(4), 6, 6) == [6]

    def test_length_is_minimal(self):
        mesh = Mesh(8)
        for src, dst in ((0, 63), (17, 42), (7, 56)):
            path = xy_path_routers(mesh, src, dst)
            sr, sc = mesh.coords(src)
            dr, dc = mesh.coords(dst)
            assert len(path) == abs(sr - dr) + abs(sc - dc) + 1


class TestTraversalCounts:
    def test_center_hotter_than_edges(self):
        counts = router_traversal_counts(Mesh(8))
        center = counts[3 * 8 + 3]
        corner = counts[0]
        assert center > 2 * corner

    def test_symmetry(self):
        counts = router_traversal_counts(Mesh(4))
        # 180-degree rotational symmetry of the mesh + X-Y routing.
        for rid in range(16):
            assert counts[rid] == counts[15 - rid]


class TestFootnote4Search:
    def test_footnote4_counts(self, evaluator4):
        for num_big, count in ((4, 1820), (6, 8008), (8, 12870)):
            assert exhaustive_search(evaluator4, num_big).proposals == count

    def test_score_components_bounded(self, evaluator4):
        record = evaluator4.evaluate(diagonal_positions(4))
        assert 0 < record.load_coverage < 1
        assert 0 < record.flow_coverage <= 1
        assert 0 < record.spread <= 1

    def test_diagonal_beats_random_corner_cluster(self, evaluator4):
        diagonal = evaluator4.evaluate(diagonal_positions(4))
        corner_cluster = evaluator4.evaluate({0, 1, 4, 5, 2, 8, 3, 12})
        assert diagonal.analytic > corner_cluster.analytic

    def test_named_shape_ranks(self, evaluator4):
        """The analytic pre-filter alone ranks the named shapes exactly
        where the footnote-4 example reports them; placements within
        float noise of a shape's score tie with it.  The paper's 4x4
        search (simulation-based) found diagonal-style placements best:
        the proxy still keeps the diagonal above the median."""
        analytic = [
            evaluator4.evaluate(combo).analytic
            for combo in itertools.combinations(range(16), 8)
        ]
        ranks = {
            name: 1 + sum(
                score > evaluator4.evaluate(positions).analytic + 1e-12
                for score in analytic
            )
            for name, positions in (
                ("diagonal", diagonal_positions(4)),
                ("center", center_positions(4)),
                ("row2_5", row2_5_positions(4)),
            )
        }
        assert ranks == {"diagonal": 4081, "center": 205, "row2_5": 8737}
        assert ranks["diagonal"] <= 0.35 * len(analytic)

    def test_named_placements_scored(self, evaluator4):
        # Diagonal spreads across all rows and columns; center does not.
        diagonal = evaluator4.evaluate(diagonal_positions(4))
        center = evaluator4.evaluate(center_positions(4))
        assert diagonal.spread > center.spread


class TestEnumerationGuard:
    def test_large_mesh_enumeration_refused(self):
        evaluator = PlacementEvaluator(8)
        with pytest.raises(ValueError, match="488,526,937,079,580"):
            exhaustive_search(evaluator, 16)
        # Refused up front, before a single placement is scored.
        assert evaluator.evaluations == 0

    def test_explicit_limit_overrides_default(self, evaluator4):
        with pytest.raises(ValueError, match="exceed"):
            exhaustive_search(evaluator4, 8, limit=100)
        # The footnote-4 spaces stay enumerable under the default.
        assert exhaustive_search(evaluator4, 8).proposals == 12870
