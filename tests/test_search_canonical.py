"""Property tests for mesh symmetries and canonicalization (repro.search)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layouts import diagonal_positions
from repro.noc.routing import router_traversal_counts, xy_path_routers
from repro.noc.topology import Mesh
from repro.search.objectives import PlacementEvaluator
from repro.search.canonical import (
    AXIS_SWAPPING,
    apply_transform,
    canonical_placement,
    dihedral_transforms,
    is_diagonal_family,
    placement_orbit,
    wrapped_diagonals,
)


_MESH4 = Mesh(4)
_TRAVERSALS4 = router_traversal_counts(_MESH4)
_PATHS4 = [
    frozenset(xy_path_routers(_MESH4, src, dst))
    for src in range(16)
    for dst in range(16)
    if src != dst
]


def _analytic_score(positions):
    """The footnote-4 score of ``positions`` itself on the 4x4 mesh, from
    its X-Y paths.  ``PlacementEvaluator.evaluate`` scores an orbit's
    canonical representative and caches it, so it cannot witness the
    score's invariance; this recomputation can."""
    big = frozenset(positions)
    load = sum(_TRAVERSALS4[r] for r in big) / sum(_TRAVERSALS4.values())
    flow = sum(1 for path in _PATHS4 if path & big) / len(_PATHS4)
    rows = {_MESH4.coords(r)[0] for r in big}
    cols = {_MESH4.coords(r)[1] for r in big}
    spread = (len(rows) + len(cols)) / 8.0
    return load + 0.3 * flow + 0.05 * spread


def placements(n, min_size=1):
    return st.frozensets(
        st.integers(0, n * n - 1), min_size=min_size, max_size=n * n - 1
    )


class TestTransforms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_each_transform_is_a_permutation(self, n):
        for mapping in dihedral_transforms(n):
            assert sorted(mapping) == list(range(n * n))

    def test_eight_distinct_transforms(self):
        assert len(set(dihedral_transforms(4))) == 8

    def test_identity_first(self):
        assert dihedral_transforms(4)[0] == tuple(range(16))

    def test_group_closure(self):
        """Composing any two transforms gives another of the eight."""
        maps = set(dihedral_transforms(3))
        for a in maps:
            for b in maps:
                assert tuple(a[b[i]] for i in range(9)) in maps

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError, match="mesh size"):
            dihedral_transforms(0)

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_axis_swapping_flags_match_path_geometry(self, src, dst):
        """AXIS_SWAPPING documents exactly which transforms turn X-Y paths
        into Y-X paths: the image of a flow's X-Y path equals the X-Y path
        of the transformed flow (axis-preserving) or of the transformed
        *reversed* flow (axis-swapping)."""
        mesh = Mesh(4)
        path = frozenset(xy_path_routers(mesh, src, dst))
        for mapping, swaps in zip(dihedral_transforms(4), AXIS_SWAPPING):
            image = apply_transform(path, mapping)
            if swaps:
                expected = frozenset(
                    xy_path_routers(mesh, mapping[dst], mapping[src])
                )
            else:
                expected = frozenset(
                    xy_path_routers(mesh, mapping[src], mapping[dst])
                )
            assert image == expected


class TestCanonicalization:
    @given(placements(4))
    @settings(max_examples=100, deadline=None)
    def test_orbit_members_share_one_representative(self, positions):
        canon = canonical_placement(positions, 4)
        for member in placement_orbit(positions, 4):
            assert canonical_placement(member, 4) == canon

    @given(placements(4))
    @settings(max_examples=100, deadline=None)
    def test_canonical_is_in_the_orbit(self, positions):
        canon = canonical_placement(positions, 4)
        assert frozenset(canon) in placement_orbit(positions, 4)

    @given(placements(4))
    @settings(max_examples=100, deadline=None)
    def test_orbit_size_divides_group_order(self, positions):
        assert 8 % len(placement_orbit(positions, 4)) == 0

    @given(placements(4))
    @settings(max_examples=100, deadline=None)
    def test_subgroup_canonical_is_coarser(self, positions):
        """Canonicalizing over a subgroup (the hotspot model's four
        axis-preserving maps) still maps symmetric placements together,
        just over a smaller orbit."""
        subgroup = tuple(
            m
            for m, swaps in zip(dihedral_transforms(4), AXIS_SWAPPING)
            if not swaps
        )
        canon = canonical_placement(positions, 4, subgroup)
        for mapping in subgroup:
            member = apply_transform(positions, mapping)
            assert canonical_placement(member, 4, subgroup) == canon

    @given(placements(4))
    @settings(max_examples=60, deadline=None)
    def test_analytic_score_invariant_under_all_eight_symmetries(
        self, positions
    ):
        """The footnote-4 analytic score is a class function of the orbit,
        and the evaluator's cached value is that score."""
        cached = PlacementEvaluator(4).evaluate(positions).analytic
        for member in placement_orbit(positions, 4):
            assert _analytic_score(member) == pytest.approx(cached, abs=1e-12)


class TestDiagonalFamily:
    def test_figure3_diagonal_is_family(self):
        assert is_diagonal_family(diagonal_positions(4), 4)
        assert is_diagonal_family(diagonal_positions(8), 8)

    def test_wrapped_diagonal_unions_are_family(self):
        bands = wrapped_diagonals(8)
        stripe = bands[1] | bands[5]  # parallel stripes, offsets 1 and 5
        assert is_diagonal_family(stripe, 8)

    def test_wrapped_diagonals_partition_per_orientation(self):
        bands = wrapped_diagonals(4)
        main, anti = bands[:4], bands[4:]
        assert frozenset().union(*main) == frozenset(range(16))
        assert frozenset().union(*anti) == frozenset(range(16))
        assert all(len(b) == 4 for b in bands)

    def test_wrong_cardinality_is_not_family(self):
        assert not is_diagonal_family({0, 5, 10}, 4)

    def test_broken_diagonal_is_not_family(self):
        broken = set(diagonal_positions(4))
        broken.remove(0)
        broken.add(1)
        assert not is_diagonal_family(broken, 4)

    def test_row_block_is_not_family(self):
        assert not is_diagonal_family(set(range(8)), 4)

    @given(placements(4, min_size=4))
    @settings(max_examples=60, deadline=None)
    def test_family_membership_is_symmetry_invariant(self, positions):
        flags = {
            is_diagonal_family(member, 4)
            for member in placement_orbit(positions, 4)
        }
        assert len(flags) == 1
