"""Tests for the HeteroNoC resource-redistribution math and layouts."""

import pytest

from repro.core.hetero import (
    bisection_bandwidth_bits,
    buffer_reduction_fraction,
    hetero_link_width,
    min_small_routers,
    power_slack,
    total_buffer_bits,
    total_buffer_flits,
    total_vcs,
)
from repro.core.layouts import (
    LAYOUT_NAMES,
    asymmetric_cmp_layout,
    all_layouts,
    baseline_layout,
    build_network,
    center_positions,
    diagonal_positions,
    layout_by_name,
    memory_controller_placement,
    row2_5_positions,
)
from repro.noc.topology import Mesh, Torus


class TestLinkWidthEquation:
    def test_paper_numbers(self):
        assert hetero_link_width(192, 8, 4, 4) == 128

    def test_general_solution(self):
        # All wide: W_homo*n = 2W*n -> W = W_homo/2.
        assert hetero_link_width(256, 8, 0, 8) == 128

    def test_counts_must_add_up(self):
        with pytest.raises(ValueError):
            hetero_link_width(192, 8, 3, 4)

    def test_must_divide_evenly(self):
        with pytest.raises(ValueError):
            hetero_link_width(101, 3, 2, 1)


class TestPowerInequality:
    def test_paper_minimum(self):
        assert min_small_routers(8) == 38

    def test_chosen_48_satisfies_bound(self):
        assert 48 >= min_small_routers(8)

    def test_slack_turns_negative_past_the_minimum(self):
        most_big = 64 - min_small_routers(8)
        assert power_slack(64, most_big) >= 0 > power_slack(64, most_big + 1)


class TestResourceAccounting:
    def test_vc_invariant_all_layouts(self):
        base = total_vcs(baseline_layout().router_configs())
        for layout in all_layouts():
            assert total_vcs(layout.router_configs("strict")) == base == 960

    def test_buffer_slots_constant(self):
        base = total_buffer_flits(baseline_layout().router_configs())
        hetero = total_buffer_flits(layout_by_name("diagonal+BL").router_configs("strict"))
        assert base == hetero == 4800

    def test_buffer_bits_reduced_one_third(self):
        base = baseline_layout().router_configs()
        hetero = layout_by_name("center+BL").router_configs("strict")
        assert total_buffer_bits(base) == 921_600
        assert total_buffer_bits(hetero) == 614_400
        assert buffer_reduction_fraction(hetero, base) == pytest.approx(1 / 3)

    def test_plus_b_layouts_save_no_bits(self):
        base = baseline_layout().router_configs()
        hetero = layout_by_name("center+B").router_configs()
        assert total_buffer_bits(hetero) == total_buffer_bits(base)

    def test_bisection_bandwidth_never_exceeds_baseline(self):
        mesh = Mesh(8)
        base = bisection_bandwidth_bits(mesh, baseline_layout().router_configs())
        assert base == 8 * 192
        for name in LAYOUT_NAMES:
            configs = layout_by_name(name).router_configs("strict")
            assert bisection_bandwidth_bits(mesh, configs) <= base

    def test_center_bl_bisection_exactly_constant(self):
        """Center+BL puts 4 wide + 4 narrow links across the cut: the
        paper's link-width equation holds with equality."""
        mesh = Mesh(8)
        configs = layout_by_name("center+BL").router_configs("strict")
        assert bisection_bandwidth_bits(mesh, configs) == 8 * 192


class TestPositions:
    def test_diagonal_positions(self):
        positions = diagonal_positions(8)
        assert len(positions) == 16
        assert 0 in positions and 63 in positions  # main diagonal corners
        assert 7 in positions and 56 in positions  # anti-diagonal corners

    def test_center_positions_are_central_block(self):
        positions = center_positions(8)
        assert len(positions) == 16
        expected = {r * 8 + c for r in range(2, 6) for c in range(2, 6)}
        assert positions == expected

    def test_row_positions(self):
        positions = row2_5_positions(8)
        assert len(positions) == 16
        rows = {p // 8 for p in positions}
        assert rows == {1, 4}  # the paper's 2nd and 5th rows


class TestLayouts:
    def test_seven_layouts(self):
        assert len(LAYOUT_NAMES) == 7
        assert len(all_layouts()) == 7

    def test_router_counts(self):
        for name in LAYOUT_NAMES[1:]:
            layout = layout_by_name(name)
            assert layout.num_big == 16
            assert layout.num_small == 48

    def test_baseline_is_homogeneous(self):
        layout = baseline_layout()
        assert layout.is_baseline
        configs = layout.router_configs()
        assert all(c.kind == "baseline" for c in configs.values())

    def test_frequencies(self):
        assert baseline_layout().frequency_ghz == pytest.approx(2.20)
        for name in LAYOUT_NAMES[1:]:
            assert layout_by_name(name).frequency_ghz == pytest.approx(2.07)

    def test_unknown_layout(self):
        with pytest.raises(ValueError):
            layout_by_name("ring+BL")

    def test_flit_mode_validation(self):
        with pytest.raises(ValueError):
            layout_by_name("diagonal+BL").router_configs("loose")

    def test_strict_mode_uses_128b_flits(self):
        configs = layout_by_name("diagonal+BL").router_configs("strict")
        assert all(c.flit_width == 128 for c in configs.values())

    def test_paper_flits_are_192b(self):
        configs = layout_by_name("diagonal+BL").router_configs("paper")
        assert all(c.flit_width == 192 for c in configs.values())
        big = [c for c in configs.values() if c.kind == "big"]
        assert all(c.lanes == 2 for c in big)

    def test_build_network_default_mesh(self):
        network = build_network(layout_by_name("diagonal+BL"))
        assert isinstance(network.topology, Mesh)
        assert network.config.frequency_ghz == pytest.approx(2.07)

    def test_build_network_torus(self):
        network = build_network(layout_by_name("diagonal+BL"), topology=Torus(8))
        assert isinstance(network.topology, Torus)

    def test_build_network_size_mismatch(self):
        with pytest.raises(ValueError):
            build_network(layout_by_name("diagonal+BL"), topology=Mesh(4))


class TestMemoryControllerPlacements:
    def test_corners(self):
        assert memory_controller_placement("corners") == [0, 7, 56, 63]

    def test_diamond_two_per_row_and_column(self):
        nodes = memory_controller_placement("diamond")
        assert len(nodes) == 16
        rows = [n // 8 for n in nodes]
        cols = [n % 8 for n in nodes]
        assert all(rows.count(r) == 2 for r in range(8))
        assert all(cols.count(c) == 2 for c in range(8))

    def test_diagonal_matches_big_routers(self):
        nodes = memory_controller_placement("diagonal")
        assert set(nodes) == diagonal_positions(8)

    def test_unknown_placement(self):
        with pytest.raises(ValueError):
            memory_controller_placement("ring")


class TestAsymmetricLayout:
    def test_four_large_at_corners(self):
        placement = asymmetric_cmp_layout()
        assert placement["large"] == [0, 7, 56, 63]
        assert len(placement["small"]) == 60
        assert set(placement["large"]) & set(placement["small"]) == set()

    def test_large_cores_sit_on_big_routers(self):
        placement = asymmetric_cmp_layout()
        assert set(placement["large"]) <= diagonal_positions(8)


class TestCustomLayoutValidation:
    def test_valid_custom_layout(self):
        from repro.core.layouts import custom_layout

        layout = custom_layout("probe", [0, 9, 18, 27], mesh_size=6)
        assert layout.num_big == 4
        assert layout.mesh_size == 6

    def test_duplicates_rejected(self):
        from repro.core.layouts import custom_layout

        with pytest.raises(ValueError, match=r"duplicate.*\[3, 7\]"):
            custom_layout("dup", [3, 7, 3, 7, 9])

    def test_non_int_positions_rejected(self):
        from repro.core.layouts import custom_layout

        with pytest.raises(ValueError, match="plain ints"):
            custom_layout("floaty", [0, 1.5, 3])
        with pytest.raises(ValueError, match="plain ints"):
            custom_layout("booly", [0, True, 3])

    def test_out_of_mesh_rejected(self):
        from repro.core.layouts import custom_layout

        with pytest.raises(ValueError, match="outside the mesh"):
            custom_layout("outside", [0, 64], mesh_size=8)

    def test_check_power_accepts_paper_mix(self):
        from repro.core.layouts import custom_layout

        layout = custom_layout(
            "paper-mix", sorted(diagonal_positions(8)), check_power=True
        )
        assert layout.num_big == 16

    def test_check_power_rejects_over_budget_mix(self):
        from repro.core.hetero import min_small_routers
        from repro.core.layouts import custom_layout

        max_big = 64 - min_small_routers(8)
        with pytest.raises(ValueError, match="power budget"):
            custom_layout(
                "too-big", list(range(max_big + 1)), check_power=True
            )

    def test_power_check_off_by_default(self):
        from repro.core.layouts import custom_layout

        # The footnote-4 sweeps explore over-budget mixes deliberately.
        layout = custom_layout("over", list(range(60)))
        assert layout.num_big == 60
