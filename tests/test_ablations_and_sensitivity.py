"""Tests for the ablation knobs, custom layouts and sensitivity helpers."""

import pytest

from repro.core.hetero import min_small_routers
from repro.core.layouts import (
    custom_layout,
    diagonal_positions,
    extended_diagonal_positions,
    layout_by_name,
    build_network,
)
from repro.experiments.ablation_mechanisms import _scattered_positions
from repro.noc.config import NetworkConfig
from repro.traffic.patterns import UniformRandom
from repro.traffic.runner import run_synthetic
from repro.core.merging import merge_report


class TestCustomLayout:
    def test_arbitrary_positions(self):
        layout = custom_layout("mine", {0, 9, 18, 27}, mesh_size=8)
        configs = layout.router_configs()
        assert sum(1 for c in configs.values() if c.kind == "big") == 4
        assert layout.frequency_ghz == pytest.approx(2.07)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            custom_layout("bad", {64}, mesh_size=8)

    def test_custom_plus_b_layout(self):
        layout = custom_layout("mine+B", {5}, mesh_size=4, redistribute_links=False)
        configs = layout.router_configs()
        assert all(c.link_width == 192 for c in configs.values())


class TestExtendedDiagonal:
    def test_canonical_budget_matches_diagonal(self):
        assert extended_diagonal_positions(8, 16) == diagonal_positions(8)

    def test_smaller_budget_is_diagonal_subset(self):
        positions = extended_diagonal_positions(8, 8)
        assert positions <= diagonal_positions(8)
        assert len(positions) == 8

    def test_larger_budget_extends_by_load(self):
        positions = extended_diagonal_positions(8, 24)
        assert diagonal_positions(8) <= positions
        assert len(positions) == 24

    def test_bounds(self):
        with pytest.raises(ValueError):
            extended_diagonal_positions(8, 65)
        assert extended_diagonal_positions(8, 0) == set()

    def test_power_neutrality_bound(self):
        # Section 2: at most 64 - 38 = 26 big routers stay power neutral.
        assert 64 - min_small_routers(8) == 26


class TestMergingAblation:
    def _run(self, flit_merging):
        network = build_network(
            layout_by_name("diagonal+BL"), flit_merging=flit_merging
        )
        result = run_synthetic(
            network, UniformRandom(64), rate=0.04,
            warmup_packets=50, measure_packets=300, seed=8,
        )
        return network, result

    def test_disabled_merging_produces_no_pairs(self):
        network, result = self._run(flit_merging=False)
        assert merge_report(network, result.stats).merged_pairs == 0

    def test_disabled_merging_is_slower(self):
        _, with_merge = self._run(flit_merging=True)
        _, without = self._run(flit_merging=False)
        assert (
            with_merge.stats.avg_latency_cycles
            < without.stats.avg_latency_cycles
        )

    def test_transfer_model_consistent_without_merging(self):
        # With merging off, min_lanes is pinned to 1, so the analytic
        # transfer uses full serialization and blocking stays >= 0.
        _, result = self._run(flit_merging=False)
        for record in result.stats.records:
            assert record.blocking >= 0

    def test_config_flag_default_on(self):
        assert NetworkConfig().flit_merging


class TestScatteredPlacement:
    def test_positions_on_boundary(self):
        positions = _scattered_positions(8)
        assert len(positions) == 16
        for rid in positions:
            row, col = divmod(rid, 8)
            assert row in (0, 7) or col in (0, 7)

    def test_deterministic(self):
        assert _scattered_positions(8) == _scattered_positions(8)
