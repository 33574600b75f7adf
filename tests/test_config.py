"""Unit tests for router and network configuration records."""

import pytest

from repro.noc.config import (
    BASELINE_FLIT_WIDTH,
    HETERO_FLIT_WIDTH,
    MESH_PORTS,
    NARROW_LINK_WIDTH,
    WIDE_LINK_WIDTH,
    NetworkConfig,
    RouterConfig,
    baseline_router,
    big_router,
    big_router_buffer_only,
    big_router_paper_mode,
    router_config_summary,
    small_router,
    small_router_buffer_only,
    small_router_paper_mode,
)


class TestRouterConfig:
    def test_baseline_defaults(self):
        config = baseline_router()
        assert config.num_vcs == 3
        assert config.buffer_depth == 5
        assert config.flit_width == 192
        assert config.link_width == 192
        assert config.kind == "baseline"
        assert config.lanes == 1

    def test_small_router(self):
        config = small_router()
        assert (config.num_vcs, config.flit_width, config.link_width) == (2, 128, 128)
        assert config.lanes == 1

    def test_big_router_has_two_lanes(self):
        config = big_router()
        assert (config.num_vcs, config.flit_width, config.link_width) == (6, 128, 256)
        assert config.lanes == 2

    def test_buffer_only_variants_keep_baseline_width(self):
        assert small_router_buffer_only().flit_width == BASELINE_FLIT_WIDTH
        assert big_router_buffer_only().link_width == BASELINE_FLIT_WIDTH
        assert big_router_buffer_only().num_vcs == 6

    def test_paper_mode_hardware_widths(self):
        small = small_router_paper_mode()
        big = big_router_paper_mode()
        # Simulation widths follow baseline flit accounting...
        assert small.flit_width == BASELINE_FLIT_WIDTH
        assert big.lanes == 2
        # ...but the power model sees the physical datapath.
        assert small.hw_flit_width == HETERO_FLIT_WIDTH
        assert small.hw_link_width == NARROW_LINK_WIDTH
        assert big.hw_link_width == WIDE_LINK_WIDTH

    def test_hw_widths_default_to_simulation_widths(self):
        config = baseline_router()
        assert config.hw_flit_width == config.flit_width
        assert config.hw_link_width == config.link_width

    def test_buffer_bits_matches_table1(self):
        # 3 VCs x 5 ports x 5 deep x 192 b = 14,400 bits per router.
        assert baseline_router().buffer_bits(MESH_PORTS) == 14_400
        assert small_router().buffer_bits(MESH_PORTS) == 6_400
        assert big_router().buffer_bits(MESH_PORTS) == 19_200

    def test_paper_mode_buffer_bits_use_hardware_width(self):
        assert small_router_paper_mode().buffer_bits(MESH_PORTS) == 6_400
        assert big_router_paper_mode().buffer_bits(MESH_PORTS) == 19_200

    def test_rejects_bad_vcs(self):
        with pytest.raises(ValueError):
            RouterConfig(num_vcs=0)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            RouterConfig(buffer_depth=0)

    def test_rejects_link_not_multiple_of_flit(self):
        with pytest.raises(ValueError):
            RouterConfig(flit_width=192, link_width=256)

    def test_summary_counts_kinds(self):
        configs = {0: big_router(), 1: small_router(), 2: small_router()}
        assert router_config_summary(configs) == {"big": 1, "small": 2}


class TestNetworkConfig:
    def test_defaults(self):
        config = NetworkConfig()
        assert config.router_pipeline_stages == 2
        assert config.link_delay == 1
        assert config.frequency_ghz == pytest.approx(2.20)

    def test_cycle_time(self):
        assert NetworkConfig(frequency_ghz=2.0).cycle_time_ns == pytest.approx(0.5)

    def test_zero_load_hop_cycles(self):
        assert NetworkConfig().zero_load_hop_cycles() == 3

    def test_with_frequency(self):
        config = NetworkConfig().with_frequency(2.07)
        assert config.frequency_ghz == pytest.approx(2.07)
        assert config.link_delay == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NetworkConfig(router_pipeline_stages=0)
        with pytest.raises(ValueError):
            NetworkConfig(link_delay=0)
        with pytest.raises(ValueError):
            NetworkConfig(credit_delay=-1)
        with pytest.raises(ValueError):
            NetworkConfig(credit_delay=0)  # every credit would be lost
        with pytest.raises(ValueError):
            NetworkConfig(frequency_ghz=0.0)
