"""Unit tests for router and network configuration records."""

import pytest

from repro.core.layouts import LAYOUT_NAMES, layout_by_name
from repro.noc.config import (
    MESH_PORTS,
    NetworkConfig,
    RouterConfig,
    router_config,
)

#: (kind, layout family) -> (num_vcs, buffer_depth, flit_width, link_width,
#: power_flit_width, power_link_width): every provisioning a layout builds.
_PROVISIONING = {
    ("baseline", "baseline"): (3, 5, 192, 192, None, None),
    ("small", "+B"): (2, 5, 192, 192, None, None),
    ("big", "+B"): (6, 5, 192, 192, None, None),
    ("small", "+BL"): (2, 5, 192, 192, 128, 128),
    ("big", "+BL"): (6, 5, 192, 384, 128, 256),
    ("small", "+BL strict"): (2, 5, 128, 128, None, None),
    ("big", "+BL strict"): (6, 5, 128, 256, None, None),
}


class TestRouterConfig:
    @pytest.mark.parametrize("kind, family", list(_PROVISIONING))
    def test_router_config_fields(self, kind, family):
        config = router_config(kind, family)
        assert (
            config.num_vcs, config.buffer_depth, config.flit_width,
            config.link_width, config.power_flit_width, config.power_link_width,
        ) == _PROVISIONING[kind, family]
        assert config.kind == kind

    def test_layouts_build_exactly_these_configs(self):
        built = {
            config
            for name in LAYOUT_NAMES
            for flit_mode in ("paper", "strict")
            for config in layout_by_name(name, 4).router_configs(flit_mode).values()
        }
        assert built == {router_config(*key) for key in _PROVISIONING}

    def test_baseline_is_the_default_config(self):
        assert router_config("baseline") == RouterConfig()
        assert RouterConfig().lanes == 1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            router_config("big", "+L")

    def test_hw_widths_default_to_simulation_widths(self):
        config = router_config("baseline")
        assert config.hw_flit_width == config.flit_width
        assert config.hw_link_width == config.link_width

    def test_buffer_bits_matches_table1(self):
        # 3 VCs x 5 ports x 5 deep x 192 b = 14,400 bits per router.
        assert router_config("baseline").buffer_bits(MESH_PORTS) == 14_400
        assert router_config("small").buffer_bits(MESH_PORTS) == 6_400
        assert router_config("big").buffer_bits(MESH_PORTS) == 19_200

    def test_paper_flit_buffer_bits_use_hardware_width(self):
        assert router_config("small", "+BL").buffer_bits(MESH_PORTS) == 6_400
        assert router_config("big", "+BL").buffer_bits(MESH_PORTS) == 19_200

    def test_rejects_bad_vcs(self):
        with pytest.raises(ValueError):
            RouterConfig(num_vcs=0)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            RouterConfig(buffer_depth=0)

    def test_rejects_link_not_multiple_of_flit(self):
        with pytest.raises(ValueError):
            RouterConfig(flit_width=192, link_width=256)


class TestNetworkConfig:
    def test_defaults(self):
        config = NetworkConfig()
        assert config.router_pipeline_stages == 2
        assert config.link_delay == 1
        assert config.frequency_ghz == pytest.approx(2.20)

    def test_zero_load_hop_cycles(self):
        assert NetworkConfig().zero_load_hop_cycles() == 3

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
