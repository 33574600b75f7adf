"""HeteroNoC: the paper's primary contribution.

* :mod:`repro.core.layouts` -- the seven evaluated network configurations
  (baseline plus Center/Row2_5/Diagonal in +B and +BL flavours), memory
  controller placements and the asymmetric-CMP floorplan.
* :mod:`repro.core.hetero` -- the resource-redistribution math: the
  link-width equation, VC stripping and the power inequality bounding the
  big-router count.
* :mod:`repro.core.power` -- router power/area/frequency models calibrated
  to the paper's Table 1.
* :mod:`repro.core.merging` -- flit-combining statistics (Section 3.3).

The footnote-4 placement search (every 4x4 placement, then the winning
shapes at 8x8) is :func:`repro.search.exhaustive_search` over a
:class:`repro.search.PlacementEvaluator`.
"""

from repro.core.hetero import (
    hetero_link_width,
    min_small_routers,
    total_buffer_bits,
    total_vcs,
)
from repro.core.layouts import (
    LAYOUT_NAMES,
    Layout,
    asymmetric_cmp_layout,
    baseline_layout,
    build_network,
    layout_by_name,
    memory_controller_placement,
)
from repro.core.power import (
    RouterPowerModel,
    network_power_breakdown,
    router_area_mm2,
    router_frequency_ghz,
)

__all__ = [
    "LAYOUT_NAMES",
    "Layout",
    "RouterPowerModel",
    "asymmetric_cmp_layout",
    "baseline_layout",
    "build_network",
    "hetero_link_width",
    "layout_by_name",
    "memory_controller_placement",
    "min_small_routers",
    "network_power_breakdown",
    "router_area_mm2",
    "router_frequency_ghz",
    "total_buffer_bits",
    "total_vcs",
]
