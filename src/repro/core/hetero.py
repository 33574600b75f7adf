"""The HeteroNoC resource-redistribution arithmetic (Section 2).

Three pieces of design math govern the heterogeneous network:

* the **link-width equation** keeps bisection bandwidth constant:
  ``W_homo * n = W_hetero * N_narrow + 2 * W_hetero * N_wide``;
* **VC stripping** keeps the total VC count constant: three baseline
  routers each donate one VC (3 -> 2) to turn a fourth baseline router
  into a big one (3 + 3 -> 6), so every big router is paired with exactly
  three small routers;
* the **power inequality** bounds the number of big routers so the
  heterogeneous network never consumes more than the homogeneous one:
  ``P_base * N^2 >= P_small * n_s + P_big * (N^2 - n_s)``.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.noc.config import MESH_PORTS, ROUTER_KINDS, RouterConfig
from repro.noc.link import link_width_between
from repro.noc.topology import Topology


def hetero_link_width(
    homo_width: int, bisection_links: int, narrow_links: int, wide_links: int
) -> int:
    """Solve the Section 2 link-width equation for the narrow width.

    >>> hetero_link_width(192, 8, 4, 4)
    128
    """
    if bisection_links <= 0 or narrow_links < 0 or wide_links < 0:
        raise ValueError("link counts must be positive")
    if narrow_links + wide_links != bisection_links:
        raise ValueError(
            "narrow + wide links must equal the bisection link count "
            f"({narrow_links}+{wide_links} != {bisection_links})"
        )
    denominator = narrow_links + 2 * wide_links
    width = homo_width * bisection_links / denominator
    if not width.is_integer():
        raise ValueError(
            f"link-width equation has no integral solution ({width})"
        )
    return int(width)


def min_small_routers(mesh_size: int) -> int:
    """Minimum small-router count for a power-neutral heterogeneous mesh.

    From ``P_base*N^2 >= P_small*n_s + P_big*(N^2 - n_s)`` over the Table 1
    powers: ``n_s >= N^2 * (P_big - P_base) / (P_big - P_small)``.

    >>> min_small_routers(8)
    38
    """
    base, small, big = (ROUTER_KINDS[k].power_w for k in ("baseline", "small", "big"))
    n_routers = mesh_size * mesh_size
    bound = n_routers * (big - base) / (big - small)
    return math.ceil(bound)


def power_slack(num_routers: int, num_big: int) -> float:
    """Signed fractional headroom of the power inequality for ``num_big``
    big routers among ``num_routers`` (negative: over the homogeneous
    budget).

    >>> round(power_slack(64, 16), 3)
    0.072
    """
    base, small, big = (ROUTER_KINDS[k].power_w for k in ("baseline", "small", "big"))
    budget = base * num_routers
    spent = big * num_big + small * (num_routers - num_big)
    return (budget - spent) / budget


def total_vcs(configs: Dict[int, RouterConfig], num_ports: int = MESH_PORTS) -> int:
    """Network-wide VC count (the redistribution invariant)."""
    return sum(cfg.num_vcs * num_ports for cfg in configs.values())


def total_buffer_bits(
    configs: Dict[int, RouterConfig], num_ports: int = MESH_PORTS
) -> int:
    """Network-wide buffer storage in bits (Table 1's bottom rows)."""
    return sum(cfg.buffer_bits(num_ports) for cfg in configs.values())


def total_buffer_flits(
    configs: Dict[int, RouterConfig], num_ports: int = MESH_PORTS
) -> int:
    """Network-wide buffer slot count (4,800 in both Table 1 networks)."""
    return sum(
        cfg.num_vcs * num_ports * cfg.buffer_depth for cfg in configs.values()
    )


def bisection_bandwidth_bits(
    topology: Topology, configs: Dict[int, RouterConfig]
) -> int:
    """Total width (bits/cycle, one direction) across the vertical bisection."""
    return sum(
        link_width_between(configs[src], configs[dst])
        for src, _sp, dst, _dp in topology.bisection_channels()
    )


def buffer_reduction_fraction(
    hetero: Dict[int, RouterConfig],
    baseline: Dict[int, RouterConfig],
    num_ports: int = MESH_PORTS,
) -> float:
    """Fractional buffer-bit saving of a hetero layout over the baseline.

    The paper's +BL networks save exactly one third (614,400 vs 921,600
    bits, Table 1).
    """
    base_bits = total_buffer_bits(baseline, num_ports)
    hetero_bits = total_buffer_bits(hetero, num_ports)
    return 1.0 - hetero_bits / base_bits
