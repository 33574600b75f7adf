"""Figure 2: non-uniform buffer utilization in other topologies.

Shows that the non-uniformity of Figure 1 is a property of any
non-edge-symmetric network under deterministic routing: a 4x4 concentrated
mesh (concentration 4) and a 64-node flattened butterfly (16 routers) both
exhibit hotter central/intermediate routers under uniform-random traffic.
"""

from __future__ import annotations

from typing import Dict, List

from repro.exec import SweepPoint, run_sweep
from repro.experiments.common import format_table


def run(
    rate_cmesh: float = 0.03,
    rate_fbfly: float = 0.05,
    warmup_packets: int = 100,
    measure_packets: int = 600,
    seed: int = 11,
) -> Dict[str, List[List[float]]]:
    """Buffer-utilization grids for the two topologies.

    Rates are per *node*; the concentrated topologies aggregate 4 nodes
    per router, so these correspond to moderately loaded networks.  Both
    topologies run as independent sweep points (homogeneous generic
    routers, see :class:`repro.exec.SweepPoint`).
    """
    points = [
        SweepPoint(
            layout=None,
            topology=topo,
            mesh_size=4,
            concentration=4,
            pattern="uniform_random",
            rate=rate,
            seed=seed,
            warmup_packets=warmup_packets,
            measure_packets=measure_packets,
        )
        for topo, rate in (("cmesh", rate_cmesh), ("fbfly", rate_fbfly))
    ]
    cmesh_result, fbfly_result = run_sweep(points)

    def grid_of(result, side=4):
        return [
            result.buffer_utilization[r * side:(r + 1) * side]
            for r in range(side)
        ]

    cmesh_grid = grid_of(cmesh_result)
    fbfly_grid = grid_of(fbfly_result)

    def spread(grid):
        flat = [cell for row in grid for cell in row]
        return max(flat), min(flat)

    cmesh_hi, cmesh_lo = spread(cmesh_grid)
    fbfly_hi, fbfly_lo = spread(fbfly_grid)
    return {
        "cmesh_buffer_utilization": cmesh_grid,
        "fbfly_buffer_utilization": fbfly_grid,
        "cmesh_max_min": (cmesh_hi, cmesh_lo),
        "fbfly_max_min": (fbfly_hi, fbfly_lo),
    }


def main() -> None:
    data = run()
    for key, label in (
        ("cmesh_buffer_utilization", "Concentrated mesh buffer utilization (%)"),
        ("fbfly_buffer_utilization", "Flattened butterfly buffer utilization (%)"),
    ):
        grid = data[key]
        rows = [[f"{100 * cell:5.1f}" for cell in row] for row in grid]
        print(format_table([f"c{c}" for c in range(len(grid))], rows, label))
        print()
    hi, lo = data["cmesh_max_min"]
    print(f"cmesh spread: {100 * hi:.1f}% max vs {100 * lo:.1f}% min (paper: ~75 vs ~60)")
    hi, lo = data["fbfly_max_min"]
    print(f"fbfly spread: {100 * hi:.1f}% max vs {100 * lo:.1f}% min (paper: ~60 vs ~40)")
