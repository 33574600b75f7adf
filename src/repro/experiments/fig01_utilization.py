"""Figure 1: buffer and link utilization heat maps on an 8x8 mesh.

The paper runs the baseline homogeneous network near saturation (~6 %
packets/node/cycle) with uniform-random traffic and shows that central
routers reach ~75 % buffer/link utilization while peripheral routers sit
near ~35 %, with corners slightly hotter than their row/column peers.
"""

from __future__ import annotations

from typing import Dict, List

from repro.exec import SweepPoint, run_sweep
from repro.experiments.common import format_table


def run(
    rate: float = 0.055,
    mesh_size: int = 8,
    warmup_packets: int = 100,
    measure_packets: int = 600,
    seed: int = 11,
) -> Dict[str, object]:
    """Returns per-router buffer and link utilization grids (fractions)."""
    point = SweepPoint(
        layout="baseline",
        mesh_size=mesh_size,
        pattern="uniform_random",
        rate=rate,
        seed=seed,
        warmup_packets=warmup_packets,
        measure_packets=measure_packets,
    )
    result = run_sweep([point])[0]
    n = mesh_size
    buffer_grid = [result.buffer_utilization[r * n:(r + 1) * n] for r in range(n)]
    link_grid = [result.link_utilization[r * n:(r + 1) * n] for r in range(n)]
    return {
        "rate": rate,
        "buffer_utilization": buffer_grid,
        "link_utilization": link_grid,
        "center_buffer_util": _region_mean(buffer_grid, center=True),
        "edge_buffer_util": _region_mean(buffer_grid, center=False),
        "center_link_util": _region_mean(link_grid, center=True),
        "edge_link_util": _region_mean(link_grid, center=False),
    }


def _region_mean(grid: List[List[float]], center: bool) -> float:
    """Mean over the central quarter (or the boundary ring) of the grid."""
    n = len(grid)
    lo, hi = n // 4, n - n // 4
    values = []
    for r in range(n):
        for c in range(n):
            in_center = lo <= r < hi and lo <= c < hi
            if in_center == center:
                values.append(grid[r][c])
    return sum(values) / len(values)


def main() -> dict:
    """Print the tables; returns the :func:`run` data."""
    data = run()
    for key, label in (
        ("buffer_utilization", "Buffer utilization (%)"),
        ("link_utilization", "Link utilization (%)"),
    ):
        grid = data[key]
        rows = [
            [f"{100 * cell:5.1f}" for cell in row] for row in grid
        ]
        print(format_table([f"c{c}" for c in range(len(grid))], rows, label))
        print()
    print(
        "center vs edge buffer util: "
        f"{100 * data['center_buffer_util']:.1f}% vs "
        f"{100 * data['edge_buffer_util']:.1f}%  "
        "(paper: ~75% vs ~35%)"
    )
    return data
