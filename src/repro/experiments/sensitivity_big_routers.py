"""Sensitivity study: how many big routers should a HeteroNoC have?

The paper fixes 16 big routers (2N) from symmetry and the power
inequality, and explicitly defers the wide/narrow link-ratio sensitivity
to future work (footnote 2).  This harness performs that study: it sweeps
the big-router budget along generalized diagonal placements
(:func:`repro.core.layouts.extended_diagonal_positions`), measuring

* UR latency and accepted throughput at a fixed offered load,
* modelled network power,
* the wide-link fraction of the bisection, and
* whether the power inequality (Section 2) still holds.

The paper's own guideline predicts the interesting boundary: with Table 1
router powers, power neutrality requires at least 38 small routers, i.e.
at most 26 big ones on the 8x8 mesh.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.hetero import bisection_bandwidth_bits, min_small_routers
from repro.core.layouts import (
    baseline_layout,
    custom_layout,
    extended_diagonal_positions,
)
from repro.exec import SweepPoint, run_sweep
from repro.experiments.common import format_table, measurement_scale
from repro.noc.topology import Mesh

DEFAULT_BUDGETS = (0, 8, 16, 24, 32)


def run(
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    rate: float = 0.05,
    mesh_size: int = 8,
    fast: bool = True,
    seed: int = 11,
) -> Dict[str, object]:
    scale = measurement_scale(fast)
    max_big_power_neutral = mesh_size**2 - min_small_routers(mesh_size)
    mesh = Mesh(mesh_size)
    common = dict(
        mesh_size=mesh_size,
        pattern="uniform_random",
        rate=rate,
        seed=seed,
        warmup_packets=scale["warmup_packets"],
        measure_packets=scale["measure_packets"],
    )
    layouts = {}
    points = []
    for num_big in budgets:
        if num_big == 0:
            layouts[num_big] = baseline_layout(mesh_size)
            points.append(SweepPoint(layout="baseline", **common))
        else:
            positions = extended_diagonal_positions(mesh_size, num_big)
            layouts[num_big] = custom_layout(
                f"diag-ext-{num_big}", positions, mesh_size=mesh_size
            )
            points.append(
                SweepPoint(layout=None, big_positions=tuple(positions), **common)
            )
    results = run_sweep(points)
    rows: List[Dict[str, object]] = []
    for num_big, result in zip(budgets, results):
        configs = layouts[num_big].router_configs("strict")
        bisection = bisection_bandwidth_bits(mesh, configs)
        rows.append(
            {
                "num_big": num_big,
                "latency_cycles": result.latency_cycles,
                "latency_ns": result.latency_ns,
                "throughput": result.throughput,
                "power_w": result.power_w,
                "bisection_bits": bisection,
                "power_neutral": num_big <= max_big_power_neutral,
            }
        )
    return {
        "rate": rate,
        "rows": rows,
        "max_big_power_neutral": max_big_power_neutral,
    }


def main(fast: bool = True) -> dict:
    """Print the tables; returns the :func:`run` data."""
    data = run(fast=fast)
    print(
        f"Sensitivity: big-router budget on the 8x8 mesh "
        f"(UR @ {data['rate']} packets/node/cycle)"
    )
    print(
        f"power-neutrality bound (Section 2 inequality): "
        f"<= {data['max_big_power_neutral']} big routers\n"
    )
    table_rows = [
        [
            row["num_big"],
            f"{row['latency_ns']:.1f}",
            f"{row['throughput']:.4f}",
            f"{row['power_w']:.1f}",
            row["bisection_bits"],
            "yes" if row["power_neutral"] else "NO",
        ]
        for row in data["rows"]
    ]
    print(
        format_table(
            ["big", "latency ns", "throughput", "power W", "bisection b", "power-neutral"],
            table_rows,
        )
    )
    return data


if __name__ == "__main__":
    main(fast=False)
