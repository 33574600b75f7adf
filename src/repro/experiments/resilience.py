"""Resilience study: graceful degradation under permanent router faults.

The HeteroNoC concentrates bandwidth in a few big routers along the mesh
diagonals, which raises an obvious robustness question the paper does not
measure: what happens when routers *fail*?  A heterogeneous design has
more to lose per router -- killing a big router removes 6-VC/256b
capacity, and a targeted adversary would go straight for the diagonal.

This harness kills 0..4 routers along the main diagonal (all of them big
routers in the ``diagonal+BL`` HeteroNoC, ordinary small routers in the
homogeneous baseline), reroutes the survivors around the holes with the
fault-aware routing layer, and recovers in-flight casualties with NI
retransmission.  For each fault count it reports

* average latency of the *delivered* measured packets,
* accepted throughput inside the measurement window (the saturation /
  degradation curve the tests assert is monotone non-increasing),
* the delivered fraction of measured packets (the rest are explicit
  losses -- packets whose destination node sits on a dead router), and
* retransmission-layer activity.

The kill sets are nested (``order[:k]``) and every point shares one
seed, so the curves are directly comparable and the degradation is
attributable to the faults alone.  Points run through
:func:`repro.exec.run_sweep`, demonstrating that faulty configs cache
and parallelize like any other sweep point.

Usage::

    python -m repro.experiments.resilience            # = run_all resilience
    python -m repro.experiments.resilience --smoke    # CI smoke (tiny)
"""

from __future__ import annotations

import sys
from typing import Dict, List, Sequence

from repro.core.layouts import diagonal_positions
from repro.exec import SweepPoint, run_sweep
from repro.experiments.common import format_table
from repro.faults import kill_routers

#: the two designs under comparison: homogeneous mesh vs the paper's
#: buffers-and-links HeteroNoC.
LAYOUTS = ("baseline", "diagonal+BL")

#: retransmission knobs for the study: a short, bounded recovery so a
#: packet aimed at a dead router is declared lost within ~3k cycles
#: instead of backing off for hundreds of thousands.
RETRY_KNOBS = dict(retransmit_timeout=512, max_retries=2, backoff_factor=1.5)


def kill_order(mesh_size: int) -> List[int]:
    """Interior main-diagonal routers, nearest the center first.

    Every one of these is a big router under the diagonal layouts, so
    the same kill list is "targeted at the big routers" on the HeteroNoC
    and a plain interior kill on the homogeneous baseline.  Interior
    routers are chosen (never the corners) so each kill punches a hole
    the XY detour actually has to route around.
    """
    n = mesh_size
    interior = [i * (n + 1) for i in range(1, n - 1)]
    big = diagonal_positions(n)
    assert all(r in big for r in interior)
    center = (n - 1) / 2
    interior.sort(key=lambda r: (abs(r // n - center) + abs(r % n - center), r))
    return interior


def run(
    fault_counts: Sequence[int] = (0, 1, 2, 3, 4),
    rate: float = 0.08,
    mesh_size: int = 8,
    warmup_packets: int = 100,
    measure_packets: int = 600,
    seed: int = 11,
) -> Dict[str, object]:
    order = kill_order(mesh_size)
    if max(fault_counts) > len(order):
        raise ValueError(
            f"at most {len(order)} routers in the kill order for a "
            f"{mesh_size}x{mesh_size} mesh"
        )
    points = []
    for layout in LAYOUTS:
        for k in fault_counts:
            faults = kill_routers(order[:k], at=0, **RETRY_KNOBS) if k else None
            points.append(
                SweepPoint(
                    layout=layout,
                    mesh_size=mesh_size,
                    pattern="uniform_random",
                    rate=rate,
                    seed=seed,
                    warmup_packets=warmup_packets,
                    measure_packets=measure_packets,
                    drain_cycle_cap=60_000,
                    faults=faults,
                )
            )
    results = run_sweep(points)
    curves: Dict[str, List[Dict[str, object]]] = {}
    index = 0
    for layout in LAYOUTS:
        rows: List[Dict[str, object]] = []
        for k in fault_counts:
            result = results[index]
            index += 1
            offered = result.measured_packets + result.lost_measured_packets
            res = result.resilience or {}
            rows.append(
                {
                    "faults": k,
                    "killed": order[:k],
                    "latency_ns": result.latency_ns,
                    "throughput": result.throughput,
                    "delivered": result.measured_packets,
                    "lost": result.lost_measured_packets,
                    "delivered_fraction": (
                        result.measured_packets / offered if offered else 0.0
                    ),
                    "retransmissions": res.get("retransmissions", 0),
                    "saturated": result.saturated,
                }
            )
        curves[layout] = rows
    return {
        "rate": rate,
        "mesh_size": mesh_size,
        "kill_order": order,
        "curves": curves,
    }


def main(**kwargs) -> None:
    data = run(**kwargs)
    print(
        f"Resilience: permanent router kills on the "
        f"{data['mesh_size']}x{data['mesh_size']} mesh "
        f"(UR @ {data['rate']} packets/node/cycle; "
        f"kill order {data['kill_order'][:4]}...)"
    )
    print(
        "Faults target the main diagonal: big routers on the HeteroNoC, "
        "small on the baseline.\n"
    )
    for layout, rows in data["curves"].items():
        print(f"{layout}:")
        table_rows = [
            [
                row["faults"],
                f"{row['latency_ns']:.1f}",
                f"{row['throughput']:.4f}",
                f"{row['delivered_fraction']:.3f}",
                row["lost"],
                row["retransmissions"],
                "yes" if row["saturated"] else "no",
            ]
            for row in rows
        ]
        print(
            format_table(
                [
                    "killed",
                    "latency ns",
                    "throughput",
                    "delivered",
                    "lost",
                    "retx",
                    "saturated",
                ],
                table_rows,
            )
        )
        print()


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv == ["--smoke"]:
        main(fault_counts=(0, 2, 4), warmup_packets=50, measure_packets=200)
    elif argv:
        print(f"usage: python -m repro.experiments.resilience [--smoke]; got {argv}")
        sys.exit(2)
    else:
        main()
