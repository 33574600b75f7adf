"""Ablations of HeteroNoC's individual mechanisms.

DESIGN.md calls out three design choices worth isolating; this harness
measures each on the Diagonal+BL layout under UR traffic:

* **flit merging** (Section 3.2/3.3) -- rerun with the wide-link second
  grant disabled: wide links then carry one flit per cycle, exposing how
  much of the +BL gain the merging machinery provides;
* **flit accounting** -- paper mode (6-flit packets, double-pumped wide
  links) vs the physically strict 128-bit mode (8-flit packets), the
  interpretation gap analyzed in EXPERIMENTS.md;
* **placement** -- the same router mix scattered deterministically
  off-diagonal, isolating *where* from *what* (the paper's own Figure 3
  comparison, reduced to its essence).
"""

from __future__ import annotations

from typing import Dict

from repro.exec import SweepPoint, run_sweep
from repro.experiments.common import format_table


def _scattered_positions(n: int, num_big: int = None) -> set:
    """A deterministic low-traffic placement: fill from the mesh corners
    inward along the boundary (the anti-diagonal of the paper's advice)."""
    num_big = num_big if num_big is not None else 2 * n
    boundary = [
        r * n + c
        for r in range(n)
        for c in range(n)
        if r in (0, n - 1) or c in (0, n - 1)
    ]
    boundary.sort(key=lambda rid: (min(rid // n, n - 1 - rid // n)
                                   + min(rid % n, n - 1 - rid % n), rid))
    return set(boundary[:num_big])


def run(
    rate: float = 0.05,
    warmup_packets: int = 100,
    measure_packets: int = 600,
    seed: int = 11,
) -> Dict[str, Dict[str, float]]:
    common = dict(
        pattern="uniform_random",
        rate=rate,
        seed=seed,
        warmup_packets=warmup_packets,
        measure_packets=measure_packets,
    )
    variant_points = {
        "baseline": SweepPoint(layout="baseline", **common),
        "diagonal+BL": SweepPoint(layout="diagonal+BL", **common),
        "diagonal+BL/no-merging": SweepPoint(
            layout="diagonal+BL", flit_merging=False, **common
        ),
        "diagonal+BL/strict-flits": SweepPoint(
            layout="diagonal+BL", flit_mode="strict", **common
        ),
        "scattered+BL": SweepPoint(
            layout=None,
            big_positions=tuple(_scattered_positions(8)),
            **common,
        ),
    }
    results = run_sweep(list(variant_points.values()))
    return {
        name: {
            "latency_cycles": result.latency_cycles,
            "latency_ns": result.latency_ns,
            "throughput": result.throughput,
            "power_w": result.power_w,
            "merge_fraction": result.merge_fraction,
        }
        for name, result in zip(variant_points, results)
    }


def main() -> None:
    data = run()
    rows = [
        [
            name,
            f"{v['latency_ns']:.1f}",
            f"{v['throughput']:.4f}",
            f"{v['power_w']:.1f}",
            f"{100 * v['merge_fraction']:.0f}%",
        ]
        for name, v in data.items()
    ]
    print(
        format_table(
            ["variant", "latency ns", "throughput", "power W", "merged"],
            rows,
            "Mechanism ablations (UR @ 0.05)",
        )
    )
