"""Figure 7: performance and power with uniform-random traffic.

(a) load-latency curves for the baseline and the HeteroNoC layouts;
(b) summary improvements -- saturation throughput, average latency over
    the load range, and zero-load latency -- of each layout over the
    baseline;
(c) network power vs injection rate for the +BL layouts.

The paper's headline: Diagonal+BL reduces latency by ~24 %, raises
throughput by ~22 % and cuts power by ~28 % under UR traffic.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import (
    format_table,
    percent_change,
    percent_reduction,
    sweep_layouts,
)

DEFAULT_RATES = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)
CURVE_LAYOUTS = (
    "baseline",
    "center+B",
    "diagonal+B",
    "center+BL",
    "diagonal+BL",
    "row2_5+BL",
)
ALL_HETERO = (
    "center+B",
    "row2_5+B",
    "diagonal+B",
    "center+BL",
    "row2_5+BL",
    "diagonal+BL",
)


def run(
    rates: Sequence[float] = DEFAULT_RATES,
    layouts: Sequence[str] = CURVE_LAYOUTS,
    warmup_packets: int = 100,
    measure_packets: int = 600,
    seed: int = 11,
    pattern: str = "uniform_random",
) -> Dict[str, object]:
    """Sweep injection rate for each layout; also compute summary deltas.

    The (layout, rate) grid goes through the sweep engine
    (:mod:`repro.exec`) as independent points, so ``run_all --jobs N``
    fans it out across processes and a warm result cache skips the
    simulation entirely -- bit-identically either way.
    """
    samples = sweep_layouts(
        layouts, pattern, rates, warmup_packets=warmup_packets,
        measure_packets=measure_packets, seed=seed,
    )
    curves: Dict[str, List[Dict[str, float]]] = {}
    for layout in layouts:
        curves[layout] = [
            {
                "rate": sample["rate"],
                "latency_ns": sample["latency_ns"],
                "latency_cycles": sample["latency_cycles"],
                "throughput": sample["throughput"],
                "power_w": sample["power_w"],
                "saturated": sample["saturated"],
            }
            for sample in samples[layout]
        ]

    summary = {}
    base = curves["baseline"]
    for layout in layouts:
        if layout == "baseline":
            continue
        points = curves[layout]
        latency_deltas = [
            percent_reduction(p["latency_ns"], b["latency_ns"])
            for p, b in zip(points, base)
            if not (p["saturated"] or b["saturated"])
        ]
        summary[layout] = {
            # Throughput improvement: accepted traffic at the highest
            # offered load (the saturation region).
            "throughput_improvement_pct": percent_change(
                points[-1]["throughput"], base[-1]["throughput"]
            ),
            "avg_latency_reduction_pct": (
                sum(latency_deltas) / len(latency_deltas) if latency_deltas else float("nan")
            ),
            "zero_load_latency_reduction_pct": percent_reduction(
                points[0]["latency_ns"], base[0]["latency_ns"]
            ),
            "power_reduction_pct": percent_reduction(
                points[-1]["power_w"], base[-1]["power_w"]
            ),
        }
    return {"rates": list(rates), "curves": curves, "summary": summary}


PAPER_SUMMARY = {
    # layout: (throughput %, avg latency %, zero load %), Figure 7(b)
    "center+B": (11.0, 10.5, 2.0),
    "row2_5+B": (4.5, 4.0, 2.0),
    "diagonal+B": (15.0, 13.5, 2.0),
    "center+BL": (17.0, 20.0, 12.0),
    "row2_5+BL": (14.0, 16.0, 12.0),
    "diagonal+BL": (22.0, 24.0, 12.0),
}


def main() -> dict:
    """Print the tables; returns the :func:`run` data."""
    data = run()
    print("Figure 7(a): load-latency (ns)")
    headers = ["rate"] + list(data["curves"].keys())
    rows = []
    for i, rate in enumerate(data["rates"]):
        row = [f"{rate:.3f}"]
        for layout in data["curves"]:
            point = data["curves"][layout][i]
            mark = "*" if point["saturated"] else ""
            row.append(f"{point['latency_ns']:.1f}{mark}")
        rows.append(row)
    print(format_table(headers, rows))
    print("(* = offered load above saturation; latency unbounded)")
    print()
    print("Figure 7(b): improvement over baseline (measured vs paper)")
    rows = []
    for layout, s in data["summary"].items():
        paper = PAPER_SUMMARY.get(layout)
        paper_txt = f"({paper[0]:+.0f}/{paper[1]:+.0f}/{paper[2]:+.0f})" if paper else ""
        rows.append(
            [
                layout,
                f"{s['throughput_improvement_pct']:+.1f}%",
                f"{s['avg_latency_reduction_pct']:+.1f}%",
                f"{s['zero_load_latency_reduction_pct']:+.1f}%",
                f"{s['power_reduction_pct']:+.1f}%",
                paper_txt,
            ]
        )
    print(
        format_table(
            ["layout", "thpt", "avg lat red.", "zero-load red.", "power red.", "paper(t/l/z)"],
            rows,
        )
    )
    print()
    print("Figure 7(c): power (W) vs injection rate")
    rows = []
    for i, rate in enumerate(data["rates"]):
        row = [f"{rate:.3f}"]
        for layout in data["curves"]:
            row.append(f"{data['curves'][layout][i]['power_w']:.1f}")
        rows.append(row)
    print(format_table(headers, rows))
    return data
