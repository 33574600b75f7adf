"""Figure 9: the nearest-neighbour anomaly.

With nearest-neighbour (NN) traffic every packet travels one hop, so the
many small routers -- with fewer VCs and narrower links -- are on *every*
path and the big routers' extra resources help few flows.  The paper
reports that HeteroNoC loses here: average latency +7 %, throughput
-9.5 %, and only ~7 % power savings; Center+BL beats Diagonal+BL because
central NN flows stay among big routers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import (
    format_table,
    percent_change,
    percent_reduction,
    sweep_layouts,
)

NN_LAYOUTS = ("baseline", "center+BL", "diagonal+BL", "row2_5+BL")
DEFAULT_RATES = (0.02, 0.05, 0.08, 0.11)


def run(
    rates: Sequence[float] = DEFAULT_RATES,
    layouts: Sequence[str] = NN_LAYOUTS,
    fast: bool = True,
    seed: int = 11,
    flit_mode: str = "strict",
) -> Dict[str, object]:
    """NN sweep.

    Defaults to the *strict* flit mode: the anomaly the paper reports is
    precisely the physical bandwidth loss of the narrow edge links for
    one-hop traffic, which the paper-accounting mode hides (see
    EXPERIMENTS.md).
    """
    samples = sweep_layouts(
        layouts, "nearest_neighbor", rates, fast=fast, seed=seed,
        flit_mode=flit_mode,
    )
    curves: Dict[str, List[Dict[str, float]]] = {}
    for layout in layouts:
        curves[layout] = [
            {
                "rate": sample["rate"],
                "latency_ns": sample["latency_ns"],
                "throughput": sample["throughput"],
                "power_w": sample["power_w"],
                "saturated": sample["saturated"],
            }
            for sample in samples[layout]
        ]
    base = curves["baseline"]
    summary = {}
    for layout in layouts:
        if layout == "baseline":
            continue
        points = curves[layout]
        valid = [
            (p, b)
            for p, b in zip(points, base)
            if not (p["saturated"] or b["saturated"])
        ]
        summary[layout] = {
            "avg_latency_change_pct": (
                sum(percent_change(p["latency_ns"], b["latency_ns"]) for p, b in valid)
                / len(valid)
                if valid
                else float("nan")
            ),
            "throughput_change_pct": percent_change(
                points[-1]["throughput"], base[-1]["throughput"]
            ),
            "power_reduction_pct": percent_reduction(
                points[-1]["power_w"], base[-1]["power_w"]
            ),
        }
    return {"rates": list(rates), "curves": curves, "summary": summary}


def main(fast: bool = True) -> dict:
    """Print the tables; returns the :func:`run` data."""
    data = run(fast=fast)
    print("Figure 9: nearest-neighbour traffic")
    headers = ["rate"] + [f"{l} lat_ns" for l in data["curves"]]
    rows = []
    for i, rate in enumerate(data["rates"]):
        row = [f"{rate:.3f}"]
        for layout in data["curves"]:
            p = data["curves"][layout][i]
            row.append(f"{p['latency_ns']:.1f}{'*' if p['saturated'] else ''}")
        rows.append(row)
    print(format_table(headers, rows))
    print()
    rows = [
        [
            layout,
            f"{s['avg_latency_change_pct']:+.1f}%",
            f"{s['throughput_change_pct']:+.1f}%",
            f"{s['power_reduction_pct']:+.1f}%",
        ]
        for layout, s in data["summary"].items()
    ]
    print(
        format_table(
            ["layout", "avg latency change", "thpt change", "power red."],
            rows,
            "vs baseline (paper: +7% latency, -9.5% thpt, ~7% power for hetero)",
        )
    )
    return data


if __name__ == "__main__":
    main(fast=False)
