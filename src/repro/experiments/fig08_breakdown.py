"""Figure 8: latency and power breakdowns under UR traffic.

(a) network latency split into blocking, queuing and transfer components,
    normalized to the baseline -- HeteroNoC's gains come from queuing and
    blocking reductions;
(b) power split into links, crossbar, arbiters+logic and buffers -- the
    +BL savings come mostly from buffers (33 % fewer bits) and the
    narrower small-router crossbars.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.common import format_table, sweep_layouts

BREAKDOWN_LAYOUTS = ("baseline", "center+BL", "diagonal+BL", "row2_5+BL")


def run(
    rate: float = 0.045,
    layouts: Sequence[str] = BREAKDOWN_LAYOUTS,
    warmup_packets: int = 100,
    measure_packets: int = 600,
    seed: int = 11,
) -> Dict[str, object]:
    samples = sweep_layouts(
        layouts, "uniform_random", [rate], warmup_packets=warmup_packets,
        measure_packets=measure_packets, seed=seed,
    )
    latency = {}
    power = {}
    for layout in layouts:
        sample = samples[layout][0]
        latency[layout] = {
            "blocking": sample["blocking_cycles"],
            "queuing": sample["queuing_cycles"],
            "transfer": sample["transfer_cycles"],
            "total": sample["latency_cycles"],
        }
        breakdown = sample["power_breakdown"]
        power[layout] = {
            "links": breakdown["links"],
            "crossbar": breakdown["crossbar"],
            "arbiters_logic": breakdown["arbiters_logic"],
            "buffers": breakdown["buffers"],
            "total": breakdown["total"],
        }
    return {"rate": rate, "latency": latency, "power": power}


def main() -> None:
    data = run()
    base_lat = data["latency"]["baseline"]["total"]
    print("Figure 8(a): latency breakdown, % of baseline total")
    rows = []
    for layout, parts in data["latency"].items():
        rows.append(
            [
                layout,
                f"{100 * parts['blocking'] / base_lat:.1f}",
                f"{100 * parts['queuing'] / base_lat:.1f}",
                f"{100 * parts['transfer'] / base_lat:.1f}",
                f"{100 * parts['total'] / base_lat:.1f}",
            ]
        )
    print(format_table(["layout", "blocking", "queuing", "transfer", "total"], rows))
    print()
    base_pow = data["power"]["baseline"]["total"]
    print("Figure 8(b): power breakdown, % of baseline total")
    rows = []
    for layout, parts in data["power"].items():
        rows.append(
            [
                layout,
                f"{100 * parts['links'] / base_pow:.1f}",
                f"{100 * parts['crossbar'] / base_pow:.1f}",
                f"{100 * parts['arbiters_logic'] / base_pow:.1f}",
                f"{100 * parts['buffers'] / base_pow:.1f}",
                f"{100 * parts['total'] / base_pow:.1f}",
            ]
        )
    print(
        format_table(
            ["layout", "links", "xbar", "arb+logic", "buffers", "total"], rows
        )
    )
