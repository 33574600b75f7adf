"""Figure 11: network latency and power with application workloads.

Full-system (CMP + coherence + NoC) runs over the paper's ten workloads:

(a) percentage network-latency reduction of each HeteroNoC layout over the
    baseline (paper: 18.5 % average for Diagonal+BL);
(b) latency breakdown (blocking / queuing / transfer);
(c) network power reduction (paper: 18 % average, 22 % Diagonal+BL);
(d) power breakdown (links / crossbar / arbiters+logic / buffers).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cmp import CmpSystem
from repro.core.layouts import layout_by_name
from repro.core.power import network_power_breakdown
from repro.experiments.common import format_table, percent_reduction
from repro.traffic.workloads import core_traces

DEFAULT_WORKLOADS = ("SAP", "SPECjbb", "frrt", "vips", "ddup", "sclst")
DEFAULT_LAYOUTS = ("baseline", "center+B", "diagonal+B", "center+BL", "diagonal+BL")


def run(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    layouts: Sequence[str] = DEFAULT_LAYOUTS,
    records_per_core: int = 400,
    seed: int = 7,
) -> Dict[str, object]:
    results: Dict[str, Dict[str, Dict[str, object]]] = {}
    for workload in workloads:
        results[workload] = {}
        for layout_name in layouts:
            layout = layout_by_name(layout_name)
            system = CmpSystem(
                layout,
                core_traces(
                    workload, range(layout.mesh_size**2), records_per_core, seed
                ),
            )
            cycles = system.measure()
            stats = system.network.stats
            power = network_power_breakdown(system.network, stats)
            results[workload][layout_name] = {
                "cycles": cycles,
                "ipc": system.mean_ipc(),
                "net_latency_cycles": stats.avg_latency_cycles,
                "queuing": stats.avg_queuing_cycles,
                "blocking": stats.avg_blocking_cycles,
                "transfer": stats.avg_transfer_cycles,
                "power_w": power["total"],
                "power_breakdown": power,
                "miss_latency": system.miss_latency_stats()["mean"],
            }
    summary = {}
    for layout in layouts:
        if layout == "baseline":
            continue
        latency_reductions = [
            percent_reduction(
                results[w][layout]["net_latency_cycles"],
                results[w]["baseline"]["net_latency_cycles"],
            )
            for w in workloads
        ]
        power_reductions = [
            percent_reduction(
                results[w][layout]["power_w"],
                results[w]["baseline"]["power_w"],
            )
            for w in workloads
        ]
        summary[layout] = {
            "avg_latency_reduction_pct": sum(latency_reductions) / len(workloads),
            "avg_power_reduction_pct": sum(power_reductions) / len(workloads),
        }
    return {"workloads": list(workloads), "results": results, "summary": summary}


def main() -> None:
    data = run()
    layouts = [l for l in DEFAULT_LAYOUTS if l != "baseline"]
    print("Figure 11(a): network latency reduction over baseline (%)")
    rows = []
    for w in data["workloads"]:
        row = [w]
        for layout in layouts:
            row.append(
                f"{percent_reduction(data['results'][w][layout]['net_latency_cycles'], data['results'][w]['baseline']['net_latency_cycles']):+.1f}"
            )
        rows.append(row)
    print(format_table(["workload"] + layouts, rows))
    print()
    print("Figure 11(b): latency breakdown (cycles)")
    rows = []
    for w in data["workloads"]:
        for layout in ("baseline", "diagonal+BL"):
            r = data["results"][w][layout]
            rows.append(
                [
                    w,
                    layout,
                    f"{r['blocking']:.1f}",
                    f"{r['queuing']:.1f}",
                    f"{r['transfer']:.1f}",
                ]
            )
    print(format_table(["workload", "layout", "blocking", "queuing", "transfer"], rows))
    print()
    print("Figure 11(c): network power reduction over baseline (%)")
    rows = []
    for w in data["workloads"]:
        row = [w]
        for layout in layouts:
            row.append(
                f"{percent_reduction(data['results'][w][layout]['power_w'], data['results'][w]['baseline']['power_w']):+.1f}"
            )
        rows.append(row)
    print(format_table(["workload"] + layouts, rows))
    print()
    for layout, s in data["summary"].items():
        print(
            f"{layout}: avg latency reduction {s['avg_latency_reduction_pct']:+.1f}% "
            f"(paper Diagonal+BL: +18.5%), avg power reduction "
            f"{s['avg_power_reduction_pct']:+.1f}% (paper: +18..22%)"
        )
