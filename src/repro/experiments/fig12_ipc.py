"""Figure 12: IPC improvement of HeteroNoC layouts over the baseline.

Full-system runs; the paper reports Diagonal+BL improving IPC by ~12 % on
commercial workloads and ~10 % on PARSEC.  This harness runs the same
full-system recipe as Figure 11 (:meth:`CmpSystem.measure`) and reports
the IPC view of the experiments.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cmp import CmpSystem
from repro.core.layouts import layout_by_name
from repro.experiments.common import format_table, percent_change
from repro.traffic.workloads import core_traces

COMMERCIAL = ("SAP", "SPECjbb", "TPC-C", "SJAS")
PARSEC = ("frrt", "fsim", "vips", "canl", "ddup", "sclst")
DEFAULT_LAYOUTS = ("baseline", "diagonal+B", "center+BL", "diagonal+BL")


def run(
    commercial: Sequence[str] = COMMERCIAL[:2],
    parsec: Sequence[str] = PARSEC[:3],
    layouts: Sequence[str] = DEFAULT_LAYOUTS,
    records_per_core: int = 400,
    seed: int = 7,
) -> Dict[str, object]:
    workloads = list(commercial) + list(parsec)
    ipc: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        ipc[workload] = {}
        for layout_name in layouts:
            layout = layout_by_name(layout_name)
            system = CmpSystem(
                layout,
                core_traces(
                    workload, range(layout.mesh_size**2), records_per_core, seed
                ),
            )
            system.measure()
            ipc[workload][layout_name] = system.mean_ipc()
    improvements: Dict[str, Dict[str, float]] = {}
    for layout in layouts:
        if layout == "baseline":
            continue
        improvements[layout] = {
            w: percent_change(ipc[w][layout], ipc[w]["baseline"])
            for w in workloads
        }
    def suite_avg(layout: str, suite: Sequence[str]) -> float:
        values = [improvements[layout][w] for w in suite if w in improvements[layout]]
        return sum(values) / len(values) if values else float("nan")

    summary = {
        layout: {
            "commercial_avg_pct": suite_avg(layout, commercial),
            "parsec_avg_pct": suite_avg(layout, parsec),
        }
        for layout in improvements
    }
    return {
        "ipc": ipc,
        "improvements": improvements,
        "summary": summary,
        "commercial": list(commercial),
        "parsec": list(parsec),
    }


def main() -> None:
    data = run()
    layouts = list(data["improvements"].keys())
    rows = []
    for w in data["commercial"] + data["parsec"]:
        suite = "comm" if w in data["commercial"] else "parsec"
        row = [w, suite, f"{data['ipc'][w]['baseline']:.3f}"]
        for layout in layouts:
            row.append(f"{data['improvements'][layout][w]:+.1f}%")
        rows.append(row)
    print(
        format_table(
            ["workload", "suite", "base IPC"] + layouts,
            rows,
            "Figure 12: IPC improvement over baseline",
        )
    )
    print()
    for layout, s in data["summary"].items():
        print(
            f"{layout}: commercial avg {s['commercial_avg_pct']:+.1f}% "
            f"(paper Diagonal+BL: +12%), PARSEC avg {s['parsec_avg_pct']:+.1f}% "
            "(paper: +10%)"
        )
