"""Figure 10: heterogeneity in a mesh vs an edge-symmetric torus.

The paper drives an 8x8 mesh and an 8x8 torus with its application
workloads and reports the latency reduction of the Diagonal+BL
heterogeneous layout over each topology's homogeneous baseline: torus
benefits are on average ~44 % smaller, because wrap-around links spread
the load and roughly half the flows bypass the extra central resources.

We use the workload-profile packet streams (request/response pairs
between cores and home L2 banks) on the network alone, the same
abstraction the paper's network-only studies use.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Sequence, Tuple

from repro.core.layouts import baseline_layout, layout_by_name
from repro.core.layouts import build_network
from repro.experiments.common import format_table, percent_reduction
from repro.noc.network import Network
from repro.noc.topology import Mesh, Torus
from repro.traffic.workloads import WORKLOADS, app_packet_stream

DEFAULT_WORKLOADS = (
    "SAP",
    "SPECjbb",
    "TPC-C",
    "SJAS",
    "frrt",
    "fsim",
    "vips",
    "canl",
    "ddup",
    "sclst",
)


def run_app_traffic(
    network: Network,
    workload_name: str,
    rate: float,
    warmup_packets: int,
    measure_packets: int,
    seed: int,
    drain_cycle_cap: int = 100_000,
) -> Tuple[float, int]:
    """Drive the network with a workload's packet stream; returns ``(mean
    latency in cycles, unfinished)``.

    ``rate`` is the aggregate packet-injection probability per node per
    cycle (requests and responses both count as packets).  ``unfinished``
    counts the measured packets still in the network when the drain hit
    ``drain_cycle_cap``; the mean then covers only those that got out.
    """
    stream = app_packet_stream(WORKLOADS[workload_name], network.topology.num_nodes, seed)
    rng = random.Random(seed * 7 + 1)
    created = 0
    target = warmup_packets + measure_packets
    network.reset_stats()
    nodes = network.topology.num_nodes
    while created < target:
        for _ in range(nodes):
            if rng.random() >= rate:
                continue
            if created >= target:
                break
            src, dst, bits = next(stream)
            packet = network.make_packet(src, dst, payload_bits=bits)
            if created >= warmup_packets:
                packet.measured = True
            network.enqueue(packet)
            created += 1
        network.step()
    deadline = network.cycle + drain_cycle_cap
    while len(network.stats.records) < measure_packets and network.cycle < deadline:
        network.step()
    unfinished = measure_packets - len(network.stats.records)
    return network.stats.avg_latency_cycles, unfinished


def run_uniform_random(
    rate: float = 0.035,
    warmup_packets: int = 100,
    measure_packets: int = 600,
    seed: int = 17,
) -> Dict[str, float]:
    """Mesh-vs-torus comparison under plain UR traffic.

    A second, simpler view of the same question: at a moderate uniform
    load, how much does Diagonal+BL improve latency on each topology?
    The four (topology, layout) combinations run as independent sweep
    points through :func:`repro.exec.run_sweep`.
    """
    from repro.exec import SweepPoint, run_sweep

    combos = [
        (topo_name, layout_name)
        for topo_name in ("mesh", "torus")
        for layout_name in ("baseline", "diagonal+BL")
    ]
    results = run_sweep(
        [
            SweepPoint(
                layout=layout_name,
                topology=topo_name,
                pattern="uniform_random",
                rate=rate,
                seed=seed,
                warmup_packets=warmup_packets,
                measure_packets=measure_packets,
            )
            for topo_name, layout_name in combos
        ]
    )
    latencies: Dict[str, Dict[str, float]] = {"mesh": {}, "torus": {}}
    for (topo_name, layout_name), result in zip(combos, results):
        latencies[topo_name][layout_name] = result.latency_cycles
    return {
        "mesh_reduction_pct": percent_reduction(
            latencies["mesh"]["diagonal+BL"], latencies["mesh"]["baseline"]
        ),
        "torus_reduction_pct": percent_reduction(
            latencies["torus"]["diagonal+BL"], latencies["torus"]["baseline"]
        ),
    }


def run(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    rate: float = 0.05,
    warmup_packets: int = 100,
    measure_packets: int = 600,
    seed: int = 11,
) -> Dict[str, object]:
    """Per-workload Diagonal+BL latency reduction on mesh and torus;
    a reduction whose runs left ``unfinished[topology][workload]`` > 0
    measured packets undrained is reported but kept out of the averages."""
    hetero = layout_by_name("diagonal+BL")
    base = baseline_layout()
    reductions: Dict[str, Dict[str, float]] = {"mesh": {}, "torus": {}}
    unfinished: Dict[str, Dict[str, int]] = {"mesh": {}, "torus": {}}
    for topo_name in ("mesh", "torus"):
        for workload in workloads:
            results = {}
            unfinished[topo_name][workload] = 0
            for layout in (base, hetero):
                topology = (
                    Mesh(layout.mesh_size)
                    if topo_name == "mesh"
                    else Torus(layout.mesh_size)
                )
                network = build_network(layout, topology=topology)
                results[layout.name], left = run_app_traffic(
                    network, workload, rate, warmup_packets, measure_packets,
                    seed,
                )
                unfinished[topo_name][workload] += left
            reductions[topo_name][workload] = percent_reduction(
                results["diagonal+BL"], results["baseline"]
            )

    def average(topo_name: str) -> float:
        kept = [
            reduction
            for workload, reduction in reductions[topo_name].items()
            if not unfinished[topo_name][workload]
        ]
        return sum(kept) / len(kept) if kept else float("nan")

    mesh_avg = average("mesh")
    torus_avg = average("torus")
    return {
        "reductions": reductions,
        "unfinished": unfinished,
        "mesh_avg_reduction_pct": mesh_avg,
        "torus_avg_reduction_pct": torus_avg,
        "torus_benefit_deficit_pct": (
            100.0 * (1.0 - torus_avg / mesh_avg) if mesh_avg else float("nan")
        ),
    }


def format_reductions(data: Dict[str, object]) -> str:
    """The Figure 10 table and headline; ``*`` marks a reduction from
    truncated runs."""
    truncated = 0
    rows = []
    for w in data["reductions"]["mesh"]:
        row = [w]
        for topo_name in ("mesh", "torus"):
            cut = data["unfinished"][topo_name][w] > 0
            truncated += cut
            row.append(
                f"{data['reductions'][topo_name][w]:+.1f}%{'*' if cut else ''}"
            )
        rows.append(row)
    rows.append(
        [
            "average",
            f"{data['mesh_avg_reduction_pct']:+.1f}%",
            f"{data['torus_avg_reduction_pct']:+.1f}%",
        ]
    )
    table = format_table(
        ["workload", "mesh latency red.", "torus latency red."],
        rows,
        "Figure 10: Diagonal+BL latency reduction over homogeneous baseline",
    )
    if truncated:
        table += (
            "\n(* = drain cap hit with measured packets still in the "
            f"network; {truncated} such point(s) excluded from the averages)"
        )
    if any(math.isnan(data[f"{t}_avg_reduction_pct"]) for t in ("mesh", "torus")):
        return table + "\n\ntorus benefit: n/a, a topology has no point left to average"
    return table + (
        f"\n\ntorus benefit smaller by {data['torus_benefit_deficit_pct']:.0f}% "
        "(paper: ~44% smaller)"
    )


def main() -> None:
    data = run()
    print(format_reductions(data))
    ur = run_uniform_random()
    print(
        f"UR cross-check: mesh {ur['mesh_reduction_pct']:+.1f}% vs "
        f"torus {ur['torus_reduction_pct']:+.1f}% latency reduction"
    )
