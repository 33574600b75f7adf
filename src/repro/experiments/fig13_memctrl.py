"""Figure 13: co-evaluation with memory-controller placement (Section 6).

Follows Abts et al.: 16 memory controllers placed either in a *diamond*
lattice or along the mesh *diagonals*, combined with the homogeneous
baseline or the Diagonal+BL HeteroNoC (whose big routers then coincide
with the diagonal controllers).  Four configurations:

* ``corners_homo``    -- Table 2 reference: 4 corner MCs, homogeneous net;
* ``diamond_homo``    -- Abts et al.'s design (paper: -8 % round trip);
* ``diamond_hetero``  -- diamond MCs on Diagonal+BL (paper: -22 %);
* ``diagonal_hetero`` -- diagonal MCs on Diagonal+BL (paper: -28 %, and
  the lowest request-latency variance, 0.46 vs 0.66 normalized std).

Two workload modes, as in the paper: a closed-loop uniform-random mode
(each node keeps up to 16 requests outstanding, mirroring MSHR behaviour)
and the full-CMP application mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cmp import CmpSystem
from repro.cmp.system import CmpConfig
from repro.core.layouts import (
    build_network,
    layout_by_name,
    memory_controller_placement,
)
from repro.experiments.common import format_table, percent_reduction
from repro.traffic.workloads import core_traces

CONFIGURATIONS = {
    "corners_homo": ("corners", "baseline"),
    "diamond_homo": ("diamond", "baseline"),
    "diamond_hetero": ("diamond", "diagonal+BL"),
    "diagonal_hetero": ("diagonal", "diagonal+BL"),
}

PAPER_REDUCTIONS = {"diamond_homo": 8.0, "diamond_hetero": 22.0, "diagonal_hetero": 28.0}


@dataclass
class ClosedLoopResult:
    """Round-trip statistics of the UR closed-loop run."""

    mean_latency: float
    std_latency: float
    requests: int

    @property
    def normalized_std(self) -> float:
        return self.std_latency / self.mean_latency if self.mean_latency else 0.0


def run_closed_loop_ur(
    mc_placement: str,
    layout_name: str,
    num_requests: int = 2000,
    max_outstanding: int = 4,
    dram_latency: int = 60,
    seed: int = 13,
    max_cycles: int = 300_000,
) -> ClosedLoopResult:
    """Closed-loop UR: every node keeps requests to the MCs in flight.

    Requests are 1-flit address packets to an interleave-selected memory
    controller; responses are data packets.  ``dram_latency`` is kept
    shorter than the 400-cycle DRAM to keep the closed loop
    network-sensitive (the paper's Figure 13(b) latencies are
    network-dominated).
    """
    layout = layout_by_name(layout_name)
    network = build_network(layout)
    mcs = memory_controller_placement(mc_placement, layout.mesh_size)
    rng = random.Random(seed)
    num_nodes = network.topology.num_nodes
    outstanding = [0] * num_nodes
    issued = [0] * num_nodes
    request_start: Dict[int, int] = {}
    latencies: List[int] = []
    # (ready_cycle, mc, node, token)
    pending_responses: List[Tuple[int, int, int, int]] = []
    per_node = num_requests // num_nodes
    request_counter = [0]

    def on_delivery(packet, cycle: int) -> None:
        kind, node, token = packet.payload
        if kind == "request":
            # Arrived at the MC; respond after the DRAM latency.
            pending_responses.append((cycle + dram_latency, packet.dst, node, token))
        else:
            latencies.append(cycle - request_start.pop(token))
            outstanding[node] -= 1

    network.on_delivery = on_delivery
    while len(latencies) < per_node * num_nodes:
        if network.cycle >= max_cycles:
            raise RuntimeError("closed-loop run failed to complete; deadlock?")
        for node in range(num_nodes):
            while outstanding[node] < max_outstanding and issued[node] < per_node:
                mc = mcs[rng.randrange(len(mcs))]
                if mc == node:
                    mc = mcs[(mcs.index(mc) + 1) % len(mcs)]
                token = request_counter[0]
                request_counter[0] += 1
                request_start[token] = network.cycle
                packet = network.make_packet(
                    node, mc, payload_bits=64, packet_class="mem_request",
                    payload=("request", node, token),
                )
                network.enqueue(packet)
                outstanding[node] += 1
                issued[node] += 1
        # Fire DRAM responses that are ready.
        still = []
        for ready, mc, node, token in pending_responses:
            if ready <= network.cycle:
                packet = network.make_packet(
                    mc, node, payload_bits=1024, packet_class="mem_response",
                    payload=("response", node, token),
                )
                network.enqueue(packet)
            else:
                still.append((ready, mc, node, token))
        pending_responses[:] = still
        network.step()
    mean = sum(latencies) / len(latencies)
    var = sum((l - mean) ** 2 for l in latencies) / len(latencies)
    return ClosedLoopResult(
        mean_latency=mean, std_latency=var**0.5, requests=len(latencies)
    )


def run(
    workloads: Sequence[str] = ("SPECjbb", "frrt"),
    num_requests: int = 1500,
    records_per_core: int = 200,
    seed: int = 13,
) -> Dict[str, object]:
    ur: Dict[str, ClosedLoopResult] = {}
    for config_name, (placement, layout_name) in CONFIGURATIONS.items():
        ur[config_name] = run_closed_loop_ur(
            placement, layout_name, num_requests=num_requests, seed=seed
        )
    apps: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in workloads:
        apps[workload] = {}
        for config_name, (placement, layout_name) in CONFIGURATIONS.items():
            layout = layout_by_name(layout_name)
            system = CmpSystem(
                layout,
                core_traces(
                    workload, range(layout.mesh_size**2), records_per_core, seed
                ),
                config=CmpConfig(mc_placement=placement),
            )
            system.measure()
            apps[workload][config_name] = system.miss_latency_stats(
                via_memory_only=True
            )
    reference = ur["corners_homo"].mean_latency
    ur_reductions = {
        name: percent_reduction(result.mean_latency, reference)
        for name, result in ur.items()
        if name != "corners_homo"
    }
    return {"ur": ur, "apps": apps, "ur_reductions": ur_reductions}


def main() -> None:
    data = run()
    print("Figure 13(a): UR closed-loop request-response latency")
    rows = [
        [
            name,
            f"{result.mean_latency:.1f}",
            f"{result.normalized_std:.2f}",
            f"{data['ur_reductions'].get(name, 0.0):+.1f}%",
            f"({PAPER_REDUCTIONS.get(name, 0.0):+.0f}%)" if name in PAPER_REDUCTIONS else "(ref)",
        ]
        for name, result in data["ur"].items()
    ]
    print(
        format_table(
            ["config", "mean lat (cyc)", "norm. std", "reduction", "paper"], rows
        )
    )
    print()
    print("Figure 13(b): per-workload memory round-trip latency (CMP mode)")
    rows = []
    for workload, configs in data["apps"].items():
        for name, stats in configs.items():
            rows.append(
                [workload, name, f"{stats['mean']:.1f}", f"{stats['normalized_std']:.2f}"]
            )
    print(format_table(["workload", "config", "mean", "norm. std"], rows))
