"""Figure 14: asymmetric CMP with a heterogeneous interconnect (Section 7).

Platform: 4 large out-of-order cores at the mesh corners and 60 small
in-order cores elsewhere.  Each large core runs one instance of the
latency-sensitive libquantum; the small cores run 60 SPECjbb threads
(high-TLP, throughput oriented).  Three network configurations:

* ``HomoNoC-XY``          -- baseline homogeneous network, X-Y routing;
* ``HeteroNoC-XY``        -- Diagonal+BL, X-Y routing;
* ``HeteroNoC-Table+XY``  -- Diagonal+BL, with table-based routing for
  traffic to/from the large cores (zig-zag through the diagonal big
  routers, escape VCs for deadlock freedom) and X-Y for everything else.

Paper results: weighted speedup +6 % (HeteroNoC-XY) and +11 %
(HeteroNoC-Table+XY) over HomoNoC-XY; harmonic speedup +11.5 % with the
table, computed against each application's run-alone IPC (the harmonic
metric uses the slowest SPECjbb thread).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cmp import CmpSystem, harmonic_speedup, weighted_speedup
from repro.cmp.core_model import large_core_config, small_core_config
from repro.core.layouts import (
    asymmetric_cmp_layout,
    baseline_layout,
    layout_by_name,
)
from repro.experiments.common import format_table, percent_change
from repro.noc.routing import TableRouting
from repro.noc.topology import Mesh
from repro.traffic.workloads import WORKLOADS, generate_core_trace

NETWORKS = ("HomoNoC-XY", "HeteroNoC-XY", "HeteroNoC-Table+XY")
PAPER_WS_IMPROVEMENT = {"HeteroNoC-XY": 6.0, "HeteroNoC-Table+XY": 11.0}
PAPER_HS_IMPROVEMENT = {"HeteroNoC-Table+XY": 11.5}


def _build_system(
    network_name: str,
    traces: Dict[int, list],
    core_configs: Dict[int, object],
    mesh_size: int = 8,
) -> CmpSystem:
    if network_name == "HomoNoC-XY":
        layout = baseline_layout(mesh_size)
        routing = None
    else:
        layout = layout_by_name("diagonal+BL", mesh_size)
        routing = None
        if network_name == "HeteroNoC-Table+XY":
            placement = asymmetric_cmp_layout(mesh_size)
            routing = TableRouting(
                Mesh(mesh_size),
                big_routers=set(layout.big_positions),
                table_nodes=set(placement["large"]),
                escape_vc=0,
            )
    return CmpSystem(layout, traces, core_configs=core_configs, routing=routing)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def run(
    records_large: int = 250,
    records_small: int = 150,
    seed: int = 17,
    mesh_size: int = 8,
) -> Dict[str, object]:
    placement = asymmetric_cmp_layout(mesh_size)
    large_nodes, small_nodes = placement["large"], placement["small"]
    libquantum = WORKLOADS["libquantum"]
    specjbb = WORKLOADS["SPECjbb"]
    large_traces = {
        node: generate_core_trace(libquantum, node, records_large, seed=seed)
        for node in large_nodes
    }
    small_traces = {
        node: generate_core_trace(specjbb, node, records_small, seed=seed)
        for node in small_nodes
    }
    core_configs = {node: large_core_config() for node in large_nodes}
    core_configs.update({node: small_core_config() for node in small_nodes})

    results: Dict[str, Dict[str, float]] = {}
    for network_name in NETWORKS:
        # Run-alone IPCs (each application with the platform to itself).
        alone_large = _run_ipc(
            network_name, large_traces, core_configs, mesh_size
        )
        alone_small = _run_ipc(
            network_name, small_traces, core_configs, mesh_size
        )
        shared = _run_ipc(
            network_name, {**large_traces, **small_traces}, core_configs, mesh_size
        )
        lib_alone = _mean([alone_large[n] for n in large_nodes])
        jbb_alone = _mean([alone_small[n] for n in small_nodes])
        lib_shared = _mean([shared[n] for n in large_nodes])
        jbb_shared = _mean([shared[n] for n in small_nodes])
        jbb_slowest = min(shared[n] for n in small_nodes)
        results[network_name] = {
            "weighted_speedup": weighted_speedup(
                [lib_shared, jbb_shared], [lib_alone, jbb_alone]
            ),
            # The paper's harmonic speedup uses the slowest SPECjbb thread.
            "harmonic_speedup": harmonic_speedup(
                [lib_shared, jbb_slowest], [lib_alone, jbb_alone]
            ),
            "libquantum_ipc": lib_shared,
            "specjbb_ipc": jbb_shared,
        }
    base = results["HomoNoC-XY"]
    summary = {
        name: {
            "ws_improvement_pct": percent_change(
                r["weighted_speedup"], base["weighted_speedup"]
            ),
            "hs_improvement_pct": percent_change(
                r["harmonic_speedup"], base["harmonic_speedup"]
            ),
        }
        for name, r in results.items()
        if name != "HomoNoC-XY"
    }
    return {"results": results, "summary": summary}


def _run_ipc(
    network_name: str,
    traces: Dict[int, list],
    core_configs: Dict[int, object],
    mesh_size: int,
) -> Dict[int, float]:
    system = _build_system(network_name, traces, core_configs, mesh_size)
    system.warm_caches()
    system.run(max_cycles=600_000)
    return system.per_core_ipc()


def main() -> None:
    data = run()
    rows = []
    for name, r in data["results"].items():
        s = data["summary"].get(name, {})
        rows.append(
            [
                name,
                f"{r['weighted_speedup']:.3f}",
                f"{r['harmonic_speedup']:.3f}",
                f"{s.get('ws_improvement_pct', 0.0):+.1f}%",
                f"{s.get('hs_improvement_pct', 0.0):+.1f}%",
            ]
        )
    print(
        format_table(
            ["network", "weighted spdup", "harmonic spdup", "WS vs homo", "HS vs homo"],
            rows,
            "Figure 14: asymmetric CMP (paper: WS +6%/+11%, HS +11.5%)",
        )
    )
