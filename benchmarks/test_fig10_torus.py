"""Benchmark: regenerate Figure 10 (mesh vs torus heterogeneity benefit)."""

from benchmarks.conftest import print_banner
from repro.experiments import fig10_torus


def test_fig10_torus(benchmark):
    data = benchmark.pedantic(
        lambda: fig10_torus.run(
            workloads=("SAP", "SPECjbb", "frrt", "sclst")
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 10: Diagonal+BL latency reduction, mesh vs torus")
    for workload in data["reductions"]["mesh"]:
        print(
            f"{workload:10s} mesh {data['reductions']['mesh'][workload]:+6.1f}%   "
            f"torus {data['reductions']['torus'][workload]:+6.1f}%"
        )
    print(
        f"average: mesh {data['mesh_avg_reduction_pct']:+.1f}%, "
        f"torus {data['torus_avg_reduction_pct']:+.1f}% "
        f"(paper: torus benefit ~44% smaller)"
    )
    # Shape: heterogeneity buys less on the edge-symmetric torus.
    assert data["torus_avg_reduction_pct"] <= data["mesh_avg_reduction_pct"] + 1.0


def test_fig10_torus_ur_crosscheck(benchmark):
    from repro.experiments.fig10_torus import run_uniform_random

    ur = benchmark.pedantic(
        run_uniform_random, rounds=1, iterations=1
    )
    print_banner("Figure 10 (UR cross-check): mesh vs torus latency reduction")
    print(
        f"mesh {ur['mesh_reduction_pct']:+.1f}%   torus "
        f"{ur['torus_reduction_pct']:+.1f}%   (paper: torus ~44% smaller)"
    )
    assert ur["torus_reduction_pct"] < ur["mesh_reduction_pct"]
