"""Benchmark: regenerate Figure 9 (nearest-neighbour anomaly)."""

from benchmarks.conftest import print_banner
from repro.experiments import fig09_nn_traffic


def test_fig09_nn_traffic(benchmark):
    data = benchmark.pedantic(
        lambda: fig09_nn_traffic.run(rates=(0.04, 0.08, 0.11)),
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 9: NN traffic (the HeteroNoC anomaly)")
    for layout, summary in data["summary"].items():
        print(
            f"{layout:12s} avg latency {summary['avg_latency_change_pct']:+6.1f}% "
            f"(paper: +7%), throughput {summary['throughput_change_pct']:+6.1f}% "
            f"(paper: -9.5%), power {summary['power_reduction_pct']:+6.1f}% (paper: ~7%)"
        )
    # The anomaly: one-hop traffic makes hetero WORSE on latency and
    # throughput (every path crosses the de-provisioned edge routers).
    diag = data["summary"]["diagonal+BL"]
    assert diag["avg_latency_change_pct"] > 0.0
    assert diag["throughput_change_pct"] < 0.0
