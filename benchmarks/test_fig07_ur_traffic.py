"""Benchmark: regenerate Figure 7 (UR load-latency/throughput/power)."""

from benchmarks.conftest import print_banner
from repro.experiments import fig07_ur_traffic


def test_fig07_ur_traffic(benchmark):
    data = benchmark.pedantic(
        lambda: fig07_ur_traffic.run(
            rates=(0.02, 0.04, 0.06),
            layouts=("baseline", "center+B", "diagonal+B", "center+BL", "diagonal+BL"),
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 7: UR traffic (measured vs paper in parentheses)")
    for layout, summary in data["summary"].items():
        paper = fig07_ur_traffic.PAPER_SUMMARY.get(layout, (0, 0, 0))
        print(
            f"{layout:12s} throughput {summary['throughput_improvement_pct']:+6.1f}% "
            f"({paper[0]:+.0f}%), avg latency {summary['avg_latency_reduction_pct']:+6.1f}% "
            f"({paper[1]:+.0f}%), power {summary['power_reduction_pct']:+6.1f}% (~+22..28%)"
        )
    # Robust headline shapes: +BL layouts save power and accept at least
    # as much traffic as the baseline at the highest offered load.
    diag = data["summary"]["diagonal+BL"]
    assert diag["power_reduction_pct"] > 10.0
    assert diag["throughput_improvement_pct"] > -5.0
