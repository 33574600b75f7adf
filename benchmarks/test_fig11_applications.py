"""Benchmark: regenerate Figure 11 (application latency/power, CMP mode)."""

from benchmarks.conftest import print_banner
from repro.experiments import fig11_applications
from repro.experiments.common import percent_reduction


def test_fig11_applications(benchmark):
    workloads = ("SPECjbb", "frrt")
    layouts = ("baseline", "diagonal+B", "diagonal+BL")
    data = benchmark.pedantic(
        lambda: fig11_applications.run(
            workloads=workloads, layouts=layouts
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 11: full-system network latency & power")
    for workload in workloads:
        base = data["results"][workload]["baseline"]
        for layout in layouts[1:]:
            r = data["results"][workload][layout]
            print(
                f"{workload:8s} {layout:12s} "
                f"net latency {percent_reduction(r['net_latency_cycles'], base['net_latency_cycles']):+6.1f}% "
                f"(paper ~+18.5%)  power {percent_reduction(r['power_w'], base['power_w']):+6.1f}% "
                f"(paper ~+22%)"
            )
    # Robust shape: the +BL layout always cuts network power.
    diag = data["summary"]["diagonal+BL"]
    assert diag["avg_power_reduction_pct"] > 5.0
