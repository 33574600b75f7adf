"""Benchmark: regenerate Figure 2 (cmesh + flattened butterfly maps)."""

from benchmarks.conftest import print_banner
from repro.experiments import fig02_other_topologies


def test_fig02_other_topologies(benchmark):
    data = benchmark.pedantic(
        fig02_other_topologies.run, rounds=1, iterations=1
    )
    print_banner("Figure 2: non-uniform utilization in other topologies")
    cm_hi, cm_lo = data["cmesh_max_min"]
    fb_hi, fb_lo = data["fbfly_max_min"]
    print(f"cmesh buffer util spread: {100 * cm_hi:.1f}% .. {100 * cm_lo:.1f}%")
    print(f"fbfly buffer util spread: {100 * fb_hi:.1f}% .. {100 * fb_lo:.1f}%")
    assert cm_hi > cm_lo
    assert fb_hi > fb_lo
