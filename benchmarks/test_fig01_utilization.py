"""Benchmark: regenerate Figure 1 (mesh buffer/link utilization maps)."""

from benchmarks.conftest import print_banner
from repro.experiments import fig01_utilization


def test_fig01_utilization(benchmark):
    data = benchmark.pedantic(
        fig01_utilization.run, rounds=1, iterations=1
    )
    print_banner("Figure 1: 8x8 mesh utilization under UR (near saturation)")
    print(
        f"buffer util: center {100 * data['center_buffer_util']:.1f}% vs "
        f"edge {100 * data['edge_buffer_util']:.1f}% (paper: ~75% vs ~35%)"
    )
    print(
        f"link util:   center {100 * data['center_link_util']:.1f}% vs "
        f"edge {100 * data['edge_link_util']:.1f}%"
    )
    assert data["center_buffer_util"] > data["edge_buffer_util"]
    assert data["center_link_util"] > data["edge_link_util"]
