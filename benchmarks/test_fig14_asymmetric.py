"""Benchmark: regenerate Figure 14 (asymmetric CMP + table routing)."""

from benchmarks.conftest import print_banner
from repro.experiments import fig14_asymmetric


def test_fig14_asymmetric(benchmark):
    data = benchmark.pedantic(
        fig14_asymmetric.run, rounds=1, iterations=1
    )
    print_banner("Figure 14: asymmetric CMP (4 large + 60 small cores)")
    for name, result in data["results"].items():
        summary = data["summary"].get(name, {})
        print(
            f"{name:20s} WS {result['weighted_speedup']:.3f} "
            f"({summary.get('ws_improvement_pct', 0.0):+.1f}%; paper +6/+11%)  "
            f"HS {result['harmonic_speedup']:.3f} "
            f"({summary.get('hs_improvement_pct', 0.0):+.1f}%; paper +11.5%)"
        )
    # All three network configurations complete and report sane speedups.
    for result in data["results"].values():
        assert 0 < result["weighted_speedup"] <= 2.0
        assert 0 < result["harmonic_speedup"] <= 1.2
    # Shape: the heterogeneous network does not hurt the asymmetric CMP.
    assert data["summary"]["HeteroNoC-XY"]["ws_improvement_pct"] > -3.0
