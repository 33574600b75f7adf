"""Benchmark: regenerate Figure 8 (latency and power breakdowns)."""

from benchmarks.conftest import print_banner
from repro.experiments import fig08_breakdown


def test_fig08_breakdown(benchmark):
    data = benchmark.pedantic(
        lambda: fig08_breakdown.run(rate=0.045), rounds=1, iterations=1
    )
    print_banner("Figure 8: UR breakdowns, normalized to baseline")
    base_lat = data["latency"]["baseline"]["total"]
    base_pow = data["power"]["baseline"]["total"]
    for layout in data["latency"]:
        lat = data["latency"][layout]
        pow_ = data["power"][layout]
        print(
            f"{layout:12s} latency {100 * lat['total'] / base_lat:5.1f}% "
            f"(blk {100 * lat['blocking'] / base_lat:4.1f} / "
            f"que {100 * lat['queuing'] / base_lat:4.1f} / "
            f"xfer {100 * lat['transfer'] / base_lat:4.1f})   "
            f"power {100 * pow_['total'] / base_pow:5.1f}% "
            f"(buf {100 * pow_['buffers'] / base_pow:4.1f} / "
            f"xbar {100 * pow_['crossbar'] / base_pow:4.1f})"
        )
    hetero = data["power"]["diagonal+BL"]
    base = data["power"]["baseline"]
    assert hetero["total"] < base["total"]
    assert hetero["buffers"] < base["buffers"]
