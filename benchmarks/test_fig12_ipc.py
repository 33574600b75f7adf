"""Benchmark: regenerate Figure 12 (IPC improvement, CMP mode)."""

from benchmarks.conftest import print_banner
from repro.experiments import fig12_ipc


def test_fig12_ipc(benchmark):
    data = benchmark.pedantic(
        lambda: fig12_ipc.run(
            commercial=("SPECjbb",),
            parsec=("frrt",),
            layouts=("baseline", "diagonal+BL"),
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 12: IPC improvement over baseline")
    for workload, per_layout in data["improvements"]["diagonal+BL"].items():
        print(
            f"{workload:10s} diagonal+BL {per_layout:+6.1f}% "
            "(paper: +12% commercial / +10% PARSEC)"
        )
    # The CMP runs complete and report IPCs for every configuration.
    for workload, ipcs in data["ipc"].items():
        assert all(v > 0 for v in ipcs.values())
