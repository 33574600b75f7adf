"""Case study II: an asymmetric CMP on a heterogeneous interconnect.

Reproduces the Section 7 platform: 4 large out-of-order cores at the
mesh corners running latency-sensitive libquantum, 60 small in-order
cores running SPECjbb threads, evaluated on three networks -- the
homogeneous baseline, Diagonal+BL with plain X-Y, and Diagonal+BL with
table-based routing that steers large-core packets through the diagonal
big routers (escape VCs guarantee deadlock freedom).

Run:  python examples/asymmetric_cmp.py
"""

from repro.experiments.fig14_asymmetric import run


def main() -> None:
    data = run()
    print("asymmetric CMP: 4x libquantum (large cores) + 60x SPECjbb (small cores)\n")
    print(f"{'network':22s} {'weighted spdup':>14s} {'harmonic spdup':>14s} "
          f"{'libquantum IPC':>14s} {'SPECjbb IPC':>12s}")
    for name, r in data["results"].items():
        print(
            f"{name:22s} {r['weighted_speedup']:14.3f} "
            f"{r['harmonic_speedup']:14.3f} {r['libquantum_ipc']:14.3f} "
            f"{r['specjbb_ipc']:12.3f}"
        )
    print("\npaper: HeteroNoC-XY +6% and HeteroNoC-Table+XY +11% weighted")
    print("speedup over HomoNoC-XY; see EXPERIMENTS.md for why our substrate")
    print("shows a flat result here (DRAM-dominated large-core miss latency).")


if __name__ == "__main__":
    main()
