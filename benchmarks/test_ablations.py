"""Benchmarks: mechanism ablations and the big-router-count sensitivity
study (the paper's footnote-2 future work)."""

from benchmarks.conftest import print_banner
from repro.experiments import ablation_mechanisms, sensitivity_big_routers


def test_ablation_mechanisms(benchmark):
    data = benchmark.pedantic(
        ablation_mechanisms.run, rounds=1, iterations=1
    )
    print_banner("Ablations: merging / flit accounting / placement")
    for name, v in data.items():
        print(
            f"{name:26s} latency {v['latency_ns']:6.1f} ns  "
            f"thpt {v['throughput']:.4f}  power {v['power_w']:5.1f} W  "
            f"merged {100 * v['merge_fraction']:.0f}%"
        )
    # Merging is load-bearing: disabling it costs latency on the same
    # layout, and the strict flit accounting costs much more.
    assert (
        data["diagonal+BL"]["latency_cycles"]
        < data["diagonal+BL/no-merging"]["latency_cycles"]
    )
    assert (
        data["diagonal+BL"]["latency_cycles"]
        < data["diagonal+BL/strict-flits"]["latency_cycles"]
    )
    # Placement is load-bearing: the same router mix scattered along the
    # boundary is slower than the diagonal placement.
    assert (
        data["diagonal+BL"]["latency_cycles"]
        < data["scattered+BL"]["latency_cycles"]
    )


def test_sensitivity_big_routers(benchmark):
    data = benchmark.pedantic(
        lambda: sensitivity_big_routers.run(budgets=(0, 8, 16, 24, 32)),
        rounds=1,
        iterations=1,
    )
    print_banner("Sensitivity: big-router budget (diagonal-first placements)")
    print(f"power-neutrality bound: <= {data['max_big_power_neutral']} big routers")
    for row in data["rows"]:
        print(
            f"  {row['num_big']:2d} big: latency {row['latency_ns']:6.1f} ns, "
            f"power {row['power_w']:5.1f} W, bisection {row['bisection_bits']} b, "
            f"power-neutral: {row['power_neutral']}"
        )
    assert data["max_big_power_neutral"] == 26  # the Section 2 bound
    by_budget = {row["num_big"]: row for row in data["rows"]}
    # More big routers always cost more power...
    assert by_budget[32]["power_w"] > by_budget[16]["power_w"] > by_budget[8]["power_w"]
    # ...and a 32-big network breaks power neutrality.
    assert not by_budget[32]["power_neutral"]
    assert by_budget[16]["power_neutral"]
