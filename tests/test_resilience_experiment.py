"""The resilience degradation study (experiments/resilience).

Acceptance: saturation/accepted throughput degrades monotonically as
permanent router faults go from 0 to 4, on the homogeneous baseline and
on the HeteroNoC with its diagonal big routers killed first.
"""

from repro.experiments import resilience


def test_kill_order_targets_diagonal_big_routers():
    order = resilience.kill_order(8)
    from repro.core.layouts import diagonal_positions

    big = diagonal_positions(8)
    assert len(order) == 6  # interior main diagonal of an 8x8 mesh
    assert all(router in big for router in order)
    n = 8
    assert all(router not in (0, n - 1, n * (n - 1), n * n - 1) for router in order)


def test_throughput_degrades_monotonically_with_router_kills():
    data = resilience.run(
        fault_counts=(0, 2, 4), warmup_packets=50, measure_packets=120
    )
    for layout, rows in data["curves"].items():
        throughputs = [row["throughput"] for row in rows]
        fractions = [row["delivered_fraction"] for row in rows]
        assert throughputs == sorted(throughputs, reverse=True), (
            layout,
            throughputs,
        )
        assert fractions == sorted(fractions, reverse=True), (layout, fractions)
        # Fault-free rows lose nothing; faulty rows lose the unreachable
        # packets but account for every one of them.
        assert rows[0]["lost"] == 0
        for row in rows[1:]:
            assert row["lost"] > 0
            assert row["killed"] == data["kill_order"][: row["faults"]]
