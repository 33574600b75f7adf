"""Design-space exploration: where should the big routers go?

Reproduces the spirit of the paper's footnote 4: an exhaustive search
over all C(16, 8) = 12,870 placements of 8 big routers on a 4x4 mesh
(:func:`repro.search.exhaustive_search` over a
:class:`repro.search.PlacementEvaluator`), the named shapes ranked by the
analytic cost model (load-weighted coverage of X-Y flows), a seeded
annealing search of the non-enumerable 8x8 space, plus a
cycle-simulated shoot-out between the three named shapes (diagonal /
center / rows) scaled up to the 8x8 mesh.

Run:  python examples/placement_search.py
"""

import itertools

from repro.core.layouts import (
    build_network,
    center_positions,
    diagonal_positions,
    layout_by_name,
    row2_5_positions,
)
from repro.search import PlacementEvaluator, exhaustive_search
from repro.traffic import UniformRandom, run_synthetic


def exhaustive_4x4() -> None:
    evaluator = PlacementEvaluator(4)
    for num_big in (4, 6):
        searched = exhaustive_search(evaluator, num_big).proposals
        print(f"4x4 mesh, {num_big} big routers: {searched} placements")
    result = exhaustive_search(evaluator, 8, top_k=5)
    print(f"4x4 mesh, 8 big routers: {result.proposals} placements\n")

    print("top 5 shapes (up to symmetry) by the multi-objective score:")
    for i, record in enumerate(result.top, 1):
        grid = [
            "".join("B" if r * 4 + c in record.canonical else "." for c in range(4))
            for r in range(4)
        ]
        print(
            f"  #{i}: score {record.scalar:.3f} (analytic "
            f"{record.analytic:.3f})  rows: {' '.join(grid)}"
        )
    print()
    # Rank by the analytic score alone; placements within float noise of
    # a shape's score tie with it.
    analytic = [
        evaluator.evaluate(combo).analytic
        for combo in itertools.combinations(range(16), 8)
    ]
    print("named shapes by analytic score:")
    for name, positions in (
        ("diagonal", diagonal_positions(4)),
        ("center", center_positions(4)),
        ("row2_5", row2_5_positions(4)),
    ):
        record = evaluator.evaluate(positions)
        rank = 1 + sum(score > record.analytic + 1e-12 for score in analytic)
        print(
            f"  {name:9s} score {record.analytic:.3f} "
            f"(rank {rank}/{len(analytic)}, "
            f"flow coverage {100 * record.flow_coverage:.0f}%)"
        )


def annealed_8x8() -> None:
    """The 8x8 space (C(64, 16) ~= 4.9e14) is far beyond enumeration --
    exhaustive_search refuses it -- so search it with the repro.search
    metaheuristics instead."""
    from repro.search import simulated_annealing

    print("\n8x8 mesh, 16 big routers: seeded annealing (enumeration impossible):")
    evaluator = PlacementEvaluator(8)
    result = simulated_annealing(evaluator, 16, seed=0, steps=800, restarts=2)
    grid = [
        "".join("B" if r * 8 + c in result.best_placement else "." for c in range(8))
        for r in range(8)
    ]
    print(
        f"  best scalar {result.best.scalar:.4f} after {result.proposals} "
        f"proposals"
    )
    print(f"  (+ {result.evaluations} evaluations incl. polish); placement:")
    for row in grid:
        print(f"    {row}")
    print("  (python -m repro.experiments.placement_search runs the full")
    print("   multi-stage study: both traffic patterns, the diagonal-family")
    print("   extrapolation, the Pareto frontier and cycle-simulated refinement)")


def simulated_8x8() -> None:
    print("\ncycle-simulated 8x8 shoot-out (UR @ 0.05 packets/node/cycle):")
    for name in ("baseline", "center+BL", "row2_5+BL", "diagonal+BL"):
        network = build_network(layout_by_name(name))
        result = run_synthetic(
            network, UniformRandom(64), rate=0.05,
            warmup_packets=100, measure_packets=800, seed=9,
        )
        print(
            f"  {name:12s} latency {result.avg_latency_cycles:6.1f} cycles, "
            f"throughput {result.throughput_packets_per_node_cycle:.4f}"
        )


if __name__ == "__main__":
    exhaustive_4x4()
    annealed_8x8()
    simulated_8x8()
