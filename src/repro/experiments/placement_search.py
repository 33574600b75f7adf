"""Placement search: from the 4x4 exhaustive stage to 8x8 metaheuristics.

The paper's placement methodology (footnote 4) is a two-stage funnel:
enumerate every 4x4 placement analytically, then settle the leaders by
cycle simulation -- and *extrapolate* the winning shapes to the 8x8 mesh,
where C(64, 16) ~= 4.9e14 placements rule out enumeration.  This harness
reproduces the enumerable stage exactly and then searches the 8x8 space
directly with the :mod:`repro.search` metaheuristics:

1. **4x4 ground truth** -- exhaustive search over all 12,870 8-big
   placements; the global optimum of the multi-objective score is the
   paper's exact Figure 3 diagonal (a member of the wrapped-diagonal
   family).
2. **Optimizer validation** -- a seeded simulated-annealing run on the
   same 4x4 space re-finds the exhaustive optimum exactly (same
   canonical placement), with an order of magnitude fewer evaluations.
3. **8x8 search** -- annealing plus an evolutionary recombination stage
   over the SA survivors, under uniform-random and hotspot traffic.
4. **Shape extrapolation** -- the 4x4 winners are wrapped-diagonal
   unions, so the same shape family is generated on 8x8 (every disjoint
   union of full wrapped diagonals, the paper's extrapolation made
   mechanical) and ranked against the search survivors.  Under uniform
   random the family tops the merged pool; the metaheuristics act as the
   adversarial check that no unstructured placement beats it.
5. **Pareto frontier** -- the analytic-latency vs resilience frontier
   over everything evaluated (the fault-aware placement question PR 3's
   kill study motivates).
6. **Refinement** -- the leaders are cycle-simulated near saturation as
   :class:`repro.exec.SweepPoint` batches (parallel over ``REPRO_JOBS``,
   disk-cached, bit-identical across backends), confirming that the
   search's top placement beats the named ``diagonal+BL`` placement
   under uniform-random traffic.

Usage::

    python -m repro.experiments.placement_search            # = run_all search
    python -m repro.experiments.placement_search --smoke    # CI smoke (4x4 only)
"""

from __future__ import annotations

import itertools
import statistics
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.layouts import diagonal_positions
from repro.experiments.common import format_table

# repro.search (numpy) is imported by the functions that search, so
# run_all, which imports every harness, loads numpy only for this one.

SMALL_MESH = 4
LARGE_MESH = 8
NUM_BIG_SMALL = 8   # the footnote-4 (8 big, 8 small) split
NUM_BIG_LARGE = 16  # the paper's 8x8 big-router budget (2n)

#: near-saturation rate for the refinement stage: at low load latency is
#: serialization-dominated and placements are indistinguishable; the
#: contention the placements exist to relieve only bites near saturation.
REFINE_RATE = 0.15
#: refinement simulates each candidate under several seeds and compares
#: mean latency, so a single lucky drain does not decide the ordering.
REFINE_SEEDS = (5, 6, 7)

PATTERNS = ("uniform_random", "hotspot")


def family_candidates(n: int, num_big: int) -> List[Tuple[int, ...]]:
    """Every diagonal-family placement of ``num_big`` routers on ``n x n``.

    Members are disjoint unions of ``num_big // n`` full wrapped
    diagonals -- the shape class the 4x4 exhaustive winners belong to,
    generated on the target mesh exactly the way the paper extrapolated
    its 4x4 shapes to 8x8.  Deduplicated by (full dihedral) canonical
    form.
    """
    from repro.search import canonical_placement
    from repro.search.canonical import wrapped_diagonals

    if num_big % n:
        return []
    bands = wrapped_diagonals(n)
    seen = set()
    out: List[Tuple[int, ...]] = []
    for combo in itertools.combinations(bands, num_big // n):
        union = frozenset().union(*combo)
        if len(union) != num_big:
            continue  # overlapping bands
        canon = canonical_placement(union, n)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(canon)
    return out


def _search_budget(smoke: bool) -> Dict[str, int]:
    if smoke:
        return {"steps": 300, "restarts": 3, "generations": 0, "population": 0}
    return {"steps": 1200, "restarts": 2, "generations": 12, "population": 20}


def _record_row(record, n: int) -> List[str]:
    from repro.search import is_diagonal_family

    return [
        str(record.canonical),
        f"{record.scalar:.4f}",
        f"{record.analytic:.4f}",
        f"{record.resilience:.4f}",
        "yes" if is_diagonal_family(record.canonical, n) else "no",
    ]


def run(
    seed: int = 0,
    smoke: bool = False,
    refine_packets: int = 600,
) -> Dict[str, object]:
    """Run all stages; returns the full result bundle plus named checks."""
    from repro.search import (
        PlacementEvaluator,
        canonical_placement,
        evolutionary_search,
        exhaustive_search,
        is_diagonal_family,
        pareto_frontier,
        simulated_annealing,
    )

    checks: Dict[str, bool] = {}
    out: Dict[str, object] = {"checks": checks}

    # -- stage 1: 4x4 exhaustive ground truth --------------------------------
    ev4 = PlacementEvaluator(SMALL_MESH)
    exhaustive = exhaustive_search(ev4, NUM_BIG_SMALL)
    diag4 = canonical_placement(diagonal_positions(SMALL_MESH), SMALL_MESH)
    out["exhaustive"] = exhaustive
    out["count_4x4"] = exhaustive.proposals
    checks["4x4 exhaustive optimum is the Figure 3 diagonal"] = (
        exhaustive.best_placement == diag4
    )
    checks["4x4 exhaustive optimum is diagonal-family"] = is_diagonal_family(
        exhaustive.best_placement, SMALL_MESH
    )
    checks["4x4 leader set contains the diagonal shape"] = any(
        record.canonical == diag4 for record in exhaustive.top
    )

    # -- stage 2: annealer re-finds the exhaustive optimum -------------------
    budget = _search_budget(smoke)
    ev4_sa = PlacementEvaluator(SMALL_MESH)
    anneal4 = simulated_annealing(
        ev4_sa,
        NUM_BIG_SMALL,
        seed=seed,
        steps=budget["steps"],
        restarts=budget["restarts"],
    )
    out["anneal_4x4"] = anneal4
    checks["4x4 annealing matches the exhaustive optimum exactly"] = (
        anneal4.best_placement == exhaustive.best_placement
    )
    checks["4x4 annealing winner is diagonal-family"] = is_diagonal_family(
        anneal4.best_placement, SMALL_MESH
    )

    if smoke:
        out["refinement"] = _refine_stage(
            [exhaustive.best_placement, anneal4.top[-1].canonical, diag4],
            SMALL_MESH,
            baseline=diag4,
            measure_packets=refine_packets,
            seeds=REFINE_SEEDS[:2],
            checks=checks,
            label="4x4",
        )
        return out

    # -- stage 3 + 4: 8x8 search and shape extrapolation ---------------------
    family8 = family_candidates(LARGE_MESH, NUM_BIG_LARGE)
    out["family_size_8x8"] = len(family8)
    diag8 = tuple(sorted(diagonal_positions(LARGE_MESH)))
    searches: Dict[str, Dict[str, object]] = {}
    for pattern in PATTERNS:
        evaluator = PlacementEvaluator(LARGE_MESH, pattern=pattern)
        sa = simulated_annealing(
            evaluator,
            NUM_BIG_LARGE,
            seed=seed,
            steps=budget["steps"],
            restarts=budget["restarts"],
            t_initial=0.05,
        )
        # Recombination stage: the GA breeds the SA survivors; crossover
        # between near-optima that agree on most seats makes coordinated
        # multi-seat repairs the annealing walk essentially never makes.
        ga = evolutionary_search(
            evaluator,
            NUM_BIG_LARGE,
            seed=seed + 1,
            generations=budget["generations"],
            population=budget["population"],
            initial=[record.positions for record in sa.top],
        )
        family_records = [evaluator.evaluate(p) for p in family8]
        diag_record = evaluator.evaluate(diag8)
        pool = {
            record.canonical: record
            for record in [*sa.top, *ga.top, *family_records, diag_record]
        }
        ranked = sorted(
            pool.values(), key=lambda r: (-r.scalar, r.canonical)
        )
        best_family = max(family_records, key=lambda r: (r.scalar, r.canonical))
        searches[pattern] = {
            "annealing": sa,
            "evolutionary": ga,
            "ranked": ranked,
            "best_family": best_family,
            "diagonal_bl": diag_record,
            "evaluations": evaluator.evaluations,
            "cache_hits": evaluator.cache_hits,
        }
        top = ranked[0]
        checks[f"8x8 {pattern}: search top beats/ties diagonal+BL analytic"] = (
            max(sa.best.analytic, ga.best.analytic)
            >= diag_record.analytic - 1e-12
        )
        checks[f"8x8 {pattern}: search top beats/ties diagonal+BL scalar"] = (
            max(sa.best.scalar, ga.best.scalar) >= diag_record.scalar - 1e-12
        )
        if pattern == "uniform_random":
            checks["8x8 uniform_random: diagonal-family tops the merged pool"] = (
                is_diagonal_family(top.canonical, LARGE_MESH)
            )
    out["searches"] = searches

    # -- stage 5: Pareto frontier (uniform random) ---------------------------
    ur = searches["uniform_random"]
    out["pareto"] = pareto_frontier(
        ur["ranked"], axes=("analytic", "resilience")
    )

    # -- stage 6: cycle-simulated refinement ---------------------------------
    sa_best = ur["annealing"].best
    ga_best = ur["evolutionary"].best
    search_top = max((sa_best, ga_best), key=lambda r: r.scalar)
    candidates = [
        search_top.canonical,
        ur["best_family"].canonical,
        diag8,
    ]
    out["refinement"] = _refine_stage(
        candidates,
        LARGE_MESH,
        baseline=diag8,
        measure_packets=refine_packets,
        seeds=REFINE_SEEDS,
        checks=checks,
        label="8x8",
    )
    return out


def _refine_stage(
    candidates: Sequence[Iterable[int]],
    mesh_size: int,
    baseline: Tuple[int, ...],
    measure_packets: int,
    seeds: Sequence[int],
    checks: Dict[str, bool],
    label: str,
) -> Dict[str, object]:
    """Cycle-simulate candidates under several seeds; compare mean latency.

    ``baseline`` names the placement the search's top must beat or tie
    (the ``diagonal+BL`` big positions on 8x8).  Every (candidate, seed)
    pair is one :class:`repro.exec.SweepPoint`, so the batch parallelizes
    and caches through :func:`repro.exec.run_sweep`.
    """
    from repro.search import is_diagonal_family
    from repro.search.refine import refine_placements

    unique: List[Tuple[int, ...]] = []
    for candidate in candidates:
        key = tuple(sorted(candidate))
        if key not in unique:
            unique.append(key)
    per_seed: Dict[Tuple[int, ...], List[float]] = {p: [] for p in unique}
    cache_hits = 0
    total_points = 0
    for run_seed in seeds:
        records = refine_placements(
            unique,
            mesh_size,
            rate=REFINE_RATE,
            seed=run_seed,
            measure_packets=measure_packets,
        )
        for record in records:
            per_seed[tuple(sorted(record["big_positions"]))].append(
                record["latency_cycles"]
            )
            cache_hits += bool(record["from_cache"])
            total_points += 1
    rows = sorted(
        (
            {
                "big_positions": positions,
                "mean_latency_cycles": statistics.mean(latencies),
                "min_latency_cycles": min(latencies),
                "max_latency_cycles": max(latencies),
                "is_family": is_diagonal_family(positions, mesh_size),
            }
            for positions, latencies in per_seed.items()
        ),
        key=lambda row: row["mean_latency_cycles"],
    )
    baseline_key = tuple(sorted(baseline))
    baseline_mean = statistics.mean(per_seed[baseline_key])
    focus_key = unique[0]  # first candidate = the search's top placement
    focus_mean = statistics.mean(per_seed[focus_key])
    checks[
        f"{label} refinement: search top beats or ties the diagonal "
        "placement (mean latency)"
    ] = focus_mean <= baseline_mean + 1e-9
    return {
        "rows": rows,
        "rate": REFINE_RATE,
        "seeds": tuple(seeds),
        "measure_packets": measure_packets,
        "baseline": baseline_key,
        "baseline_mean_latency": baseline_mean,
        "search_top": focus_key,
        "search_top_mean_latency": focus_mean,
        "cache_hits": cache_hits,
        "total_points": total_points,
    }


def main(smoke: bool = False, **kwargs) -> None:
    data = run(smoke=smoke, **kwargs)
    checks: Dict[str, bool] = data["checks"]

    exhaustive = data["exhaustive"]
    print(
        f"Placement search (footnote 4 and beyond)\n\n"
        f"4x4 exhaustive: {data['count_4x4']:,} placements of "
        f"{NUM_BIG_SMALL} big routers"
    )
    print(
        format_table(
            ["placement", "scalar", "analytic", "resilience", "family"],
            [_record_row(r, SMALL_MESH) for r in exhaustive.top[:5]],
        )
    )
    anneal4 = data["anneal_4x4"]
    print(
        f"\n4x4 annealing (seed {anneal4.seed}): best "
        f"{anneal4.best_placement} in {anneal4.evaluations} evaluations "
        f"({anneal4.proposals} proposals) -- exhaustive needed "
        f"{data['count_4x4']:,}"
    )

    if not smoke:
        for pattern, stage in data["searches"].items():
            sa, ga = stage["annealing"], stage["evolutionary"]
            print(
                f"\n8x8 {pattern}: annealing best {sa.best.scalar:.4f}, "
                f"recombination best {ga.best.scalar:.4f}, "
                f"{stage['evaluations']} evaluations "
                f"(+{stage['cache_hits']} symmetry cache hits); "
                f"diagonal+BL scalar {stage['diagonal_bl'].scalar:.4f}, "
                f"best family {stage['best_family'].scalar:.4f}"
            )
            print(
                format_table(
                    ["placement", "scalar", "analytic", "resilience", "family"],
                    [_record_row(r, LARGE_MESH) for r in stage["ranked"][:5]],
                )
            )
        print("\nPareto frontier (analytic vs resilience, uniform random):")
        print(
            format_table(
                ["placement", "scalar", "analytic", "resilience", "family"],
                [_record_row(r, LARGE_MESH) for r in data["pareto"]],
            )
        )

    refinement = data["refinement"]
    print(
        f"\nRefinement: UR @ {refinement['rate']} packets/node/cycle, "
        f"seeds {refinement['seeds']}, {refinement['measure_packets']} "
        f"packets/point ({refinement['cache_hits']}/"
        f"{refinement['total_points']} points from cache)"
    )
    print(
        format_table(
            ["placement", "mean latency cy", "min", "max", "family"],
            [
                [
                    str(row["big_positions"]),
                    f"{row['mean_latency_cycles']:.2f}",
                    f"{row['min_latency_cycles']:.2f}",
                    f"{row['max_latency_cycles']:.2f}",
                    "yes" if row["is_family"] else "no",
                ]
                for row in refinement["rows"]
            ],
        )
    )

    print()
    failed = [name for name, passed in checks.items() if not passed]
    for name, passed in checks.items():
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv == ["--smoke"]:
        main(smoke=True, refine_packets=200)
    elif argv:
        print(f"usage: python -m repro.experiments.placement_search [--smoke]; got {argv}")
        sys.exit(2)
    else:
        main()
