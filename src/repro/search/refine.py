"""Closed-loop refinement: cycle-simulate the search's survivors.

The analytic evaluator ranks millions of placements per minute but it is
still a model; the paper's own methodology (footnote 4) pre-filtered
analytically and settled the leaders by cycle simulation.  This module
is that second stage: each surviving placement becomes one
:class:`repro.exec.SweepPoint`, so the confirmation runs inherit the
sweep engine's process-pool parallelism (``REPRO_JOBS``), disk cache
and bit-identical determinism -- a repeated refinement with the same
seed performs zero new simulations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec.point import SweepPoint


def placement_points(
    placements: Sequence[Iterable[int]],
    mesh_size: int,
    rate: float = 0.08,
    seed: int = 5,
    warmup_packets: Optional[int] = None,
    measure_packets: int = 400,
    redistribute_links: bool = True,
    faults=None,
    kernel: Optional[str] = None,
) -> List[SweepPoint]:
    """One :class:`SweepPoint` per candidate placement.

    ``faults`` (optional) is a :class:`repro.faults.schedule.FaultSchedule`
    applied identically to every candidate -- the resilience-aware
    variant of the shoot-out -- or a sequence of schedules, one per
    placement (e.g. each candidate's own worst-case kill set from
    :meth:`repro.search.objectives.PlacementEvaluator.kill_schedule`).
    ``kernel`` (optional) forces a cycle kernel for every candidate --
    ``"c"``, the compiled kernel, speeds fault-free refinement batches
    up without changing a single measured bit (all kernels are
    differentially verified).
    """
    placements = [tuple(sorted(set(p))) for p in placements]
    if warmup_packets is None:
        warmup_packets = max(50, measure_packets // 8)
    if faults is None or not isinstance(faults, (list, tuple)):
        schedules = [faults] * len(placements)
    else:
        if len(faults) != len(placements):
            raise ValueError(
                f"{len(faults)} fault schedules for {len(placements)} placements"
            )
        schedules = list(faults)
    return [
        SweepPoint(
            layout=None,
            big_positions=positions,
            redistribute_links=redistribute_links,
            mesh_size=mesh_size,
            pattern="uniform_random",
            rate=rate,
            seed=seed,
            warmup_packets=warmup_packets,
            measure_packets=measure_packets,
            faults=schedule,
            kernel=kernel,
        )
        for positions, schedule in zip(placements, schedules)
    ]


def refine_placements(
    placements: Sequence[Iterable[int]],
    mesh_size: int,
    rate: float = 0.08,
    seed: int = 5,
    measure_packets: int = 400,
    warmup_packets: Optional[int] = None,
    redistribute_links: bool = True,
    faults=None,
    kernel: Optional[str] = None,
    evaluator=None,
    **sweep_kwargs,
) -> List[Dict[str, object]]:
    """Cycle-simulate candidate placements; rank by measured latency.

    Returns one record per placement, sorted by average latency
    (ascending -- best first).  Each record carries the simulated
    metrics alongside the analytic score so callers can check that the
    model ordering survives contact with the simulator.  ``evaluator``
    (a :class:`~repro.search.objectives.PlacementEvaluator`) supplies
    the analytic score; omitted, a default uniform-random evaluator of
    the right mesh size is built.  Extra keyword arguments reach
    :func:`repro.exec.run_sweep` (``jobs``, ``cache``, ...); pass
    ``submit=ServeClient(url).run_sweep`` to run the candidates on a
    :mod:`repro.serve` job server instead, where a repeated shoot-out
    dedups onto the first job.
    """
    from repro.exec.engine import run_sweep
    from repro.search.objectives import PlacementEvaluator

    placements = [tuple(sorted(set(p))) for p in placements]
    if evaluator is None:
        evaluator = PlacementEvaluator(mesh_size)
    points = placement_points(
        placements,
        mesh_size,
        rate=rate,
        seed=seed,
        warmup_packets=warmup_packets,
        measure_packets=measure_packets,
        redistribute_links=redistribute_links,
        faults=faults,
        kernel=kernel,
    )
    results = run_sweep(points, **sweep_kwargs)
    records: List[Dict[str, object]] = []
    for positions, result in zip(placements, results):
        records.append(
            {
                "big_positions": frozenset(positions),
                "latency_cycles": result.latency_cycles,
                "latency_ns": result.latency_ns,
                "throughput": result.throughput,
                "saturated": result.saturated,
                "from_cache": result.from_cache,
                "analytic_score": evaluator.evaluate(positions).analytic,
                "scalar_score": evaluator.evaluate(positions).scalar,
            }
        )
    records.sort(key=_latency_rank)
    return records


def _latency_rank(record: Dict[str, object]) -> Tuple[float, Tuple[int, ...]]:
    latency = record["latency_cycles"]
    # NaN (a captured failure) sorts last; ties break on the placement.
    key = latency if latency == latency else float("inf")
    return (key, tuple(sorted(record["big_positions"])))

