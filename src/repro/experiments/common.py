"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.exec import PointResult, run_sweep, sweep_points

def point_metrics(result: PointResult) -> Dict[str, object]:
    """A :class:`~repro.exec.PointResult` as the flat dict the harness
    tables are built from."""
    return {
        "rate": result.rate,
        "latency_cycles": result.latency_cycles,
        "latency_ns": result.latency_ns,
        "queuing_cycles": result.queuing_cycles,
        "blocking_cycles": result.blocking_cycles,
        "transfer_cycles": result.transfer_cycles,
        "throughput": result.throughput,
        "power_w": result.power_w,
        "power_breakdown": dict(result.power_breakdown),
        "saturated": result.saturated,
        "merge_fraction": result.merge_fraction,
    }


def sweep_layouts(
    layouts: Sequence[str],
    pattern_name: str,
    rates: Sequence[float],
    warmup_packets: int = 100,
    measure_packets: int = 600,
    seed: int = 11,
    flit_mode: str = "paper",
) -> Dict[str, List[Dict[str, object]]]:
    """Run a layouts x rates sweep through the execution engine.

    The workhorse of the figure harnesses: builds one
    :class:`~repro.exec.SweepPoint` per (layout, rate), executes them via
    :func:`repro.exec.run_sweep` (parallel and cached when ``run_all
    --jobs``/``REPRO_JOBS`` say so) and regroups the results into
    per-layout curves ordered like ``rates``.
    """
    points = sweep_points(
        layouts,
        pattern_name,
        rates,
        seed=seed,
        flit_mode=flit_mode,
        warmup_packets=warmup_packets,
        measure_packets=measure_packets,
    )
    results = run_sweep(points)
    curves: Dict[str, List[Dict[str, object]]] = {}
    for li, layout in enumerate(layouts):
        curves[layout] = [
            point_metrics(results[li * len(rates) + ri])
            for ri in range(len(rates))
        ]
    return curves


def percent_change(new: float, old: float) -> float:
    """Signed percent change of ``new`` relative to ``old``."""
    if old == 0:
        raise ValueError("reference value is zero")
    return 100.0 * (new - old) / old


def percent_reduction(new: float, old: float) -> float:
    """Positive when ``new`` is smaller than ``old``."""
    return -percent_change(new, old)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render a plain-text table (the harnesses print paper-style rows)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
