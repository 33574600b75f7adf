"""CSV export for experiment results.

Every harness returns plain dict/list structures; these helpers flatten
them into CSV files (through :func:`repro.obs.replay.write_rows`, the one
CSV writer) so the figures can be re-plotted outside Python.
``python -m repro.experiments.run_all --csv <dir>`` writes one file per
experiment.

:func:`export_observation` writes an observation bundle's artifacts, each
through the object that owns it: sampler time series become long-format
CSVs, packet traces become JSONL plus a Chrome ``trace_event`` document,
and profiler and metrics reports become JSON.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Mapping, Sequence, Union

from repro.obs.replay import write_rows

Scalar = Union[int, float, str, bool, None]


def flatten_grid(
    grid: Sequence[Sequence[float]], value_name: str = "value"
) -> List[Dict[str, Scalar]]:
    """Turn a 2-D heat-map grid into (row, col, value) records."""
    return [
        {"row": r, "col": c, value_name: cell}
        for r, row in enumerate(grid)
        for c, cell in enumerate(row)
    ]


def flatten_curves(
    curves: Mapping[str, Sequence[Mapping[str, Scalar]]],
    series_name: str = "series",
) -> List[Dict[str, Scalar]]:
    """Turn {series: [point, ...]} sweeps into long-format records."""
    records: List[Dict[str, Scalar]] = []
    for series, points in curves.items():
        for point in points:
            record: Dict[str, Scalar] = {series_name: series}
            record.update(point)
            records.append(record)
    return records


def export_experiment(name: str, data: Mapping, directory: Union[str, pathlib.Path]) -> List[pathlib.Path]:
    """Best-effort export of a harness result dict.

    Understands the common shapes the harnesses return: per-series curves
    (Figure 7/9), heat-map grids (Figures 1/2) and flat row lists
    (sensitivity study).  Unrecognized values are skipped.
    """
    directory = pathlib.Path(directory)
    written: List[pathlib.Path] = []
    for key, value in data.items():
        target = directory / f"{name}_{key}.csv"
        try:
            if (
                isinstance(value, Mapping)
                and value
                and all(isinstance(v, (list, tuple)) for v in value.values())
                and all(
                    isinstance(p, Mapping) for v in value.values() for p in v
                )
            ):
                written.append(write_rows(target, flatten_curves(value)))
            elif (
                isinstance(value, (list, tuple))
                and value
                and all(isinstance(v, Mapping) for v in value)
            ):
                written.append(write_rows(target, value))
            elif (
                isinstance(value, (list, tuple))
                and value
                and all(isinstance(v, (list, tuple)) for v in value)
            ):
                written.append(write_rows(target, flatten_grid(value)))
        except (ValueError, TypeError):
            continue
    return written


def export_observation(
    name: str, observation, directory: Union[str, pathlib.Path]
) -> List[pathlib.Path]:
    """Export an :class:`repro.obs.Observation` bundle's artifacts.

    Writes whatever the bundle collected: ``<name>_timeseries.csv`` /
    ``<name>_buffer_series.csv`` / ``<name>_link_series.csv`` for the
    sampler, ``<name>_trace.jsonl`` + ``<name>_trace_chrome.json`` for the
    tracer, ``<name>_profile.json`` for the profiler, and
    ``<name>_metrics.json`` + ``<name>_attribution{.json,_links.csv,
    _pairs.csv}`` for the kernel metrics.  Returns the list of paths
    written.
    """
    from repro.obs.attribution import attribute_metrics
    from repro.obs.replay import write_events, write_json

    directory = pathlib.Path(directory)
    written: List[pathlib.Path] = []
    sampler = observation.sampler
    if sampler is not None and sampler.windows:
        written.extend(sampler.write_csv(directory, prefix=name))
    tracer = observation.tracer
    if tracer is not None and tracer.traces:
        written.append(
            write_events(directory / f"{name}_trace.jsonl", tracer.iter_events())
        )
        written.append(
            tracer.write_chrome_trace(directory / f"{name}_trace_chrome.json")
        )
    profiler = observation.profiler
    if profiler is not None and profiler.cycles:
        written.append(
            write_json(directory / f"{name}_profile.json", profiler.report())
        )
    metrics = observation.metrics
    if metrics is not None and metrics.cycles:
        written.append(metrics.write_json(directory / f"{name}_metrics.json"))
        report = attribute_metrics(metrics)
        written.append(
            report.write_json(directory / f"{name}_attribution.json")
        )
        links = directory / f"{name}_attribution_links.csv"
        pairs = directory / f"{name}_attribution_pairs.csv"
        report.write_csv(links, pairs)
        written += [links, pairs]
    return written
