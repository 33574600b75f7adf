"""Observability for the NoC simulator: tracing, telemetry, profiling.

The package instruments the simulator through lightweight hook points (see
:mod:`repro.obs.hooks`); with no observer attached the core pays only a
``None`` check per tap point.  The pieces:

* :class:`~repro.obs.hooks.Observer` / ``CompositeObserver`` -- the
  event bus;
* :class:`~repro.obs.sampler.TimeSeriesSampler` -- windowed utilization /
  latency / throughput series (Figure 1 heat maps as timelines);
* :class:`~repro.obs.tracer.PacketTracer` -- hop-by-hop traces of the
  measured packets with JSONL and Chrome ``trace_event`` export;
* :class:`~repro.obs.metrics.KernelMetrics` -- counter/gauge/histogram
  registry over kernel events (per-link/per-VC flit counts, per-pair
  traffic matrices, occupancy and active-set samples);
* :mod:`repro.obs.attribution` / ``python -m repro.obs.heatmap`` --
  bottleneck attribution: ranked contended links/routers/pairs and ASCII
  utilization heatmaps;
* :mod:`repro.obs.manifest` -- engine-side provenance: per-sweep-point
  spans, search telemetry, and run manifests;
* :class:`~repro.obs.profiler.RunProfiler` -- a run's wall clock,
  cycles/second and warmup / measure / drain split, plus
  :class:`~repro.obs.profiler.Progress` / ETA callbacks;
* :mod:`repro.obs.replay` -- the one writer per file format (JSONL
  records, JSON documents, CSV rows), the Chrome renderings and span
  summary, and ``python -m repro.obs.replay trace.jsonl`` to read them
  back.

Typical use::

    from repro.obs import observe
    from repro.obs.replay import write_events
    obs = observe(network, sample_window=200, trace=True, profile=True)
    result = run_synthetic(network, pattern, rate, profiler=obs.profiler)
    obs.finalize()
    obs.sampler.buffer_utilization_series(27)   # hot center router
    write_events("trace.jsonl", obs.tracer.iter_events())
    print(obs.profiler.format_report())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.hooks import CompositeObserver, Observer
from repro.obs.metrics import KernelMetrics, MetricsRegistry
from repro.obs.profiler import (
    Progress,
    RunProfiler,
    make_progress_printer,
)
from repro.obs.sampler import TimeSeriesSampler, WindowSample
from repro.obs.tracer import PacketTracer

__all__ = [
    "Observer",
    "CompositeObserver",
    "TimeSeriesSampler",
    "WindowSample",
    "PacketTracer",
    "KernelMetrics",
    "MetricsRegistry",
    "RunProfiler",
    "Progress",
    "make_progress_printer",
    "Observation",
    "observe",
]


@dataclass
class Observation:
    """The bundle of observers :func:`observe` attached to a network
    (``observer`` is attached only when it has a child)."""

    network: object
    observer: CompositeObserver
    sampler: Optional[TimeSeriesSampler] = None
    tracer: Optional[PacketTracer] = None
    profiler: Optional[RunProfiler] = None
    metrics: Optional[KernelMetrics] = None

    def finalize(self) -> "Observation":
        """Flush partial sampler windows and stop the profiler."""
        if self.sampler is not None:
            self.sampler.finalize()
        if self.profiler is not None:
            self.profiler.stop()
        return self

    def detach(self) -> "Observation":
        """Detach the observers from the network."""
        self.network.detach_observer()
        return self


def observe(
    network,
    sample_window: Optional[int] = 100,
    trace: bool = False,
    profile: bool = False,
    metrics: bool = False,
) -> Observation:
    """Attach a ready-made observer stack to ``network``.

    Args:
        network: a :class:`~repro.noc.network.Network`.
        sample_window: window width (cycles) for the time-series sampler,
            which samples the measurement window only; ``None`` disables
            sampling.
        trace: enable the packet tracer (every measured packet).
        profile: create a :class:`~repro.obs.profiler.RunProfiler`; pass
            it to ``run_synthetic`` as ``profiler=`` so the run's wall
            clock, cycles and phases are recorded.  It attaches nothing
            to the network, so on its own it leaves a ``"c"`` run on the
            compiled kernel.
        metrics: attach a :class:`~repro.obs.metrics.KernelMetrics`
            (whole-run counters: per-link/per-VC flits, per-pair traffic,
            occupancy and active-set samples).
    """
    composite = CompositeObserver()
    sampler = None
    if sample_window is not None:
        sampler = TimeSeriesSampler(network, window=sample_window)
        composite.add(sampler)
    tracer = None
    if trace:
        tracer = PacketTracer()
        composite.add(tracer)
    kernel_metrics = None
    if metrics:
        kernel_metrics = KernelMetrics(network)
        composite.add(kernel_metrics)
    if composite.children:
        network.attach_observer(composite)
    return Observation(
        network=network,
        observer=composite,
        sampler=sampler,
        tracer=tracer,
        profiler=RunProfiler() if profile else None,
        metrics=kernel_metrics,
    )
