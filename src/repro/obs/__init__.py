"""Observability for the NoC simulator: tracing, telemetry, profiling.

Per-event instruments tap the simulator through lightweight hook points
(see :mod:`repro.obs.hooks`); with no observer attached the core pays
only a ``None`` check per tap point, and an attached one keeps the run on
the event kernel.  The run driver's instruments -- the sampler and the
profiler, handed to :func:`~repro.traffic.runner.run_synthetic` -- read
the run at its phase and window boundaries instead, and leave a ``"c"``
run on the compiled kernel, spans included.  The pieces:

* :class:`~repro.obs.hooks.Observer` / ``CompositeObserver`` -- the
  event bus;
* :class:`~repro.obs.sampler.TimeSeriesSampler` -- windowed utilization /
  latency / throughput series (Figure 1 heat maps as timelines), cut
  from :class:`~repro.noc.stats.NetworkStats` at window boundaries;
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
    result = run_synthetic(network, pattern, rate, profiler=obs.profiler,
                           sampler=obs.sampler)
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
    """The instruments :func:`observe` made for a network: the per-event
    observers in ``observer`` (attached only when it has a child), and
    the sampler and profiler the run driver takes."""

    network: object
    observer: CompositeObserver
    sampler: Optional[TimeSeriesSampler] = None
    tracer: Optional[PacketTracer] = None
    profiler: Optional[RunProfiler] = None
    metrics: Optional[KernelMetrics] = None

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
    """Make a ready-made instrument stack for ``network``.

    Only the per-event instruments (``trace``, ``metrics``) attach to the
    network, and only they move a ``"c"`` run onto the event kernel: with
    its defaults, ``observe(network)`` attaches nothing.

    Args:
        network: a :class:`~repro.noc.network.Network`.
        sample_window: window width (measured cycles) for a
            :class:`~repro.obs.sampler.TimeSeriesSampler`; pass it to
            ``run_synthetic`` as ``sampler=``.  ``None`` makes none.
        trace: attach the packet tracer (every measured packet).
        profile: create a :class:`~repro.obs.profiler.RunProfiler`; pass
            it to ``run_synthetic`` as ``profiler=`` so the run's wall
            clock, cycles and phases are recorded.
        metrics: attach a :class:`~repro.obs.metrics.KernelMetrics`
            (whole-run counters: per-link/per-VC flits, per-pair traffic,
            occupancy and active-set samples).
    """
    composite = CompositeObserver()
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
        sampler=(
            None if sample_window is None
            else TimeSeriesSampler(network, window=sample_window)
        ),
        tracer=tracer,
        profiler=RunProfiler() if profile else None,
        metrics=kernel_metrics,
    )
