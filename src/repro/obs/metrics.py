"""Metrics registry and the kernel metrics observer.

Three primitive instruments -- :class:`Counter`, :class:`Gauge`,
:class:`Histogram` -- live in a :class:`MetricsRegistry` keyed by
``(name, labels)``.  :class:`KernelMetrics` is an
:class:`~repro.obs.hooks.Observer` that wires the registry into the
event-driven kernel: per-VC flit counts, per-pair (src, dst) traffic
matrices, sampled buffer occupancy, and active-set size.  What the
network counts anyway -- per-link flits and busy cycles, cycles, router
contention -- it does not count again: those are a window over the
network's counters, opened when the metrics object is made.

The disabled fast path is the simulator's existing null-object discipline:
metrics are "off" when no observer is attached (``Network.obs is None``),
in which case the kernel performs zero metric calls -- there is no separate
"metrics disabled" flag to check.  ``tests/test_obs_fastpath.py`` proves
the zero-call property and ``benchmarks/test_kernel_speed.py`` bounds the
residual overhead of the attach/detach lifecycle at 5%.

Counter bumps on the hot hooks go through cached :class:`Counter` objects
held in tuple-keyed dicts, so the per-event cost is one dict probe plus one
attribute increment -- no label hashing or string formatting per event.

The window is the difference of two
:meth:`~repro.noc.network.Network.counters` snapshots -- the one taken
in ``__init__`` and the current one -- so it keeps counting after a
detach, and a network that has run before, or has its stats reset by
:func:`~repro.traffic.runner.run_synthetic`, reports only the cycles
since the metrics were made.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Tuple

from repro.obs.hooks import Observer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "KernelMetrics",
    "ServeMetrics",
]


class Counter:
    """Monotonically increasing count.

    Hot paths cache the object and bump ``value`` directly; ``inc`` is the
    polite API for cold paths.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-observed value (e.g. active-set size at the latest sample)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram with running sum/min/max.

    ``boundaries`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything beyond the last edge.
    """

    __slots__ = ("boundaries", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, boundaries: Tuple[float, ...]) -> None:
        if list(boundaries) != sorted(boundaries):
            raise ValueError(f"histogram boundaries must ascend: {boundaries}")
        self.boundaries = tuple(boundaries)
        self.bucket_counts = [0] * (len(boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, edge in enumerate(self.boundaries):
            if value <= edge:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


def _label_key(labels: dict) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """A flat namespace of instruments keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Tuple], object] = {}

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(
        self, name: str, boundaries: Tuple[float, ...], **labels
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Histogram(boundaries)
            self._instruments[key] = instrument
        elif not isinstance(instrument, Histogram):
            raise TypeError(f"{name}{labels} already registered as "
                            f"{type(instrument).__name__}")
        return instrument

    def _get(self, name: str, labels: dict, cls) -> object:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls()
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(f"{name}{labels} already registered as "
                            f"{type(instrument).__name__}")
        return instrument

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> List[dict]:
        """Every instrument as a plain dict row (JSON/CSV friendly)."""
        rows = []
        for (name, labels) in sorted(
            self._instruments, key=lambda k: (k[0], str(k[1]))
        ):
            instrument = self._instruments[(name, labels)]
            row = {"name": name, "labels": dict(labels)}
            if isinstance(instrument, Counter):
                row["kind"] = "counter"
                row["value"] = instrument.value
            elif isinstance(instrument, Gauge):
                row["kind"] = "gauge"
                row["value"] = instrument.value
            else:
                row["kind"] = "histogram"
                row.update(instrument.to_dict())
            rows.append(row)
        return rows

    def write_json(self, path) -> pathlib.Path:
        # Deferred import: see the note in repro.obs.replay.
        from repro.obs.replay import write_json

        return write_json(path, self.snapshot(), indent=1)


_OCCUPANCY_BUCKETS = (0.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)
_LATENCY_BUCKETS = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)

_WALL_BUCKETS_S = (0.01, 0.05, 0.25, 1.0, 5.0, 25.0, 120.0, 600.0)


class ServeMetrics:
    """Instruments for the :mod:`repro.serve` job server.

    Lives on a :class:`MetricsRegistry`, so ``GET /metrics`` is just
    :meth:`MetricsRegistry.snapshot`.  Wall-clock latency histograms use
    log-spaced buckets from 10 ms to 10 min (sweep points span that whole
    range between ``run_all``'s default sizes and the paper's).

    Worker utilization is derived, not sampled: each worker accumulates
    busy-seconds into a counter, and :meth:`derived` divides by
    ``workers x uptime``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self.jobs_submitted = reg.counter("serve.jobs_submitted")
        self.jobs_deduped = reg.counter("serve.jobs_deduped")
        self.points_executed = reg.counter("serve.points_executed")
        self.point_cache_hits = reg.counter("serve.point_cache_hits")
        self.point_inflight_joins = reg.counter("serve.point_inflight_joins")
        self.point_errors = reg.counter("serve.point_errors")
        self.http_requests = reg.counter("serve.http_requests")
        self.http_connections = reg.counter("serve.http_connections")
        self.http_errors = reg.counter("serve.http_errors")
        self.job_latency = reg.histogram("serve.job_latency_s", _WALL_BUCKETS_S)
        self.point_latency = reg.histogram(
            "serve.point_latency_s", _WALL_BUCKETS_S
        )
        self._jobs_finished: Dict[str, Counter] = {}
        self._worker_busy: Dict[int, Counter] = {}

    def job_finished(self, state: str, latency_s: float) -> None:
        counter = self._jobs_finished.get(state)
        if counter is None:
            counter = self.registry.counter("serve.jobs_finished", state=state)
            self._jobs_finished[state] = counter
        counter.inc()
        self.job_latency.observe(latency_s)

    def worker_busy(self, worker: int, busy_s: float) -> None:
        counter = self._worker_busy.get(worker)
        if counter is None:
            counter = self.registry.counter("serve.worker_busy_s",
                                            worker=worker)
            self._worker_busy[worker] = counter
        counter.value += busy_s

    def observe_queue(self, counts: Dict[str, int]) -> None:
        """Record jobs-table state counts as queue-depth gauges."""
        for state in ("queued", "running", "done", "failed", "cancelled"):
            self.registry.gauge("serve.queue_depth", state=state).set(
                counts.get(state, 0)
            )

    def derived(self, workers: int, uptime_s: float) -> Dict[str, float]:
        """Ratios the raw instruments imply (dedup rate, utilization)."""
        submitted = self.jobs_submitted.value + self.jobs_deduped.value
        served = (
            self.points_executed.value
            + self.point_cache_hits.value
            + self.point_inflight_joins.value
        )
        busy = sum(c.value for c in self._worker_busy.values())
        return {
            "job_dedup_rate": (
                self.jobs_deduped.value / submitted if submitted else 0.0
            ),
            "point_cache_hit_rate": (
                (served - self.points_executed.value) / served
                if served else 0.0
            ),
            "worker_utilization": (
                busy / (workers * uptime_s)
                if workers > 0 and uptime_s > 0 else 0.0
            ),
            "uptime_s": uptime_s,
        }


class KernelMetrics(Observer):
    """Observer that populates a :class:`MetricsRegistry` from kernel events.

    Attach with ``network.attach_observer(metrics)`` (or via
    :func:`repro.obs.observe` with ``metrics=True``).  Counts *all* traffic
    since it was made, not just the measurement window, so flit
    conservation is exact: every flit of every delivered packet crosses
    exactly ``hops`` links, hence ``total link flits == sum(num_flits *
    hops)`` once the network is idle (attached throughout, fault-free
    runs; the links a faulted packet crossed before its purge are never
    credited).

    Buffer occupancy and the active-set size are sampled every
    :attr:`sample_every` cycles.
    """

    #: cycle stride of the occupancy / active-set samples
    sample_every = 32

    def __init__(self, network) -> None:
        self.network = network
        self.registry = MetricsRegistry()
        #: the network's counters when the metrics were made.
        self._origin = network.counters()
        reg = self.registry
        self._injected = reg.counter("kernel.flits_injected")
        self._enqueued = reg.counter("kernel.packets_offered")
        self._delivered_packets = reg.counter("kernel.packets_delivered")
        self._delivered_flits = reg.counter("kernel.flits_delivered")
        self._expected_link_flits = reg.counter("kernel.expected_link_flits")
        self._occupancy_hist = reg.histogram(
            "kernel.buffer_occupancy_flits", _OCCUPANCY_BUCKETS
        )
        self._active_hist = reg.histogram(
            "kernel.active_routers",
            tuple(float(x) for x in (0, 1, 2, 4, 8, 16, 32, 64)),
        )
        self._latency_hist = reg.histogram(
            "kernel.packet_latency_cycles", _LATENCY_BUCKETS
        )
        self._occupancy_gauge = reg.gauge("kernel.buffer_occupancy_now")
        self._active_gauge = reg.gauge("kernel.active_routers_now")
        # Hot-path caches: tuple key -> Counter, bumped via .value directly.
        self._vc: Dict[Tuple[int, int, int], Counter] = {}
        self._pair_flits: Dict[Tuple[int, int], Counter] = {}
        self._pair_packets: Dict[Tuple[int, int], Counter] = {}

    # -- hot hooks -----------------------------------------------------------
    def on_packet_enqueued(self, packet, cycle: int) -> None:
        self._enqueued.value += 1

    def on_flit_injected(
        self, node: int, router_id: int, port: int, vc: int, flit, cycle: int
    ) -> None:
        self._injected.value += 1

    def on_switch_grant(self, router_id: int, grant, cycle: int) -> None:
        out_vc = grant.out_vc
        key = (router_id, grant.out_port, -1 if out_vc is None else out_vc)
        counter = self._vc.get(key)
        if counter is None:
            counter = self._vc[key] = self.registry.counter(
                "kernel.vc_grants",
                router=key[0], port=key[1], vc=key[2],
            )
        counter.value += 1

    def on_packet_delivered(self, packet, cycle: int) -> None:
        self._delivered_packets.value += 1
        self._delivered_flits.value += packet.num_flits
        self._expected_link_flits.value += packet.num_flits * packet.hops
        self._latency_hist.observe(cycle - packet.created_at)
        key = (packet.src, packet.dst)
        counter = self._pair_flits.get(key)
        if counter is None:
            counter = self._pair_flits[key] = self.registry.counter(
                "kernel.pair_flits", src=key[0], dst=key[1]
            )
            self._pair_packets[key] = self.registry.counter(
                "kernel.pair_packets", src=key[0], dst=key[1]
            )
        counter.value += packet.num_flits
        self._pair_packets[key].value += 1

    def on_cycle_end(self, cycle: int, measuring: bool) -> None:
        if cycle % self.sample_every == 0:
            network = self.network
            occupancy = sum(
                r.occupied_flits for r in network.routers
            )
            active = len(network._active_routers)
            self._occupancy_hist.observe(occupancy)
            self._active_hist.observe(active)
            self._occupancy_gauge.value = occupancy
            self._active_gauge.value = active

    # -- snapshots ------------------------------------------------------------
    def _window(self):
        """The network's counters since the metrics were made."""
        return self.network.counters().since(self._origin)

    @property
    def cycles(self) -> int:
        """Cycles simulated since the metrics were made."""
        return self.network.cycle - self._origin.cycle

    def link_flits(self) -> Dict[Tuple[int, int], int]:
        """``(src_router, src_port) -> flits`` carried since made."""
        return self._window().link_flits

    def link_busy(self) -> Dict[Tuple[int, int], int]:
        """``(src_router, src_port) -> cycles with >= 1 flit``."""
        return self._window().link_busy

    def vc_grants(self) -> Dict[Tuple[int, int, int], int]:
        """``(router, out_port, out_vc) -> grants``; ejection is vc ``-1``."""
        return {key: c.value for key, c in self._vc.items()}

    def pair_flits(self) -> Dict[Tuple[int, int], int]:
        """``(src_node, dst_node) -> delivered flits``."""
        return {key: c.value for key, c in self._pair_flits.items()}

    def pair_packets(self) -> Dict[Tuple[int, int], int]:
        return {key: c.value for key, c in self._pair_packets.items()}

    def router_contention(self) -> List[dict]:
        """Per-router credit stalls / arbitration conflicts since made."""
        return [
            {
                "router": router,
                "credit_stalls": delta.credit_stalls,
                "arbitration_conflicts": delta.arbitration_conflicts,
                "buffer_writes": delta.buffer_writes,
                "crossbar_traversals": delta.crossbar_traversals,
            }
            for router, delta in enumerate(self._window().activities)
        ]

    @property
    def conserved(self) -> bool:
        """True when every delivered flit's hop crossings are accounted for.

        Exact only once the network has drained (in-flight flits have
        crossed links their packets have not yet been credited for) and
        only fault-free (a packet a fault purges crossed links that no
        delivery credits).
        """
        return self.link_flits_total == self._expected_link_flits.value

    @property
    def link_flits_total(self) -> int:
        """Link crossings since the metrics were made."""
        return sum(self.link_flits().values())

    def snapshot(self) -> dict:
        """Everything as one JSON-ready dict."""
        busy = self.link_busy()
        return {
            "cycles": self.cycles,
            "sample_every": self.sample_every,
            "packets_offered": self._enqueued.value,
            "packets_delivered": self._delivered_packets.value,
            "flits_injected": self._injected.value,
            "flits_delivered": self._delivered_flits.value,
            "link_flits_total": self.link_flits_total,
            "expected_link_flits": self._expected_link_flits.value,
            "conserved": self.conserved,
            "link_flits": [
                {
                    "router": r, "port": p, "flits": v,
                    "busy_cycles": busy.get((r, p), 0),
                }
                for (r, p), v in sorted(self.link_flits().items())
            ],
            "vc_grants": [
                {"router": r, "port": p, "vc": vc, "grants": v}
                for (r, p, vc), v in sorted(self.vc_grants().items())
            ],
            "pair_flits": [
                {"src": s, "dst": d, "flits": v}
                for (s, d), v in sorted(self.pair_flits().items())
            ],
            "router_contention": self.router_contention(),
            "latency_hist": self._latency_hist.to_dict(),
            "occupancy_hist": self._occupancy_hist.to_dict(),
            "active_routers_hist": self._active_hist.to_dict(),
        }

    def write_json(self, path) -> pathlib.Path:
        # Deferred import: see the note in repro.obs.replay.
        from repro.obs.replay import write_json

        return write_json(path, self.snapshot(), indent=1)
