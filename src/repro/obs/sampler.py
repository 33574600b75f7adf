"""Windowed time-series telemetry for a running network.

:class:`TimeSeriesSampler` turns the Figure 1 heat maps into *timelines*:
one :class:`WindowSample` per fixed-width window of measured cycles, each
holding the per-router buffer occupancy integral, the per-channel busy
cycles, the deliveries and the measured latencies of that window.  It
counts nothing itself: a window is the difference of the network's
:meth:`~repro.noc.network.Network.counters` snapshots at its two
boundaries, the measurement window is the same difference over the
whole, so the windows add up to the end-of-run aggregates
(``buffer_utilization`` / ``link_utilization``, window deliveries) by
construction, on either kernel.

The run driver owns the boundaries: hand the sampler to
:func:`repro.traffic.runner.run_synthetic` as ``sampler=`` and it starts
the first window as the measurement window opens, closes one every
``window`` measured cycles and closes the last partial one when the
measurement window closes.  Being no observer, it keeps a ``"c"`` run on
the compiled kernel, spans included.

Each window's delivery counts and mean latency make saturation onset
visible: past the knee, the per-window latency series diverges while
throughput flattens.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

LinkKey = Tuple[int, int]  # (src_router, src_port)


@dataclass
class WindowSample:
    """Telemetry integrated over one sampling window."""

    index: int
    start_cycle: int
    end_cycle: int  # last sampled cycle, inclusive
    cycles: int
    #: per-router sum over sampled cycles of occupied flit slots
    occupancy: List[int]
    #: (router, port) -> cycles in which the channel carried >= 1 flit
    link_busy: Dict[LinkKey, int] = field(default_factory=dict)
    deliveries: int = 0
    flits_delivered: int = 0
    latency_sum: int = 0
    latency_count: int = 0

    def buffer_utilization(self, router: int, capacity_flits: int) -> float:
        """Fraction of ``router``'s buffer slots occupied, window average."""
        if self.cycles == 0 or capacity_flits == 0:
            return 0.0
        return self.occupancy[router] / (self.cycles * capacity_flits)

    def link_utilization(self, router: int, port: int) -> float:
        """Fraction of window cycles the channel carried >= 1 flit."""
        if self.cycles == 0:
            return 0.0
        return self.link_busy.get((router, port), 0) / self.cycles

    @property
    def avg_latency_cycles(self) -> float:
        """Mean latency of measured packets delivered in this window."""
        if self.latency_count == 0:
            return math.nan
        return self.latency_sum / self.latency_count


class TimeSeriesSampler:
    """Windowed utilization/latency/throughput series of one network.

    Args:
        network: the network whose counters the windows are cut from.
        window: sampling window width in measured cycles.
    """

    def __init__(self, network, window: int = 100) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.network = network
        self.window = int(window)
        self.windows: List[WindowSample] = []
        self._num_routers = network.topology.num_routers
        #: the counters at the last boundary (see :meth:`_read`)
        self._mark: Optional[tuple] = None

    # -- boundaries (called by the run driver) -------------------------------
    def _read(self) -> tuple:
        """``(counters, latency records)`` now."""
        network = self.network
        return network.counters(), len(network.stats.records)

    def start(self) -> None:
        """Open the first window: the measurement window opens now."""
        self._mark = self._read()

    def sample(self) -> None:
        """Close the window since the last boundary (nothing when it holds
        no measured cycle, or the measurement window never opened) and
        open the next one."""
        if self._mark is None:
            return
        now = self._read()
        (counters, records), (start, records0) = now, self._mark
        if counters.cycle == start.cycle:
            return
        window = counters.since(start)
        latencies = self.network.stats.records.total[records0:records]
        self.windows.append(
            WindowSample(
                index=len(self.windows),
                start_cycle=start.cycle,
                end_cycle=counters.cycle - 1,
                cycles=window.cycle,
                occupancy=[a.occupancy_integral for a in window.activities],
                link_busy=window.link_busy,
                deliveries=window.packets,
                flits_delivered=window.flits,
                latency_sum=sum(latencies),
                latency_count=len(latencies),
            )
        )
        self._mark = now

    # -- derived series -----------------------------------------------------
    def buffer_capacity(self, router: int) -> int:
        activity = self.network.stats.router_activity[router]
        return activity.buffer_capacity_flits

    def sampled_cycles(self) -> int:
        """Total cycles integrated across all recorded windows."""
        return sum(w.cycles for w in self.windows)

    def buffer_utilization_series(
        self, router: int
    ) -> List[Tuple[int, float]]:
        """[(window start cycle, buffer utilization), ...] for one router."""
        cap = self.buffer_capacity(router)
        return [
            (w.start_cycle, w.buffer_utilization(router, cap))
            for w in self.windows
        ]

    def link_utilization_series(
        self, router: int, port: int
    ) -> List[Tuple[int, float]]:
        """[(window start cycle, link utilization), ...] for one channel."""
        return [
            (w.start_cycle, w.link_utilization(router, port))
            for w in self.windows
        ]

    def latency_series(self) -> List[Tuple[int, float]]:
        """[(window start cycle, mean measured latency), ...]."""
        return [(w.start_cycle, w.avg_latency_cycles) for w in self.windows]

    def throughput_series(
        self, num_nodes: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        """[(window start cycle, packets/node/cycle delivered), ...]."""
        nodes = num_nodes or self.network.topology.num_nodes
        return [
            (
                w.start_cycle,
                w.deliveries / (w.cycles * nodes) if w.cycles else 0.0,
            )
            for w in self.windows
        ]

    # -- whole-run averages (equal to NetworkStats) ---------------------------
    def time_average_buffer_utilization(self, router: int) -> float:
        """Occupancy integral over all windows; equals
        ``NetworkStats.buffer_utilization``."""
        cycles = self.sampled_cycles()
        cap = self.buffer_capacity(router)
        if cycles == 0 or cap == 0:
            return 0.0
        total = sum(w.occupancy[router] for w in self.windows)
        return total / (cycles * cap)

    def time_average_link_utilization(self, router: int, port: int) -> float:
        """Busy fraction over all windows; equals
        ``NetworkStats.link_utilization``."""
        cycles = self.sampled_cycles()
        if cycles == 0:
            return 0.0
        busy = sum(w.link_busy.get((router, port), 0) for w in self.windows)
        return busy / cycles

    def link_keys(self) -> List[LinkKey]:
        """Every channel observed busy at least once, sorted."""
        keys = set()
        for w in self.windows:
            keys.update(w.link_busy)
        return sorted(keys)

    # -- tables ---------------------------------------------------------------
    def summary_rows(self) -> List[dict]:
        """One row per window: deliveries, throughput, mean latency."""
        return [
            {
                "window": w.index,
                "start_cycle": w.start_cycle,
                "end_cycle": w.end_cycle,
                "cycles": w.cycles,
                "deliveries": w.deliveries,
                "flits_delivered": w.flits_delivered,
                "throughput_packets_per_node_cycle": throughput,
                "avg_latency_cycles": w.avg_latency_cycles,
                "measured_deliveries": w.latency_count,
            }
            for w, (_, throughput) in zip(
                self.windows, self.throughput_series()
            )
        ]

    def buffer_rows(self) -> List[dict]:
        """One row per (window, router): buffer utilization time series."""
        capacities = [
            self.buffer_capacity(r) for r in range(self._num_routers)
        ]
        return [
            {
                "window": w.index,
                "start_cycle": w.start_cycle,
                "router": router,
                "occupancy_integral": w.occupancy[router],
                "buffer_utilization": w.buffer_utilization(router, capacity),
            }
            for w in self.windows
            for router, capacity in enumerate(capacities)
        ]

    def link_rows(self) -> List[dict]:
        """One row per (window, channel): link utilization time series."""
        keys = self.link_keys()
        return [
            {
                "window": w.index,
                "start_cycle": w.start_cycle,
                "router": router,
                "port": port,
                "busy_cycles": w.link_busy.get((router, port), 0),
                "link_utilization": w.link_utilization(router, port),
            }
            for w in self.windows
            for router, port in keys
        ]

    def write_csv(self, directory, prefix: str = "obs") -> List[pathlib.Path]:
        """Write the three tables as ``<prefix>_timeseries.csv``,
        ``_buffer_series.csv`` and ``_link_series.csv`` (an empty table is
        skipped); returns the paths written."""
        # Deferred import: see the note in repro.obs.replay.
        from repro.obs.replay import write_rows

        directory = pathlib.Path(directory)
        return [
            write_rows(directory / f"{prefix}_{suffix}.csv", rows)
            for suffix, rows in (
                ("timeseries", self.summary_rows()),
                ("buffer_series", self.buffer_rows()),
                ("link_series", self.link_rows()),
            )
            if rows
        ]

    # -- diagnostics --------------------------------------------------------
    def saturation_onset(
        self, factor: float = 3.0, reference_windows: int = 1
    ) -> Optional[int]:
        """First window whose mean latency exceeds ``factor`` x the mean of
        the first ``reference_windows`` windows; ``None`` if never.

        A cheap knee detector for load sweeps: below saturation the series
        is flat, past it queueing grows without bound window over window.
        """
        baseline_vals = [
            w.avg_latency_cycles
            for w in self.windows[:reference_windows]
            if w.latency_count
        ]
        if not baseline_vals:
            return None
        baseline = sum(baseline_vals) / len(baseline_vals)
        if baseline <= 0:
            return None
        for w in self.windows[reference_windows:]:
            if w.latency_count and w.avg_latency_cycles > factor * baseline:
                return w.index
        return None
