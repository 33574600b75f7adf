"""Measurement and statistics collection for network simulations.

End-to-end packet latency is decomposed the way the paper's Figure 8(a)
does:

* **queuing latency** -- cycles spent waiting in the source queue before the
  head flit enters the injection port;
* **transfer latency** -- the zero-load component: router pipeline plus link
  traversal per hop, plus tail serialization over the narrowest link of the
  path (halved where two flits travel a wide link together);
* **blocking latency** -- the remainder: contention stalls at intermediate
  hops.

The collector also integrates per-router buffer occupancy and per-channel
link usage (the Figure 1 heat maps) and counts the micro-events (buffer
reads/writes, crossbar traversals, arbitrations, link flit-traversals) that
the power model (:mod:`repro.core.power`) converts into Watts.

Those counters run from the moment a network is built, on every kernel;
a window over them -- the measurement window, a sampler window, a
:class:`~repro.obs.metrics.KernelMetrics` attachment -- is the
difference of two :class:`Counters` snapshots
(:meth:`Network.counters() <repro.noc.network.Network.counters>`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class LatencyRecord:
    """Latency decomposition of one delivered packet (cycles)."""

    packet_id: int
    src: int
    dst: int
    num_flits: int
    hops: int
    total: int
    queuing: int
    transfer: int
    blocking: int
    packet_class: str = "data"

    def __post_init__(self) -> None:
        if self.total != self.queuing + self.transfer + self.blocking:
            raise ValueError(
                "latency components must sum to the total "
                f"({self.queuing}+{self.transfer}+{self.blocking} != {self.total})"
            )


def _in_network_floor(packet_id: int, in_network: int, minimum: int) -> int:
    """``in_network`` cycles, checked against the per-hop pipeline bound."""
    if in_network < minimum:
        raise RuntimeError(
            f"packet {packet_id} beat the per-hop pipeline "
            f"bound ({in_network} < {minimum} cycles); the "
            "router model violated its own timing"
        )
    return in_network


def decompose_latency(
    packet_id: int,
    num_flits: int,
    hops: int,
    created_at: int,
    injected_at: int,
    min_lanes: Optional[int],
    received_at: int,
    stages: int,
    link_delay: int,
) -> Tuple[int, int, int, int]:
    """``(total, queuing, transfer, blocking)`` of one delivered packet
    from its plain fields, on routers of ``stages`` pipeline stages and
    links of ``link_delay`` cycles; ``min_lanes`` below 1 (or ``None``)
    means the narrowest link is unknown and counts as one lane."""
    base = stages - 1
    hop_cost = base + link_delay
    lanes = min_lanes if min_lanes and min_lanes > 0 else 1
    total = received_at - created_at
    queuing = injected_at - created_at
    transfer = hop_cost * hops + base - (1 - num_flits) // lanes
    blocking = total - queuing - transfer
    if blocking < 0:
        # A packet can (slightly) beat the analytic zero-load bound:
        # when contention delays the head, trailing flits bunch up and
        # later wide links carry them two per cycle, recovering
        # serialization the bound charged to the narrowest link.
        # Attribute the whole in-network time to transfer then.
        transfer = _in_network_floor(
            packet_id, total - queuing, hop_cost * hops + base
        )
        blocking = 0
    return total, queuing, transfer, blocking


def decompose_latency_columns(
    packet_id: List[int],
    num_flits: List[int],
    hops: List[int],
    created_at: List[int],
    injected_at: List[int],
    min_lanes: List[int],
    received_at: List[int],
    stages: int,
    link_delay: int,
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """:func:`decompose_latency` over whole columns (one packet per row),
    the form a completion log of the compiled kernel is reduced in."""
    base = stages - 1
    hop_cost = base + link_delay
    total = [r - c for r, c in zip(received_at, created_at)]
    queuing = [i - c for i, c in zip(injected_at, created_at)]
    transfer = [
        hop_cost * h + base - (1 - f) // (l if l > 0 else 1)
        for h, f, l in zip(hops, num_flits, min_lanes)
    ]
    blocking = [t - q - x for t, q, x in zip(total, queuing, transfer)]
    if blocking and min(blocking) < 0:
        for row, slack in enumerate(blocking):
            if slack < 0:
                transfer[row] = _in_network_floor(
                    packet_id[row], total[row] - queuing[row],
                    hop_cost * hops[row] + base,
                )
                blocking[row] = 0
    return total, queuing, transfer, blocking


class LatencySample(Sequence):
    """The measured packets, one column per :class:`LatencyRecord` field
    (integers, plus the class names), a row per packet in finishing order.

    Reads as a sequence of :class:`LatencyRecord` objects, each built --
    ``__post_init__`` check included -- when it is asked for; the
    aggregate metrics of :class:`NetworkStats` reduce the columns and
    never build one.
    """

    COLUMNS = tuple(f.name for f in fields(LatencyRecord))

    def __init__(self) -> None:
        for name in self.COLUMNS:
            setattr(self, name, [])

    def _columns(self) -> List[list]:
        return [getattr(self, name) for name in self.COLUMNS]

    def __len__(self) -> int:
        return len(self.total)

    def __iter__(self):
        return map(LatencyRecord, *self._columns())

    def __getitem__(self, index):
        picked = (column[index] for column in self._columns())
        if isinstance(index, slice):
            return list(map(LatencyRecord, *picked))
        return LatencyRecord(*picked)

    def _append(self, record: LatencyRecord) -> None:
        for name in self.COLUMNS:
            getattr(self, name).append(getattr(record, name))

    def _extend(self, *columns: list) -> None:
        """Append whole columns, given in :attr:`COLUMNS` order."""
        for column, rows in zip(self._columns(), columns):
            column.extend(rows)


def _nearest_rank(ordered: List[int], fraction: float) -> float:
    """The value of sorted ``ordered`` below which ``fraction`` of it falls
    (nearest rank; ``fraction == 0.0`` is the minimum, rather than the
    rank -1 that ``ceil(fraction * n) - 1`` would index)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not ordered:
        raise ValueError("no packets were measured")
    if fraction == 0.0:
        return float(ordered[0])
    index = min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1)
    return float(ordered[index])


@dataclass
class RouterActivity:
    """Per-router micro-event counters for power and utilization."""

    buffer_writes: int = 0
    buffer_reads: int = 0
    crossbar_traversals: int = 0
    arbitrations: int = 0
    route_computations: int = 0
    vc_allocations: int = 0
    merged_flit_pairs: int = 0
    # SA-eligible head flits that could not bid because their allocated
    # downstream VC had zero credits (back-pressure stalls).
    credit_stalls: int = 0
    # Losing requesters across both SA stages: each multi-bidder
    # arbitration charges (bidders - 1) conflicts, so the counter is the
    # number of flit-cycles lost to switch contention.
    arbitration_conflicts: int = 0
    # Sum over sampled cycles of (occupied flit slots); divide by
    # (cycles * capacity) for average buffer utilization.
    occupancy_integral: int = 0
    buffer_capacity_flits: int = 0

    _COUNTER_FIELDS = (
        "buffer_writes",
        "buffer_reads",
        "crossbar_traversals",
        "arbitrations",
        "route_computations",
        "vc_allocations",
        "merged_flit_pairs",
        "credit_stalls",
        "arbitration_conflicts",
        "occupancy_integral",
    )

    def snapshot(self) -> "RouterActivity":
        """Copy of the current counter values."""
        return RouterActivity(
            **{f: getattr(self, f) for f in self._COUNTER_FIELDS},
            buffer_capacity_flits=self.buffer_capacity_flits,
        )

    def delta_since(self, start: "RouterActivity") -> "RouterActivity":
        """Counters accumulated since ``start`` (a measurement window)."""
        return RouterActivity(
            **{
                f: getattr(self, f) - getattr(start, f)
                for f in self._COUNTER_FIELDS
            },
            buffer_capacity_flits=self.buffer_capacity_flits,
        )


def _positive_delta(
    now: Dict[Tuple[int, int], int], start: Dict[Tuple[int, int], int]
) -> Dict[Tuple[int, int], int]:
    return {
        key: count - start.get(key, 0)
        for key, count in now.items()
        if count > start.get(key, 0)
    }


@dataclass
class Counters:
    """A network's always-on counters at one cycle.

    ``link_flits`` / ``link_busy`` map ``(src_router, src_port)`` to the
    flits a channel carried and the cycles it carried at least one;
    ``packets`` / ``flits`` count the clean (uncorrupted) deliveries.
    """

    cycle: int
    activities: List[RouterActivity]
    link_flits: Dict[Tuple[int, int], int]
    link_busy: Dict[Tuple[int, int], int]
    packets: int
    flits: int

    def since(self, start: "Counters") -> "Counters":
        """The window from ``start`` to this snapshot: ``cycle`` is its
        length, the link dicts hold the channels that moved."""
        return Counters(
            self.cycle - start.cycle,
            [
                now.delta_since(then)
                for now, then in zip(self.activities, start.activities)
            ],
            _positive_delta(self.link_flits, start.link_flits),
            _positive_delta(self.link_busy, start.link_busy),
            self.packets - start.packets,
            self.flits - start.flits,
        )


class NetworkStats:
    """The measured packets' latency records, and the counters of the
    measurement window once it has closed (:meth:`Network.end_measurement
    <repro.noc.network.Network.end_measurement>` freezes them here)."""

    def __init__(self, num_routers: int, num_nodes: int) -> None:
        self.num_routers = num_routers
        self.num_nodes = num_nodes
        #: the measured packets: column lists (``records.total``, ...) and
        #: a sequence of :class:`LatencyRecord` (see :class:`LatencySample`).
        self.records = LatencySample()
        self.router_activity = [RouterActivity() for _ in range(num_routers)]
        # (src_router, src_port) -> flits carried
        self.link_flits: Dict[Tuple[int, int], int] = {}
        # (src_router, src_port) -> cycles in which the link was busy
        self.link_busy_cycles: Dict[Tuple[int, int], int] = {}
        self.link_lanes: Dict[Tuple[int, int], int] = {}
        self.measured_cycles: int = 0
        self.flits_delivered: int = 0
        self.packets_delivered: int = 0
        self.packets_offered: int = 0
        # All deliveries that happened while the measurement window was
        # open, whether or not the packet itself was marked measured; this
        # is the "accepted traffic" throughput numerator.
        self.window_packet_deliveries: int = 0
        self.window_flit_deliveries: int = 0
        # The cycles the measurement window opened and closed at;
        # ``measured_cycles`` is their difference.
        self.start_cycle: Optional[int] = None
        self.end_cycle: Optional[int] = None
        # Set by the run driver when the drain phase hit its cycle cap
        # (offered load beyond capacity); summary() reports it so sweep
        # scripts can tell an empty window from a saturated one.
        self.saturated: bool = False

    # -- recording ----------------------------------------------------------
    def record_packet(self, record: LatencyRecord) -> None:
        self.records._append(record)
        self.packets_delivered += 1
        self.flits_delivered += record.num_flits

    def record_completions(
        self,
        packet_id: List[int],
        src: List[int],
        dst: List[int],
        num_flits: List[int],
        hops: List[int],
        created_at: List[int],
        injected_at: List[int],
        min_lanes: List[int],
        received_at: List[int],
        packet_class: List[str],
        stages: int,
        link_delay: int,
    ) -> None:
        """:meth:`record_packet` for many measured packets at once, given
        as columns of their plain fields (a row per packet)."""
        total, queuing, transfer, blocking = decompose_latency_columns(
            packet_id, num_flits, hops, created_at, injected_at, min_lanes,
            received_at, stages, link_delay,
        )
        self.records._extend(
            packet_id, src, dst, num_flits, hops, total, queuing, transfer,
            blocking, packet_class,
        )
        self.packets_delivered += len(total)
        self.flits_delivered += sum(num_flits)

    # -- aggregate latency metrics -------------------------------------------
    def _mean(self, column: List[int]) -> float:
        if not column:
            raise ValueError("no packets were measured")
        return sum(column) / len(column)

    @property
    def avg_latency_cycles(self) -> float:
        return self._mean(self.records.total)

    @property
    def avg_network_latency_cycles(self) -> float:
        """Mean latency excluding source queuing (in-network time only)."""
        records = self.records
        return self._mean(
            [t - q for t, q in zip(records.total, records.queuing)]
        )

    @property
    def avg_queuing_cycles(self) -> float:
        return self._mean(self.records.queuing)

    @property
    def avg_blocking_cycles(self) -> float:
        return self._mean(self.records.blocking)

    @property
    def avg_transfer_cycles(self) -> float:
        return self._mean(self.records.transfer)

    @property
    def avg_hops(self) -> float:
        return self._mean(self.records.hops)

    def avg_latency_ns(self, frequency_ghz: float) -> float:
        """Mean end-to-end latency in nanoseconds at a given clock."""
        return self.avg_latency_cycles / frequency_ghz

    def latency_percentile(self, fraction: float) -> float:
        """Latency below which ``fraction`` of measured packets fall
        (nearest rank, see :func:`_nearest_rank`)."""
        return _nearest_rank(sorted(self.records.total), fraction)

    def latency_std_cycles(self) -> float:
        """Standard deviation of packet latency (Figure 13b's jitter)."""
        totals = self.records.total
        mean = self._mean(totals)
        return math.sqrt(sum((t - mean) ** 2 for t in totals) / len(totals))

    # -- throughput -----------------------------------------------------------
    @property
    def accepted_packets_per_node_per_cycle(self) -> float:
        if self.measured_cycles == 0:
            raise ValueError("measurement window is empty")
        return self.window_packet_deliveries / (
            self.measured_cycles * self.num_nodes
        )

    @property
    def accepted_flits_per_node_per_cycle(self) -> float:
        if self.measured_cycles == 0:
            raise ValueError("measurement window is empty")
        return self.window_flit_deliveries / (
            self.measured_cycles * self.num_nodes
        )

    # -- utilization ----------------------------------------------------------
    def buffer_utilization(self, router: int) -> float:
        """Time-average fraction of the router's flit slots that were full."""
        activity = self.router_activity[router]
        if self.measured_cycles == 0 or activity.buffer_capacity_flits == 0:
            return 0.0
        denom = self.measured_cycles * activity.buffer_capacity_flits
        return activity.occupancy_integral / denom

    def link_utilization(self, src_router: int, src_port: int) -> float:
        """Fraction of cycles the channel carried at least one flit."""
        if self.measured_cycles == 0:
            return 0.0
        busy = self.link_busy_cycles.get((src_router, src_port), 0)
        return busy / self.measured_cycles

    def router_link_utilization(self, router: int, num_ports: int) -> float:
        """Mean utilization of the router's outgoing network channels."""
        values = [
            self.link_utilization(router, port)
            for port in range(num_ports)
            if (router, port) in self.link_lanes
        ]
        if not values:
            return 0.0
        return sum(values) / len(values)

    # -- convenience ----------------------------------------------------------
    def summary(self, frequency_ghz: float = 1.0) -> Dict[str, object]:
        """Headline numbers as a plain dict (handy for printing tables).

        Never raises on an empty or saturated measurement window: metrics
        that need at least one measured packet (or one measured cycle) come
        back as ``math.nan``, and the ``measured_packets`` / ``saturated``
        keys let sweep scripts tell the cases apart past the knee.
        """

        def _safe(compute) -> float:
            try:
                return float(compute())
            except ValueError:
                return math.nan

        ordered = sorted(self.records.total)
        return {
            "packets": float(self.packets_delivered),
            "measured_packets": float(len(ordered)),
            "saturated": self.saturated,
            "avg_latency_cycles": _safe(lambda: self.avg_latency_cycles),
            "avg_latency_ns": _safe(lambda: self.avg_latency_ns(frequency_ghz)),
            "avg_queuing_cycles": _safe(lambda: self.avg_queuing_cycles),
            "avg_blocking_cycles": _safe(lambda: self.avg_blocking_cycles),
            "avg_transfer_cycles": _safe(lambda: self.avg_transfer_cycles),
            "avg_hops": _safe(lambda: self.avg_hops),
            "p95_latency_cycles": _safe(lambda: _nearest_rank(ordered, 0.95)),
            "p99_latency_cycles": _safe(lambda: _nearest_rank(ordered, 0.99)),
            "throughput_packets_per_node_cycle": _safe(
                lambda: self.accepted_packets_per_node_per_cycle
            ),
        }
