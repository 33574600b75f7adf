"""Bottleneck attribution: turn kernel counters into ranked hot spots.

The paper's placement argument (Section 3, Figure 3) is that XY routing
concentrates traffic on the diagonal and center of the mesh; this module
makes that concentration a measurable artifact.  An
:class:`AttributionReport` aggregates per-link flit counts, per-pair
(src, dst) traffic matrices, and per-router contention counters into:

* per-router *outgoing-flit* totals (the heatmap grid);
* a ranked top-k of the most contended links, routers, and pairs;
* a flit-conservation check (``link_flits_total`` must equal
  ``sum(num_flits * hops)`` over delivered packets in a drained,
  fault-free run).

Build one from a live :class:`~repro.obs.metrics.KernelMetrics`
(:func:`attribute_metrics`, accounting since the metrics were made), or
read one back with :meth:`AttributionReport.read_json`.  Render with
``python -m repro.obs.heatmap`` or export via :meth:`write_json` /
:meth:`write_csv`.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.replay import write_json, write_rows

__all__ = [
    "AttributionReport",
    "attribute_metrics",
    "PORT_NAMES",
]

# Mesh port layout: ejection/injection is port 0, then 1 + direction with
# NORTH, EAST, SOUTH, WEST = range(4) (see repro.noc.topology).
PORT_NAMES = {0: "local", 1: "north", 2: "east", 3: "south", 4: "west"}


def port_name(port: int) -> str:
    return PORT_NAMES.get(port, f"port{port}")


@dataclass
class AttributionReport:
    """Aggregated bottleneck attribution for one run (or one window)."""

    width: int
    height: int
    cycles: int
    source: str  # "metrics": built by attribute_metrics
    # (src_router, src_port) -> flits carried / busy cycles.
    link_flits: Dict[Tuple[int, int], int] = field(default_factory=dict)
    link_busy: Dict[Tuple[int, int], int] = field(default_factory=dict)
    # (src_node, dst_node) -> delivered flits / packets.
    pair_flits: Dict[Tuple[int, int], int] = field(default_factory=dict)
    pair_packets: Dict[Tuple[int, int], int] = field(default_factory=dict)
    # router -> contention counters.
    credit_stalls: Dict[int, int] = field(default_factory=dict)
    arbitration_conflicts: Dict[int, int] = field(default_factory=dict)
    flits_injected: int = 0
    flits_delivered: int = 0
    packets_delivered: int = 0
    link_flits_total: int = 0
    expected_link_flits: Optional[int] = None

    # -- derived views -------------------------------------------------------
    @property
    def conserved(self) -> Optional[bool]:
        """Flit-conservation verdict; ``None`` when not computable
        (a report read back without ``expected_link_flits``)."""
        if self.expected_link_flits is None:
            return None
        return self.link_flits_total == self.expected_link_flits

    def router_outgoing_flits(self) -> Dict[int, int]:
        """router -> flits sent on all its outgoing inter-router links."""
        totals: Dict[int, int] = {}
        for (router, _port), flits in self.link_flits.items():
            totals[router] = totals.get(router, 0) + flits
        return totals

    def router_grid(self) -> List[List[int]]:
        """Outgoing-flit totals as a height x width grid (row-major)."""
        totals = self.router_outgoing_flits()
        return [
            [totals.get(row * self.width + col, 0)
             for col in range(self.width)]
            for row in range(self.height)
        ]

    def link_utilization(self, key: Tuple[int, int]) -> float:
        """Fraction of cycles the link carried at least one flit."""
        if self.cycles <= 0:
            return 0.0
        return self.link_busy.get(key, 0) / self.cycles

    def top_links(self, k: int = 10) -> List[dict]:
        ranked = sorted(
            self.link_flits.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [
            {
                "router": router,
                "port": port,
                "direction": port_name(port),
                "flits": flits,
                "utilization": self.link_utilization((router, port)),
            }
            for (router, port), flits in ranked[:k]
        ]

    def top_routers(self, k: int = 10) -> List[dict]:
        totals = self.router_outgoing_flits()
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            {
                "router": router,
                "row": router // self.width,
                "col": router % self.width,
                "flits_out": flits,
                "credit_stalls": self.credit_stalls.get(router, 0),
                "arbitration_conflicts":
                    self.arbitration_conflicts.get(router, 0),
            }
            for router, flits in ranked[:k]
        ]

    def top_pairs(self, k: int = 10) -> List[dict]:
        ranked = sorted(
            self.pair_flits.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [
            {
                "src": src,
                "dst": dst,
                "flits": flits,
                "packets": self.pair_packets.get((src, dst), 0),
            }
            for (src, dst), flits in ranked[:k]
        ]

    # -- serialization -------------------------------------------------------
    def to_json_dict(self, top_k: int = 10) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "cycles": self.cycles,
            "source": self.source,
            "flits_injected": self.flits_injected,
            "flits_delivered": self.flits_delivered,
            "packets_delivered": self.packets_delivered,
            "link_flits_total": self.link_flits_total,
            "expected_link_flits": self.expected_link_flits,
            "conserved": self.conserved,
            "links": self.link_rows(),
            "pairs": self.pair_rows(),
            "routers": [
                {
                    "router": r,
                    "flits_out": flits,
                    "credit_stalls": self.credit_stalls.get(r, 0),
                    "arbitration_conflicts":
                        self.arbitration_conflicts.get(r, 0),
                }
                for r, flits in sorted(
                    self.router_outgoing_flits().items()
                )
            ],
            "top_links": self.top_links(top_k),
            "top_routers": self.top_routers(top_k),
            "top_pairs": self.top_pairs(top_k),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "AttributionReport":
        report = cls(
            width=payload["width"],
            height=payload["height"],
            cycles=payload["cycles"],
            source=payload.get("source", "metrics"),
            flits_injected=payload.get("flits_injected", 0),
            flits_delivered=payload.get("flits_delivered", 0),
            packets_delivered=payload.get("packets_delivered", 0),
            link_flits_total=payload.get("link_flits_total", 0),
            expected_link_flits=payload.get("expected_link_flits"),
        )
        for row in payload.get("links", []):
            key = (row["router"], row["port"])
            report.link_flits[key] = row["flits"]
            report.link_busy[key] = row.get("busy_cycles", 0)
        for row in payload.get("pairs", []):
            key = (row["src"], row["dst"])
            report.pair_flits[key] = row["flits"]
            report.pair_packets[key] = row.get("packets", 0)
        for row in payload.get("routers", []):
            report.credit_stalls[row["router"]] = row.get("credit_stalls", 0)
            report.arbitration_conflicts[row["router"]] = row.get(
                "arbitration_conflicts", 0
            )
        return report

    def write_json(self, path, top_k: int = 10) -> pathlib.Path:
        return write_json(path, self.to_json_dict(top_k), indent=1)

    @classmethod
    def read_json(cls, path) -> "AttributionReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def link_rows(self) -> List[dict]:
        """One row per link, sorted by (router, port)."""
        return [
            {
                "router": r,
                "port": p,
                "direction": port_name(p),
                "flits": flits,
                "busy_cycles": self.link_busy.get((r, p), 0),
                "utilization": self.link_utilization((r, p)),
            }
            for (r, p), flits in sorted(self.link_flits.items())
        ]

    def pair_rows(self) -> List[dict]:
        """One row per (src, dst) pair, sorted."""
        return [
            {
                "src": s,
                "dst": d,
                "flits": flits,
                "packets": self.pair_packets.get((s, d), 0),
            }
            for (s, d), flits in sorted(self.pair_flits.items())
        ]

    def write_csv(self, links_path, pairs_path=None) -> None:
        """Write the ``links`` table (and optionally ``pairs``) of
        :meth:`to_json_dict` as CSV; a link's columns name its source
        router and port, and its utilization is printed to six places."""
        write_rows(
            links_path,
            [
                dict(row, src_router=row["router"], src_port=row["port"],
                     utilization=f"{row['utilization']:.6f}")
                for row in self.link_rows()
            ],
            ["src_router", "src_port", "direction", "flits", "busy_cycles",
             "utilization"],
        )
        if pairs_path is not None:
            write_rows(pairs_path, self.pair_rows(),
                       ["src", "dst", "flits", "packets"])


def _mesh_shape(network) -> Tuple[int, int]:
    topology = network.topology
    width = getattr(topology, "width", None)
    height = getattr(topology, "height", None)
    if width is None or height is None:
        # Fall back to a single row for exotic topologies.
        return topology.num_routers, 1
    return width, height


def attribute_metrics(metrics) -> AttributionReport:
    """Whole-run attribution from a :class:`~repro.obs.metrics.KernelMetrics`.

    Conservation is checked: in a drained fault-free run
    ``link_flits_total == expected_link_flits`` exactly.
    """
    network = metrics.network
    width, height = _mesh_shape(network)
    snap = metrics.snapshot()
    report = AttributionReport(
        width=width,
        height=height,
        cycles=metrics.cycles,
        source="metrics",
        link_flits=metrics.link_flits(),
        link_busy=metrics.link_busy(),
        pair_flits=metrics.pair_flits(),
        pair_packets=metrics.pair_packets(),
        flits_injected=snap["flits_injected"],
        flits_delivered=snap["flits_delivered"],
        packets_delivered=snap["packets_delivered"],
        link_flits_total=snap["link_flits_total"],
        expected_link_flits=snap["expected_link_flits"],
    )
    for row in metrics.router_contention():
        report.credit_stalls[row["router"]] = row["credit_stalls"]
        report.arbitration_conflicts[row["router"]] = (
            row["arbitration_conflicts"]
        )
    return report
