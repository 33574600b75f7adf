"""Hop-by-hop packet tracing with JSONL and Chrome trace output.

:class:`PacketTracer` follows every measured packet through every hook the
simulator fires and keeps an ordered event list per packet.  Traces export
two ways:

* **JSONL** (``write_events(path, tracer.iter_events())`` from
  :mod:`repro.obs.replay`): one JSON object per line, each carrying
  ``packet_id``, ``type`` and ``cycle`` plus event-specific fields.  The
  ``delivered`` record per packet summarizes hop count and the latency
  decomposition endpoints, so a trace file is self-contained --
  ``python -m repro.obs.replay trace.jsonl`` summarizes one.
* **Chrome trace_event** (:meth:`PacketTracer.write_chrome_trace`): a JSON
  document loadable in ``chrome://tracing`` / Perfetto, one timeline row
  per packet (``tid`` = packet id, ``ts`` in simulated cycles).
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional

from repro.obs.hooks import Observer


class PacketTracer(Observer):
    """Observer recording the hop-by-hop event stream of every packet
    that is measured when it enters its source queue."""

    def __init__(self) -> None:
        self.traces: Dict[int, List[dict]] = {}
        self.delivered: Dict[int, dict] = {}

    def _events_for(self, packet) -> Optional[List[dict]]:
        return self.traces.get(packet.packet_id)

    # -- hooks --------------------------------------------------------------
    def on_packet_enqueued(self, packet, cycle: int) -> None:
        if not packet.measured:
            return
        events = self.traces.setdefault(packet.packet_id, [])
        events.append(
            {
                "type": "enqueue",
                "cycle": cycle,
                "packet_id": packet.packet_id,
                "src": packet.src,
                "dst": packet.dst,
                "num_flits": packet.num_flits,
                "created_at": packet.created_at,
                "packet_class": packet.packet_class,
                "measured": packet.measured,
            }
        )

    def on_flit_injected(
        self, node: int, router_id: int, port: int, vc: int, flit, cycle: int
    ) -> None:
        events = self._events_for(flit.packet)
        if events is None:
            return
        events.append(
            {
                "type": "inject",
                "cycle": cycle,
                "packet_id": flit.packet.packet_id,
                "flit": flit.index,
                "node": node,
                "router": router_id,
                "port": port,
                "vc": vc,
            }
        )

    def on_vc_allocated(
        self,
        router_id: int,
        in_port: int,
        in_vc: int,
        out_port: int,
        out_vc: int,
        packet,
        cycle: int,
    ) -> None:
        events = self._events_for(packet)
        if events is None:
            return
        events.append(
            {
                "type": "vc_alloc",
                "cycle": cycle,
                "packet_id": packet.packet_id,
                "router": router_id,
                "in_port": in_port,
                "in_vc": in_vc,
                "out_port": out_port,
                "out_vc": out_vc,
            }
        )

    def on_switch_grant(self, router_id: int, grant, cycle: int) -> None:
        packet = grant.flit.packet
        events = self._events_for(packet)
        if events is None:
            return
        events.append(
            {
                "type": "switch",
                "cycle": cycle,
                "packet_id": packet.packet_id,
                "flit": grant.flit.index,
                "router": router_id,
                "in_port": grant.in_port,
                "in_vc": grant.in_vc,
                "out_port": grant.out_port,
                "out_vc": grant.out_vc,
                "merged": grant.merged,
            }
        )

    def on_link_traversal(
        self,
        src_router: int,
        src_port: int,
        dst_router: int,
        dst_port: int,
        flit,
        cycle: int,
    ) -> None:
        events = self._events_for(flit.packet)
        if events is None:
            return
        events.append(
            {
                "type": "link",
                "cycle": cycle,
                "packet_id": flit.packet.packet_id,
                "flit": flit.index,
                "head": flit.is_head,
                "src_router": src_router,
                "src_port": src_port,
                "dst_router": dst_router,
                "dst_port": dst_port,
            }
        )

    def on_flit_ejected(
        self, router_id: int, port: int, flit, cycle: int
    ) -> None:
        events = self._events_for(flit.packet)
        if events is None:
            return
        events.append(
            {
                "type": "eject",
                "cycle": cycle,
                "packet_id": flit.packet.packet_id,
                "flit": flit.index,
                "router": router_id,
                "port": port,
            }
        )

    def on_packet_delivered(self, packet, cycle: int) -> None:
        events = self._events_for(packet)
        if events is None:
            return
        record = {
            "type": "delivered",
            "cycle": cycle,
            "packet_id": packet.packet_id,
            "hops": packet.hops,
            "latency": packet.received_at - packet.created_at,
            "queuing": (
                packet.injected_at - packet.created_at
                if packet.injected_at is not None
                else None
            ),
            "num_flits": packet.num_flits,
        }
        events.append(record)
        self.delivered[packet.packet_id] = record

    # -- queries ------------------------------------------------------------
    def trace(self, packet_id: int) -> List[dict]:
        """The ordered event list of one traced packet."""
        return self.traces.get(packet_id, [])

    def hop_count(self, packet_id: int) -> int:
        """Inter-router hops taken by the head flit (matches
        ``LatencyRecord.hops``)."""
        return sum(
            1
            for event in self.traces.get(packet_id, [])
            if event["type"] == "link" and event["head"]
        )

    def total_latency(self, packet_id: int) -> Optional[int]:
        """Creation-to-ejection cycles (matches ``LatencyRecord.total``);
        ``None`` while the packet is still in flight."""
        record = self.delivered.get(packet_id)
        return None if record is None else record["latency"]

    def iter_events(self):
        """All events of all traced packets, ordered by packet then time."""
        for pid in sorted(self.traces):
            yield from self.traces[pid]

    # -- export -------------------------------------------------------------
    def chrome_trace_events(self) -> List[dict]:
        """The trace in Chrome ``trace_event`` form (see
        :func:`repro.obs.replay.packets_to_chrome`)."""
        # Deferred import: see the note in repro.obs.replay.
        from repro.obs.replay import packets_to_chrome

        return packets_to_chrome(self.iter_events())

    def write_chrome_trace(self, path) -> pathlib.Path:
        """Write a ``chrome://tracing``-loadable JSON document -- the one
        ``python -m repro.obs.replay <jsonl> --chrome`` rebuilds from
        :meth:`iter_events` written by :func:`~repro.obs.replay.write_events`."""
        # Deferred import: see the note in repro.obs.replay.
        from repro.obs.replay import to_chrome, write_json

        return write_json(path, to_chrome(self.iter_events()))
