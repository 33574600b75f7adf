"""The observation event bus: hook points tapped by the simulator core.

The network and routers expose a single optional ``obs`` attribute.  When it
is ``None`` (the default) every tap point collapses to one attribute check,
so an un-observed simulation pays essentially nothing.  When an
:class:`Observer` is attached (``Network.attach_observer``), the core fires
fine-grained callbacks for every interesting micro-event:

========================  =====================================================
hook                      fired when
========================  =====================================================
``on_packet_enqueued``    a packet enters its source queue
``on_flit_injected``      a flit moves source queue -> local input buffer
``on_vc_allocated``       a head flit wins a downstream virtual channel
``on_switch_grant``       a flit wins switch allocation (one per grant)
``on_link_traversal``     a flit departs onto an inter-router link
``on_flit_ejected``       a flit leaves the network at its destination
``on_packet_delivered``   a tail flit ejects; the packet is complete
``on_cycle_end``          the network finished one clock cycle
========================  =====================================================

Each hook has a listener among the product observers
(:class:`~repro.obs.tracer.PacketTracer`,
:class:`~repro.obs.metrics.KernelMetrics`); ``tests/test_obs.py`` keeps
it that way.

Hooks fire regardless of the measurement window; an observer that cares
filters on the ``measuring`` flag itself.  What the network counts on
every kernel anyway -- router activity, per-channel flits and busy
cycles, cycles, clean deliveries -- needs no hook: the time-series
sampler and :class:`~repro.obs.metrics.KernelMetrics` take windows over
:meth:`Network.counters() <repro.noc.network.Network.counters>`.

All callbacks take plain positional arguments -- no per-event object is
allocated -- so an attached observer costs one method call per event.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


class Observer:
    """Base observer: every hook is a no-op.

    Subclass and override only the hooks you care about.  ``flit`` and
    ``packet`` arguments are the live simulator objects; observers must not
    mutate them.
    """

    def on_packet_enqueued(self, packet, cycle: int) -> None:
        """``packet`` was appended to its source queue at ``cycle``."""

    def on_flit_injected(
        self, node: int, router_id: int, port: int, vc: int, flit, cycle: int
    ) -> None:
        """``flit`` moved from node ``node``'s source queue into the local
        input buffer of ``router_id`` (port/vc are the input coordinates)."""

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
        """``packet``'s head flit claimed downstream VC ``out_vc`` of
        ``out_port`` at router ``router_id``."""

    def on_switch_grant(self, router_id: int, grant, cycle: int) -> None:
        """One switch-allocation winner (a :class:`~repro.noc.router.Grant`)
        is about to traverse the crossbar of ``router_id``."""

    def on_link_traversal(
        self,
        src_router: int,
        src_port: int,
        dst_router: int,
        dst_port: int,
        flit,
        cycle: int,
    ) -> None:
        """``flit`` departed ``(src_router, src_port)`` onto the link toward
        ``(dst_router, dst_port)``."""

    def on_flit_ejected(
        self, router_id: int, port: int, flit, cycle: int
    ) -> None:
        """``flit`` was consumed by the ejection port of ``router_id``."""

    def on_packet_delivered(self, packet, cycle: int) -> None:
        """``packet``'s tail flit ejected; timestamps on the packet are
        final (``received_at`` == ``cycle``)."""

    def on_cycle_end(self, cycle: int, measuring: bool) -> None:
        """The network completed ``cycle``; ``measuring`` is the state of
        the measurement window during that cycle."""


class CompositeObserver(Observer):
    """Fans every event out to an ordered list of child observers."""

    def __init__(self, children: Optional[Iterable[Observer]] = None) -> None:
        self.children: List[Observer] = list(children or [])

    def add(self, observer: Observer) -> Observer:
        """Append a child; returns it for chaining."""
        self.children.append(observer)
        return observer

    def on_packet_enqueued(self, packet, cycle: int) -> None:
        for child in self.children:
            child.on_packet_enqueued(packet, cycle)

    def on_flit_injected(
        self, node: int, router_id: int, port: int, vc: int, flit, cycle: int
    ) -> None:
        for child in self.children:
            child.on_flit_injected(node, router_id, port, vc, flit, cycle)

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
        for child in self.children:
            child.on_vc_allocated(
                router_id, in_port, in_vc, out_port, out_vc, packet, cycle
            )

    def on_switch_grant(self, router_id: int, grant, cycle: int) -> None:
        for child in self.children:
            child.on_switch_grant(router_id, grant, cycle)

    def on_link_traversal(
        self,
        src_router: int,
        src_port: int,
        dst_router: int,
        dst_port: int,
        flit,
        cycle: int,
    ) -> None:
        for child in self.children:
            child.on_link_traversal(
                src_router, src_port, dst_router, dst_port, flit, cycle
            )

    def on_flit_ejected(
        self, router_id: int, port: int, flit, cycle: int
    ) -> None:
        for child in self.children:
            child.on_flit_ejected(router_id, port, flit, cycle)

    def on_packet_delivered(self, packet, cycle: int) -> None:
        for child in self.children:
            child.on_packet_delivered(packet, cycle)

    def on_cycle_end(self, cycle: int, measuring: bool) -> None:
        for child in self.children:
            child.on_cycle_end(cycle, measuring)
