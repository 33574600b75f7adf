"""End-to-end retransmission at the network interface.

Under a fault schedule, packets can be lost (purged mid-wormhole by a
link/router kill), arrive corrupted (bit-flip faults), or wedge behind
a stuck VC.  The :class:`RetransmissionManager` is the NI-level
recovery layer the run driver wires in: every packet it sends is
tracked until a *clean* delivery, and

* a **corrupted delivery** is discarded and the packet retransmitted
  immediately;
* a **purge notification** (``Network.report_packet_lost``) triggers a
  retransmission, unless the destination is currently unreachable --
  then the packet waits and the timeout path retries it;
* a **timeout** (no delivery within the window) purges the packet from
  the network -- this is also the recovery path for packets wedged
  behind a stuck VC or a fault-induced routing cycle -- and
  retransmits it with the timeout grown by ``backoff_factor``
  (exponential backoff, so repeated losses of one flow thin out its
  pressure on the faulty region).

After ``max_retries`` failed attempts (or while the destination is
unreachable at retry time with no retries left), the packet is declared
**lost** and counted in :attr:`lost_packets` / :attr:`lost_measured` --
never silently dropped, which is what lets ``run_synthetic`` account
for every measured packet.

Retransmission reuses the *same* :class:`~repro.noc.flit.Packet` object
-- identity, ``packet_id`` and ``created_at`` (so latency measures
creation to final successful delivery, retries included) are preserved
while per-trip routing state is reset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class _Outstanding:
    """Tracking record for one unacknowledged packet."""

    __slots__ = ("packet", "attempts", "deadline", "timeout")

    def __init__(self, packet, deadline: int, timeout: int) -> None:
        self.packet = packet
        self.attempts = 1
        self.deadline = deadline
        self.timeout = timeout


class RetransmissionManager:
    """ACK/timeout/retransmit bookkeeping for every in-flight packet.

    Args:
        network: the (fault-attached) network; the manager installs
            itself as ``network.on_delivery`` consumer via the runner.
        timeout: cycles to wait for a delivery before purging and
            retransmitting.
        max_retries: retransmissions before declaring a packet lost.
        backoff_factor: per-attempt timeout multiplier.
    """

    def __init__(
        self,
        network,
        timeout: int,
        max_retries: int = 8,
        backoff_factor: float = 2.0,
    ) -> None:
        if timeout < 1:
            raise ValueError(f"timeout must be >= 1, got {timeout}")
        self.network = network
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_factor = backoff_factor
        self._outstanding: Dict[int, _Outstanding] = {}
        #: packets ready to re-enter their source queue next tick
        self._retry_queue: List = []
        self.retransmissions = 0
        self.corrupt_deliveries = 0
        self.clean_deliveries = 0
        self.lost_packets = 0
        self.lost_measured = 0
        #: (packet_id, reason, cycle) for every declared-lost packet
        self.losses: List[Tuple[int, str, int]] = []

    # -- send path -------------------------------------------------------------
    def send(self, packet) -> None:
        """Enqueue ``packet`` and start tracking it."""
        self.network.enqueue(packet)
        entry = _Outstanding(
            packet, self.network.cycle + self.timeout, self.timeout
        )
        self._outstanding[packet.packet_id] = entry
        faults = self.network.faults
        if faults is not None:
            topo = self.network.topology
            if not faults.reachable(
                topo.router_of_node(packet.src),
                topo.router_of_node(packet.dst),
            ):
                # Destination currently unreachable (dead source/dest
                # router or a partition): hold the packet at the NI --
                # the timeout path retries it, in case the fault repairs.
                self.network.purge_packet(packet)
                packet.retry_timeout = self.timeout
                packet.retry_attempts = 1

    def outstanding(self) -> int:
        return len(self._outstanding) + len(self._retry_queue)

    def outstanding_measured(self) -> int:
        count = sum(
            1 for e in self._outstanding.values() if e.packet.measured
        )
        return count + sum(1 for p in self._retry_queue if p.measured)

    # -- network callbacks -----------------------------------------------------
    def on_delivery(self, packet, cycle: int) -> None:
        """Fired by the network for every completed packet (its
        ``on_delivery`` callback); corrupted arrivals retransmit."""
        entry = self._outstanding.get(packet.packet_id)
        if entry is None:
            return  # not ours (e.g. enqueued directly around the NI)
        if packet.corrupted:
            self.corrupt_deliveries += 1
            self._retry(entry, cycle, purge=False)
            return
        self.clean_deliveries += 1
        del self._outstanding[packet.packet_id]

    def on_loss(self, packet, reason: str, cycle: int) -> None:
        """Fired by the network when a fault purges ``packet``."""
        entry = self._outstanding.get(packet.packet_id)
        if entry is None:
            return
        self._retry(entry, cycle, purge=False)

    # -- per-cycle drive -------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Check timeouts and replay the retry queue; call every cycle."""
        if self._retry_queue:
            retries, self._retry_queue = self._retry_queue, []
            for packet in retries:
                self._resend(packet, cycle)
        if not self._outstanding:
            return
        expired = [
            entry
            for entry in self._outstanding.values()
            if cycle >= entry.deadline
        ]
        for entry in expired:
            # Timeout doubles as deadlock recovery: purge whatever is
            # left of the packet inside the network before resending.
            self._retry(entry, cycle, purge=True)

    # -- internals -------------------------------------------------------------
    def _retry(self, entry: _Outstanding, cycle: int, purge: bool) -> None:
        packet = entry.packet
        if purge:
            self.network.purge_packet(packet)
        if entry.attempts > self.max_retries:
            self._declare_lost(packet, "retries_exhausted", cycle)
            return
        del self._outstanding[packet.packet_id]
        entry.attempts += 1
        self._reset_for_retransmit(packet)
        # Grow the window before re-queueing (exponential backoff).
        entry.timeout = max(
            entry.timeout + 1, int(entry.timeout * self.backoff_factor)
        )
        packet.retry_timeout = entry.timeout
        packet.retry_attempts = entry.attempts
        self._retry_queue.append(packet)

    def _resend(self, packet, cycle: int) -> None:
        faults = self.network.faults
        src_router = self.network.topology.router_of_node(packet.src)
        dst_router = self.network.topology.router_of_node(packet.dst)
        if faults is not None and not faults.reachable(src_router, dst_router):
            # No alive path right now.  With retries left, park the packet
            # for one more timeout window (the fault may be transient);
            # otherwise it is lost.
            attempts = getattr(packet, "retry_attempts", self.max_retries + 1)
            if attempts > self.max_retries:
                self._declare_lost(packet, "unreachable", cycle)
                return
            entry = _Outstanding(
                packet, cycle + packet.retry_timeout, packet.retry_timeout
            )
            entry.attempts = attempts
            self._outstanding[packet.packet_id] = entry
            return
        entry = _Outstanding(
            packet, cycle + packet.retry_timeout, packet.retry_timeout
        )
        entry.attempts = packet.retry_attempts
        self._outstanding[packet.packet_id] = entry
        self.retransmissions += 1
        self.network.enqueue(packet, retransmit=True)

    @staticmethod
    def _reset_for_retransmit(packet) -> None:
        """Clear per-trip state; keep identity and ``created_at``."""
        packet.injected_at = None
        packet.received_at = None
        packet.hops = 0
        packet.min_lanes = None
        packet.vc_class = 0
        packet.on_escape = False
        packet.corrupted = False

    def _declare_lost(self, packet, reason: str, cycle: int) -> None:
        self._outstanding.pop(packet.packet_id, None)
        self.lost_packets += 1
        if packet.measured:
            self.lost_measured += 1
        self.losses.append((packet.packet_id, reason, cycle))

    def summary(self) -> Dict[str, int]:
        return {
            "clean_deliveries": self.clean_deliveries,
            "corrupt_deliveries": self.corrupt_deliveries,
            "retransmissions": self.retransmissions,
            "lost_packets": self.lost_packets,
            "lost_measured": self.lost_measured,
            "outstanding": self.outstanding(),
        }


def default_timeout(network) -> int:
    """A retransmission timeout derived from the network's scale.

    Generous enough that ordinary congestion never trips it: several
    times the zero-load corner-to-corner latency, floored at 256 cycles.
    """
    topo = network.topology
    stages = network.config.router_pipeline_stages
    hop_cost = (stages - 1) + network.config.link_delay
    # Worst-case minimal hop count across supported topologies is bounded
    # by num_routers; the mesh diameter bound keeps it tight there.
    diameter = getattr(topo, "width", 0) + getattr(topo, "height", 0)
    if diameter == 0:
        diameter = topo.num_routers
    zero_load = hop_cost * (diameter + 2) + stages + 16
    return max(256, 8 * zero_load)
