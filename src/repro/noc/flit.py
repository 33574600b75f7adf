"""Flits and packets.

A packet is the unit of routing (one cache line or one address/control
message); a flit is the unit of link-level flow control.  Wormhole switching
sends the head flit first, which acquires a path of virtual channels, and the
body/tail flits follow on the same virtual channels.

The paper's packet formats (Section 4):

* a data packet is 1024 bits (one cache line) and decomposes into
  ``ceil(1024 / flit_width)`` flits -- 6 flits at the baseline 192-bit flit
  width, 8 flits at the HeteroNoC 128-bit flit width;
* an address packet is a single flit in every configuration.

Timestamps recorded on the packet let :mod:`repro.noc.stats` decompose
end-to-end latency into queuing (waiting at the source before the head flit
enters the router), transfer (the zero-load component: pipeline depth x hops
plus serialization) and blocking (everything else: contention stalls inside
the network).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional

DATA_PACKET_BITS = 1024
"""Payload of a data packet: one 128-byte cache line transfers as 1024 bits
in the paper's flit accounting (Section 4)."""

_packet_ids = itertools.count()
"""Default ids for hand-built ``Packet(...)`` objects that go straight to
a router, routing function or flit helper.  A packet a network carries
gets its id from that network (``Network.make_packet``), so no simulation
result depends on this counter."""


def reset_packet_ids() -> None:
    """Restart the hand-built-packet id default at zero."""
    global _packet_ids
    _packet_ids = itertools.count()


class FlitType(enum.Enum):
    """Position of a flit inside its packet."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    HEAD_TAIL = "head_tail"  # single-flit packet (e.g. an address packet)

    @property
    def is_head(self) -> bool:
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


_flits_per_packet_cache: dict = {}


def flits_per_packet(payload_bits: int, flit_width_bits: int) -> int:
    """Number of flits needed to carry ``payload_bits``.

    Results are memoized per ``(payload, width)`` pair: the simulator asks
    this question once per packet, always with the same handful of sizes,
    so the cache turns a ``ceil`` + validation into one dict probe on the
    packet-creation hot path.

    >>> flits_per_packet(1024, 192)
    6
    >>> flits_per_packet(1024, 128)
    8
    >>> flits_per_packet(64, 192)
    1
    """
    key = (payload_bits, flit_width_bits)
    cached = _flits_per_packet_cache.get(key)
    if cached is not None:
        return cached
    if payload_bits <= 0:
        raise ValueError(f"payload_bits must be positive, got {payload_bits}")
    if flit_width_bits <= 0:
        raise ValueError(
            f"flit_width_bits must be positive, got {flit_width_bits}"
        )
    result = max(1, math.ceil(payload_bits / flit_width_bits))
    _flits_per_packet_cache[key] = result
    return result


@dataclass
class Packet:
    """A routable message.

    Attributes:
        src: source node id.
        dst: destination node id.
        num_flits: packet length in flits.
        created_at: cycle the packet was handed to the source queue.
        packet_id: unique within the carrying network, which issues it
            in creation order; routers tell packets sharing a VC apart
            by it and the NI keys retransmissions on it.
        injected_at: cycle the head flit entered the source router
            (set by the network; ``None`` until injection).
        received_at: cycle the tail flit was ejected at the destination
            (set by the network; ``None`` until delivery).
        packet_class: free-form tag used by higher layers (e.g. ``"request"``
            / ``"response"`` for the CMP model).
        payload: opaque payload carried for higher layers.
    """

    src: int
    dst: int
    num_flits: int
    created_at: int
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    packet_class: str = "data"
    payload: object = None
    injected_at: Optional[int] = None
    received_at: Optional[int] = None
    hops: int = 0
    # Routing state, managed by repro.noc.routing:
    # vc_class: dateline class for torus deadlock avoidance.
    # on_escape: True once the packet has been forced onto the escape
    # virtual channel and must finish its journey via X-Y routing.
    vc_class: int = 0
    on_escape: bool = False
    # Narrowest channel (in lanes) encountered on the path; maintained by
    # the network to compute the analytic zero-load transfer latency.
    min_lanes: Optional[int] = None
    # Whether this packet falls inside the measurement window.
    measured: bool = False

    def __post_init__(self) -> None:
        if self.num_flits < 1:
            raise ValueError(f"num_flits must be >= 1, got {self.num_flits}")
        if self.src < 0 or self.dst < 0:
            raise ValueError(
                f"src/dst must be non-negative, got {self.src}/{self.dst}"
            )

    def make_flits(self) -> List["Flit"]:
        """Decompose the packet into its flit sequence."""
        if self.num_flits == 1:
            return [Flit(packet=self, index=0, flit_type=FlitType.HEAD_TAIL)]
        flits = [Flit(packet=self, index=0, flit_type=FlitType.HEAD)]
        flits.extend(
            Flit(packet=self, index=i, flit_type=FlitType.BODY)
            for i in range(1, self.num_flits - 1)
        )
        flits.append(
            Flit(
                packet=self,
                index=self.num_flits - 1,
                flit_type=FlitType.TAIL,
            )
        )
        return flits

    @property
    def latency(self) -> int:
        """End-to-end latency in cycles (creation to tail ejection)."""
        if self.received_at is None:
            raise ValueError("packet has not been delivered yet")
        return self.received_at - self.created_at

    @property
    def queuing_latency(self) -> int:
        """Cycles the packet waited in the source queue before injection."""
        if self.injected_at is None:
            raise ValueError("packet has not been injected yet")
        return self.injected_at - self.created_at


class Flit:
    """One flow-control unit of a packet.

    A plain ``__slots__`` class rather than a dataclass: flits are the
    highest-volume objects in the simulator, and ``is_head``/``is_tail``
    are consulted on every switch traversal, so both are precomputed as
    plain attributes at construction instead of going through the
    :class:`FlitType` properties per access.
    """

    __slots__ = ("packet", "index", "flit_type", "ready_at",
                 "is_head", "is_tail")

    def __init__(
        self,
        packet: Packet,
        index: int,
        flit_type: FlitType,
        ready_at: int = 0,
    ) -> None:
        self.packet = packet
        self.index = index
        self.flit_type = flit_type
        # Cycle at which the flit becomes eligible for switch allocation in
        # the router currently buffering it (the first pipeline stage).
        self.ready_at = ready_at
        self.is_head = (
            flit_type is FlitType.HEAD or flit_type is FlitType.HEAD_TAIL
        )
        self.is_tail = (
            flit_type is FlitType.TAIL or flit_type is FlitType.HEAD_TAIL
        )

    @property
    def dst(self) -> int:
        return self.packet.dst

    @property
    def src(self) -> int:
        return self.packet.src

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Flit(pkt={self.packet.packet_id}, idx={self.index}, "
            f"{self.flit_type.value}, {self.src}->{self.dst})"
        )
