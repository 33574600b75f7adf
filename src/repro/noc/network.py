"""The assembled network: routers, links, injection and the cycle loop.

A :class:`Network` is built from a topology, a per-router configuration map
(produced by :mod:`repro.core.layouts` for the paper's seven
configurations), a :class:`~repro.noc.config.NetworkConfig` and a routing
discipline.  Higher layers interact with it through three calls:

* :meth:`Network.enqueue` -- hand a packet to its source queue;
* :meth:`Network.step` -- advance one clock cycle (or, given a
  :class:`~repro.noc.ckernel.Span`, a whole span of cycles inside the
  compiled kernel with the open-loop traffic source in the C loop);
* :meth:`Network.stats` -- the :class:`~repro.noc.stats.NetworkStats`
  collector for packets marked ``measured``.

Per-cycle phase order (chosen so that no flit uses a resource in the same
cycle it is produced):

1. deliver link arrivals and credit returns scheduled for this cycle;
2. inject source-queue flits into local input buffers;
3. RC + VC allocation at every router holding flits;
4. switch allocation + traversal; departures are scheduled onto links and
   ejections are consumed;
5. occupancy sampling.

Every counter -- the routers' activities, per-channel link flits and busy
cycles, clean deliveries -- runs from construction on both kernels; the
kernels never ask whether a measurement window is open.  A window is the
difference of two :meth:`Network.counters` snapshots, and
:meth:`Network.begin_measurement` / :meth:`Network.end_measurement` take
the measurement window's two.

The object-model cycle loop is *event-driven*: the network keeps an
**active set** of router ids (routers holding at least one buffered flit)
and of source nodes (nodes with queued or mid-injection packets), and each
cycle walks only those, so per-cycle cost scales with traffic rather than
mesh size.  The active sets are conservative supersets maintained lazily
-- membership is added on every ``write_flit``/``enqueue`` and pruned when
a drained member is next visited -- and they are always iterated in
ascending id order with the same per-element guards as a full scan, which
makes the loop bit-identical to a walk over every router and source with
dynamic route computation.  That full-scan walk is the differential tests'
reference (``tests/full_scan.py``).

The fast path -- the compiled kernel of :mod:`repro.noc.ckernel` -- is
selected with ``NetworkConfig(kernel="c")``, ``REPRO_KERNEL=c`` or
``network.use_kernel("c")``.  It simulates the same microarchitecture
over flat integer arrays and is bit-identical to the event kernel.  The
kernel is chosen once, before the first step: faults, observation hooks,
a watchdog or a dynamic routing discipline given by then need the
per-flit object datapath, so the event kernel carries the run
(:meth:`Network.span_blocker` says why); once the compiled kernel is live
its arena is the whole state of the run, and attaching any of them, or
switching kernels, raises.  When the compiled kernel cannot be built or
does not support the network shape (no C compiler, a router wider than
62 ports or VCs) the event kernel carries the whole run after one
``RuntimeWarning`` naming the reason.

Construction is paid once per :class:`NetworkShape` (memoised by
:func:`network_shape`), and the :class:`~repro.noc.router.Router` objects
are built from it only when something first reads :attr:`Network.routers`
(an object-model step, an observer or fault injector), so a run on the
compiled kernel -- its checkpoints and their restores included -- never
builds them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.noc.config import NetworkConfig, RouterConfig
from repro.noc.flit import Flit, Packet, flits_per_packet
from repro.noc.link import Link, link_width_between
from repro.noc.router import Grant, Router
from repro.noc.routing import Routing, minimal_routing_for
from repro.noc.stats import (
    Counters,
    LatencyRecord,
    NetworkStats,
    RouterActivity,
    decompose_latency,
)
from repro.noc.topology import Topology


def _nonzero_ports(totals: List[List[int]]) -> Dict[Tuple[int, int], int]:
    """``(router, port) -> count`` over per-router port counts, the ports
    that counted anything only."""
    return {
        (rid, port): count
        for rid, row in enumerate(totals)
        for port, count in enumerate(row)
        if count
    }


class _SourceState:
    """Injection-side state of one terminal node."""

    __slots__ = ("queue", "flits", "next_flit", "vc")

    def __init__(self) -> None:
        self.queue: Deque[Packet] = deque()
        self.flits: List[Flit] = []
        self.next_flit = 0
        self.vc: Optional[int] = None

    @property
    def mid_packet(self) -> bool:
        return self.next_flit < len(self.flits)


class NetworkShape:
    """What (topology, router configs, link delay, flit merging) fix for
    every run of a network: the frozen links with their downstream VC
    counts and credit ceilings, the upstream and node maps, the link-lane
    template and the default VA candidates.  Every :class:`Network` of the
    shape shares one instance, read-only; the compiled kernel keeps its
    arena image for the shape in :attr:`arena`."""

    def __init__(
        self,
        topology: Topology,
        configs: Tuple[RouterConfig, ...],
        config: NetworkConfig,
    ) -> None:
        widths = {cfg.flit_width for cfg in configs}
        if len(widths) != 1:
            raise ValueError(
                f"all routers must share one flit width, got {sorted(widths)}"
            )
        self.flit_width = widths.pop()
        self.configs = configs
        self.merging = merging = config.flit_merging
        routers = range(topology.num_routers)
        self.num_ports = [topology.num_ports(rid) for rid in routers]
        self.local_ports = [
            [p for p in range(n) if topology.is_local_port(rid, p)]
            for rid, n in enumerate(self.num_ports)
        ]
        #: lanes usable on injection/ejection at each router's local ports
        self.local_lanes = [cfg.lanes if merging else 1 for cfg in configs]
        self.capacity = [
            cfg.num_vcs * n * cfg.buffer_depth
            for cfg, n in zip(configs, self.num_ports)
        ]
        #: per router and port: the Link (``None`` on local and edge
        #: ports), the downstream VC count and buffer depth, and the
        #: ``(neighbor, its port)`` upstream of a network port.
        self.out_links: List[List[Optional[Link]]] = []
        self.out_vcs: List[List[int]] = []
        self.out_depth: List[List[int]] = []
        self.upstream: List[List[Optional[Tuple[int, int]]]] = []
        self.link_lanes: Dict[Tuple[int, int], int] = {}
        for rid, cfg in enumerate(configs):
            links, vcs, depths, ups = [], [], [], []
            for port in range(self.num_ports[rid]):
                neighbor = (
                    None if topology.is_local_port(rid, port)
                    else topology.neighbor(rid, port)
                )
                link = None
                if neighbor is not None:
                    other_cfg = configs[neighbor[0]]
                    link = Link(
                        src_router=rid,
                        src_port=port,
                        dst_router=neighbor[0],
                        dst_port=neighbor[1],
                        width_bits=link_width_between(cfg, other_cfg),
                        flit_width_bits=self.flit_width,
                        delay=config.link_delay,
                    )
                    self.link_lanes[(rid, port)] = link.lanes
                links.append(link)
                vcs.append(0 if link is None else other_cfg.num_vcs)
                depths.append(0 if link is None else other_cfg.buffer_depth)
                ups.append(neighbor)
            self.out_links.append(links)
            self.out_vcs.append(vcs)
            self.out_depth.append(depths)
            self.upstream.append(ups)
        self.max_link_delay = config.link_delay if self.link_lanes else 0
        self.node_router_id = [
            topology.router_of_node(node) for node in range(topology.num_nodes)
        ]
        self.node_port = [
            topology.local_port_of_node(node)
            for node in range(topology.num_nodes)
        ]
        self.node_lanes = [self.local_lanes[rid] for rid in self.node_router_id]
        #: VA candidates per router and output port when the routing
        #: keeps the default (every downstream VC, in order)
        self.va_tables = [
            [tuple((port, vc, False) for vc in range(n))
             for port, n in enumerate(vcs)]
            for vcs in self.out_vcs
        ]
        #: ``(route tables, bytes)``: the compiled kernel's arena image for
        #: this shape under those tables (see ``CKernel._fill_static``).
        self.arena: Optional[Tuple[object, bytes]] = None


#: how many shapes :func:`network_shape` keeps: the least recently used
#: goes first, so a server or a placement search that sees many custom
#: layouts holds at most this many.
SHAPE_MEMO_SIZE = 8
_SHAPES: "OrderedDict[tuple, NetworkShape]" = OrderedDict()
_SHAPES_LOCK = threading.Lock()


def network_shape(
    topology: Topology,
    router_configs: Dict[int, RouterConfig],
    config: NetworkConfig,
) -> NetworkShape:
    """The :class:`NetworkShape` of a network, built once per process.

    A topology is known by its class and attributes, so two ``Mesh(8)``
    share a shape.  Construction errors (mixed flit widths, a link
    narrower than the flit) raise here, on the first build of a shape.
    """
    configs = tuple(router_configs[rid] for rid in range(topology.num_routers))
    key = (
        type(topology), tuple(sorted(vars(topology).items())), configs,
        config.link_delay, config.flit_merging,
    )
    with _SHAPES_LOCK:
        shape = _SHAPES.get(key)
        if shape is not None:
            _SHAPES.move_to_end(key)
            return shape
    shape = NetworkShape(topology, configs, config)
    with _SHAPES_LOCK:
        # Threads that built the same shape at once keep one.
        shape = _SHAPES.setdefault(key, shape)
        _SHAPES.move_to_end(key)
        while len(_SHAPES) > SHAPE_MEMO_SIZE:
            _SHAPES.popitem(last=False)
    return shape


class Network:
    """A simulated on-chip network instance."""

    def __init__(
        self,
        topology: Topology,
        router_configs: Dict[int, RouterConfig],
        network_config: Optional[NetworkConfig] = None,
        routing: Optional[Routing] = None,
    ) -> None:
        if set(router_configs) != set(range(topology.num_routers)):
            raise ValueError(
                "router_configs must map every router id exactly once"
            )
        self.topology = topology
        self.router_configs = dict(router_configs)
        self.config = network_config or NetworkConfig()
        # Set the backing attribute directly: the ``routing`` property
        # setter reinstalls routing tables, which needs the rest of the
        # network to exist.
        self._routing = routing or minimal_routing_for(topology)
        shape = self._shape = network_shape(
            topology, self.router_configs, self.config
        )
        self.flit_width = shape.flit_width
        #: the live counter totals (see :meth:`counters`), owned here from
        #: construction so that windows, stats and the compiled kernel's
        #: flushes never need a :class:`Router`: the routers' activities,
        #: flits and busy cycles per output port, clean deliveries.
        self._activities = [
            RouterActivity(buffer_capacity_flits=capacity)
            for capacity in shape.capacity
        ]
        self._link_flits = [[0] * ports for ports in shape.num_ports]
        self._link_busy = [[0] * ports for ports in shape.num_ports]
        self._clean_packets = 0
        self._clean_flits = 0
        #: the counters :meth:`begin_measurement` took, if it has run.
        self._window_start: Optional[Counters] = None
        #: the object model; :attr:`routers` builds it on first access.
        self._routers: Optional[List[Router]] = None

        self.sources = [_SourceState() for _ in range(topology.num_nodes)]
        self.cycle = 0
        self._arrivals: Dict[int, List[Tuple[int, int, int, Flit]]] = {}
        # credit events: (router, port, vc, release_vc_too)
        self._credits: Dict[int, List[Tuple[int, int, int, bool]]] = {}
        self._stats = self._fresh_stats()
        #: whether the measurement window is open (packets made now are
        #: measured by closed-loop drivers); no kernel reads it.
        self.measuring = False
        self.packets_in_flight = 0
        #: id of the next packet this network creates (:meth:`make_packet`,
        #: or the compiled kernel for a packet born inside a span).
        self.next_packet_id = 0
        #: optional callback fired on every delivered packet
        self.on_delivery: Optional[Callable[[Packet, int], None]] = None
        #: optional observation hooks (see :mod:`repro.obs.hooks`); ``None``
        #: keeps every tap point on its single-attribute-check fast path.
        self.obs = None
        #: optional :class:`repro.faults.injector.FaultInjector`; ``None``
        #: (the default) keeps every fault tap on a single attribute check,
        #: so a fault-free build is byte-identical to one without the
        #: subsystem (same discipline as ``obs``).
        self.faults = None
        #: optional :class:`repro.faults.watchdog.Watchdog` sampled at the
        #: end of every cycle.
        self.watchdog = None
        #: lifetime count of completed packets (clean or corrupted);
        #: monotone progress signal for the watchdog's livelock check.
        self.total_delivered = 0
        #: optional callback fired when a fault purges a packet
        #: (``on_loss(packet, reason, cycle)``) -- the NI retransmission
        #: layer subscribes here.
        self.on_loss: Optional[Callable[[Packet, str, int], None]] = None
        #: mirror of ``obs is not None`` checked once per phase on the hot
        #: path (the null-object fast path: a run without an observer makes
        #: zero hook calls and zero per-event attribute probes).
        self._tracing = False
        # -- kernel selection --------------------------------------------
        kernel = self.config.kernel_in_force()
        #: the requested kernel name (see :attr:`kernel`); a ``"c"``
        #: request is settled before the first step.
        self._kernel = kernel
        #: the live :class:`repro.noc.ckernel.CKernel`, or ``None`` when
        #: the event kernel is driving; once live it holds the
        #: run's whole state until the network is dropped.
        self._ck = None
        #: why the last compiled-kernel activation failed (``None``: it
        #: has not), so the (warned) event fallback does not retry the
        #: build and :meth:`span_blocker` can name the cause.
        self._ck_blocked: Optional[str] = None
        #: whether precomputed route tables *and* default-VA tables are
        #: installed (the compiled kernel's routing precondition).
        self._route_tables_ok = False
        #: the routing's precomputed route tables (``None``: dynamic RC).
        self._route_tables = None

        # -- hot-path lookups, shared with every network of the shape --
        self._upstream = shape.upstream
        self._node_router_id = shape.node_router_id
        self._node_port = shape.node_port
        self._node_lanes = shape.node_lanes
        self._credit_delay = self.config.credit_delay
        self._merging = self.config.flit_merging
        self._default_packet_flits = flits_per_packet(
            self.config.data_packet_bits, self.flit_width
        )

        # -- active sets (the event-driven kernel's work lists) --
        #: routers that may hold buffered flits; conservative superset,
        #: pruned lazily when a drained router is visited.
        self._active_routers: set = set()
        #: source nodes that may have queued or mid-injection packets.
        self._active_sources: set = set()

        self._install_routing_tables()

    def __getstate__(self) -> dict:
        # The shape is the process's memo entry: a restored network
        # fetches (or rebuilds) its own instead of pickling a copy.  A
        # live compiled kernel pickles as its arena image.
        state = self.__dict__.copy()
        del state["_shape"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._shape = network_shape(
            self.topology, self.router_configs, self.config
        )
        if self._ck is not None:
            self._ck.reopen(self)

    # -- construction ---------------------------------------------------------
    @property
    def routers(self) -> List[Router]:
        """The :class:`Router` object model, built from the shape on first
        access (a span-driven run on the compiled kernel never reads it)."""
        routers = self._routers
        if routers is None:
            shape = self._shape
            routers = []
            for rid, activity in enumerate(self._activities):
                router = Router(
                    rid, self.router_configs[rid], shape.num_ports[rid],
                    shape.local_ports[rid], self.config, activity,
                )
                for port, link in enumerate(shape.out_links[rid]):
                    router.attach_output(
                        port, link, shape.out_vcs[rid][port],
                        shape.out_depth[rid][port],
                    )
                router.obs = self.obs
                router.faults = self.faults
                routers.append(router)
            self._routers = routers
            self._set_router_tables()
        return routers

    def _install_routing_tables(self) -> None:
        """(Re)compute the precomputed RC/VA tables and install them on
        the routers, if built.

        Tables are only valid when the routing discipline is a pure
        function of (router, destination) *and* no fault injector can
        reroute around dead channels mid-run; otherwise every router falls
        back to dynamic per-packet lookups.
        """
        tables = None
        if self.faults is None:
            tables = self._routing.build_route_tables()
        self._route_tables = tables
        self._route_tables_ok = (
            tables is not None and self._routing.uses_default_va()
        )
        if self._routers is not None:
            self._set_router_tables()

    def _set_router_tables(self) -> None:
        tables = self._route_tables
        va_tables = self._shape.va_tables if self._route_tables_ok else None
        for rid, router in enumerate(self._routers):
            router.set_routing_tables(
                None if tables is None else tables[rid],
                None if va_tables is None else va_tables[rid],
            )

    # -- public API -------------------------------------------------------------
    @property
    def stats(self) -> NetworkStats:
        return self._stats

    @property
    def routing(self) -> Routing:
        return self._routing

    @routing.setter
    def routing(self, routing: Routing) -> None:
        self._refuse_under_ck("setting routing")
        self._routing = routing
        self._install_routing_tables()

    @property
    def kernel(self) -> str:
        """The selected cycle kernel: ``"event"`` or ``"c"``.

        Note this is the *requested* kernel; a requested ``"c"`` runs on
        the event kernel when faults, observation hooks, a watchdog or
        dynamic routing were attached before the first step, or when the
        compiled kernel is unavailable (see :attr:`active_kernel` and
        :meth:`span_blocker`).
        """
        return self._kernel

    def use_kernel(self, name: str) -> None:
        """Choose the cycle kernel before the first step.  Once a kernel
        has stepped (or the compiled kernel is live), any name other
        than :attr:`active_kernel` raises ``RuntimeError``."""
        NetworkConfig.check_kernel(name)
        running = self.active_kernel
        if name != running and (self.cycle or self._ck is not None):
            self._refuse_under_ck("use_kernel()")
            raise RuntimeError(
                f"use_kernel({name!r}) after the {running} kernel has "
                "stepped: the kernel is chosen before the first step"
            )
        self._kernel = name
        # An explicit re-request gets a fresh activation attempt (e.g. a
        # compiler appeared on PATH since the last failure).
        self._ck_blocked = None

    @property
    def active_kernel(self) -> str:
        """The kernel *actually driving* the cycle right now.

        Unlike :attr:`kernel` (the request), this reflects the fallback
        ladder: ``"c"`` once the compiled kernel is live (from the first
        step, or the first :meth:`span_blocker` call, on), otherwise
        ``"event"``.
        """
        return "event" if self._ck is None else "c"

    def _activate_ck(self):
        """Try to bring up the compiled kernel; on failure warn (once per
        reason), remember the reason and return ``None`` (the caller then
        steps the event kernel)."""
        from repro.noc.ckernel import (
            CKernel,
            CKernelUnavailable,
            warn_unavailable,
        )

        try:
            kernel = CKernel(self)
        except CKernelUnavailable as exc:
            self._ck_blocked = str(exc)
            warn_unavailable(self._ck_blocked)
            return None
        self._ck = kernel
        return kernel

    def _start_c(self) -> Optional[str]:
        """Settle a ``"c"`` request: bring the compiled kernel up unless
        the network has stepped or something given before the first step
        needs the object model; returns why the event kernel carries the
        run instead, or ``None`` with the kernel live."""
        if self._ck is not None:
            return None
        for attached, what in (
            (self.faults, "a fault injector"),
            (self.obs, "an observer"),
            (self.watchdog, "a watchdog"),
        ):
            if attached is not None:
                return f"{what} is attached"
        if not self._route_tables_ok:
            return "routing is dynamic (no precomputed route tables)"
        if not self._ck_blocked and not self.cycle:
            self._activate_ck()
        if self._ck is not None:
            return None
        if self._ck_blocked:
            return f"the compiled kernel is unavailable ({self._ck_blocked})"
        return "the event kernel has carried this run since its first step"

    def _refuse_under_ck(self, call: str) -> None:
        """A live compiled kernel holds the run's whole state in its
        arena, which is never handed to the object model."""
        if self._ck is not None:
            raise RuntimeError(
                f"{call} while the c kernel is live: the kernel is chosen "
                "before the first step, so attach or switch before it"
            )

    def reclaim_span_source(self) -> None:
        """Hand the traffic source the spans borrowed back to its Python
        objects (see :class:`~repro.noc.ckernel.SpanSource`): the run's
        ``random.Random``, the injector's streams and ON/OFF machines.

        No-op unless the compiled kernel holds a lent source; callers
        that drove :meth:`step` with spans call this before they read or
        draw from those objects again or go back to stepping per cycle
        (bare :meth:`step` and :meth:`enqueue` raise while a source is
        lent).
        """
        if self._ck is not None:
            self._ck.hand_back()

    def attach_observer(self, observer) -> None:
        """Attach observation hooks (an :class:`repro.obs.hooks.Observer`)
        to the network and all its routers."""
        self._refuse_under_ck("attach_observer()")
        self.obs = observer
        self._tracing = observer is not None
        for router in self.routers:
            router.obs = observer

    def detach_observer(self) -> None:
        """Remove the observation hooks; tap points revert to no-ops."""
        self.obs = None
        self._tracing = False
        for router in self._routers or ():
            router.obs = None

    def attach_faults(self, injector) -> None:
        """Attach a fault injector to the network and all its routers.

        Precomputed routing tables are cleared: under faults, route
        computation must stay dynamic so rerouting around dead channels
        can take effect.
        """
        self._refuse_under_ck("attach_faults()")
        self.faults = injector
        for router in self.routers:
            router.faults = injector
        self._install_routing_tables()

    def detach_faults(self) -> None:
        """Remove the fault injector; fault taps revert to no-ops."""
        self.faults = None
        for router in self._routers or ():
            router.faults = None
        self._install_routing_tables()

    def attach_watchdog(self, watchdog) -> None:
        """Attach a deadlock/livelock watchdog (read-only: cannot change
        simulation results)."""
        self._refuse_under_ck("attach_watchdog()")
        self.watchdog = watchdog

    def detach_watchdog(self) -> None:
        self.watchdog = None

    def sync_stats(self) -> None:
        """Bring the compiled kernel's activity and link counters onto the
        network's totals so they can be read mid-run; a no-op on the
        event kernel, which counts there."""
        if self._ck is not None:
            self._ck.flush_activity()

    def counters(self) -> Counters:
        """A copy of every always-on counter as it stands now; a window is
        the :meth:`~repro.noc.stats.Counters.since` of two of them."""
        self.sync_stats()
        return Counters(
            self.cycle,
            [activity.snapshot() for activity in self._activities],
            _nonzero_ports(self._link_flits),
            _nonzero_ports(self._link_busy),
            self._clean_packets,
            self._clean_flits,
        )

    def begin_measurement(self) -> None:
        """Open the measurement window: record its opening cycle and
        counters."""
        self._window_start = self.counters()
        self._stats.start_cycle = self.cycle
        self.measuring = True

    def end_measurement(self) -> None:
        """Close the window and freeze its counters into :attr:`stats`:
        the cycles, activity deltas, the channels that moved and the
        clean deliveries since :meth:`begin_measurement`."""
        self.measuring = False
        if self._window_start is None:
            raise RuntimeError("end_measurement() without begin_measurement()")
        window = self.counters().since(self._window_start)
        stats = self._stats
        stats.end_cycle = self.cycle
        stats.measured_cycles = window.cycle
        stats.router_activity = window.activities
        stats.link_flits = window.link_flits
        stats.link_busy_cycles = window.link_busy
        stats.window_packet_deliveries = window.packets
        stats.window_flit_deliveries = window.flits

    def reset_stats(self) -> None:
        """Start a fresh record: new latency records and no measurement
        window; the counters run on."""
        self._stats = self._fresh_stats()
        self._window_start = None

    def _fresh_stats(self) -> NetworkStats:
        stats = NetworkStats(self.topology.num_routers, self.topology.num_nodes)
        stats.link_lanes.update(self._shape.link_lanes)
        # Until a window closes, the activities read live.
        stats.router_activity = list(self._activities)
        return stats

    def make_packet(
        self,
        src: int,
        dst: int,
        payload_bits: Optional[int] = None,
        packet_class: str = "data",
        payload: object = None,
    ) -> Packet:
        """Build a packet sized for this network's flit width."""
        if payload_bits is None:
            num_flits = self._default_packet_flits
        else:
            num_flits = flits_per_packet(payload_bits, self.flit_width)
        packet_id = self.next_packet_id
        self.next_packet_id = packet_id + 1
        return Packet(
            src=src,
            dst=dst,
            num_flits=num_flits,
            created_at=self.cycle,
            packet_id=packet_id,
            packet_class=packet_class,
            payload=payload,
        )

    def enqueue(self, packet: Packet, retransmit: bool = False) -> None:
        """Queue ``packet`` at its source node (source queues are
        unbounded).

        ``retransmit`` re-queues a previously offered packet (the NI
        recovery path) without double-counting it in ``packets_offered``.
        """
        if packet.measured and not retransmit:
            self._stats.packets_offered += 1
        ck = self._ck
        if ck is not None:
            # The compiled kernel owns the source queues while live.
            ck.enqueue_packet(packet)
        else:
            self.sources[packet.src].queue.append(packet)
            self._active_sources.add(packet.src)
        self.packets_in_flight += 1
        if self.obs is not None:
            self.obs.on_packet_enqueued(packet, self.cycle)

    def idle(self) -> bool:
        """True when no packet is queued, buffered or on a link."""
        return self.packets_in_flight == 0

    def span_blocker(self) -> Optional[str]:
        """Why :meth:`step` cannot take a span here, or ``None``.

        Spans run cycles and traffic source inside the compiled kernel
        without returning to Python, so anything that must see each
        cycle, packet or delivery keeps the run on the per-cycle loop.
        On a network that asks for ``"c"`` and has not stepped, this
        settles the kernel as the first step would.
        """
        if self._kernel != "c":
            return f"the {self._kernel} kernel drives this network"
        blocker = self._start_c()
        if blocker is None and self.on_delivery is not None:
            blocker = "an on_delivery callback is attached"
        if blocker is None:
            from repro.noc.ckernel import spans_disabled_reason

            blocker = spans_disabled_reason()
        return blocker

    def step(self, span=None) -> Optional[Tuple[int, int]]:
        """Advance the network by one clock cycle (event-driven kernel).

        Only routers in the active set are visited; the set is pruned of
        drained routers as they are encountered and iterated in ascending
        router-id order, which keeps arbitration state evolution -- and
        therefore every simulation result -- bit-identical to a full scan
        of every router and source.

        With a :class:`~repro.noc.ckernel.Span` the compiled kernel
        advances the whole span and ``(cycles run, packets created)``
        comes back; callers check :meth:`span_blocker` first.  The span's
        ``open_window`` runs, inside it, where the first measured packet
        is born; the span returns with every cycle it ran whole.
        """
        if span is not None:
            blocker = self.span_blocker()
            if blocker is not None:
                raise RuntimeError(f"cannot step a span: {blocker}")
            return self._ck.run(span)
        ck = self._ck
        if (ck is None and self._kernel == "c" and not self.cycle
                and self._start_c() is None):
            ck = self._ck
        if ck is not None:
            ck.step()
            return
        cycle = self.cycle
        routers = self.routers
        if self.faults is not None:
            self.faults.tick(self, cycle)
        arrivals = self._arrivals.pop(cycle, None)
        if arrivals:
            self._deliver_arrival_events(arrivals, cycle)
        credits = self._credits.pop(cycle, None)
        if credits:
            self._deliver_credit_events(credits)
        if self._active_sources:
            self._inject(cycle)
        active = self._active_routers
        live: List[Router] = []
        if active:
            routing = self._routing
            for rid in sorted(active):
                router = routers[rid]
                if router.occupied_flits:
                    live.append(router)
                    router.allocate_vcs(routing, cycle)
                else:
                    active.discard(rid)
            for router in live:
                grants = router.allocate_switch(cycle)
                if grants:
                    self._transport(router, grants, cycle)
        # Inactive routers hold zero flits and would add zero to their
        # occupancy integral; sampling only the live ones is exact.
        for router in live:
            router.activity.occupancy_integral += router.occupied_flits
        if self._tracing:
            self.obs.on_cycle_end(cycle, self.measuring)
        if self.watchdog is not None:
            self.watchdog.check(self, cycle)
        self.cycle = cycle + 1

    def run_cycles(self, n: int) -> None:
        for _ in range(n):
            self.step()

    def drain(self, max_cycles: int = 1_000_000) -> None:
        """Run until every queued packet has been delivered."""
        deadline = self.cycle + max_cycles
        while not self.idle():
            if self.cycle >= deadline:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({self.packets_in_flight} packets stuck) -- possible "
                    "deadlock or overload"
                )
            self.step()
        # Flush in-flight credit returns so the network is fully quiesced.
        while self._credits or self._arrivals or (
            self._ck is not None and self._ck.pending_events()
        ):
            self.step()

    # -- cycle phases -------------------------------------------------------------
    def _deliver_arrival_events(
        self, events: List[Tuple[int, int, int, Flit]], cycle: int
    ) -> None:
        routers = self.routers
        wake = self._active_routers.add
        faults = self.faults
        if faults is None:
            for router_id, port, vc, flit in events:
                routers[router_id].write_flit(port, vc, flit, cycle)
                wake(router_id)
            return
        dead_routers = faults.dead_routers
        dead_ports = faults.dead_ports
        for router_id, port, vc, flit in events:
            if router_id in dead_routers or (router_id, port) in dead_ports:
                # The channel died under the flit mid-flight (its packet
                # was purged by the injector when the fault applied).
                continue
            routers[router_id].write_flit(port, vc, flit, cycle)
            wake(router_id)

    def _deliver_credit_events(
        self, events: List[Tuple[int, int, int, bool]]
    ) -> None:
        # No router wake-up needed here: credits and VC releases only
        # change the eligibility of flits the receiving router already
        # buffers, and a router holding flits is active by invariant.
        routers = self.routers
        for router_id, port, vc, release in events:
            router = routers[router_id]
            router.return_credit(port, vc)
            if release:
                router.out_vc_owner[port][vc] = None

    def _inject(self, cycle: int) -> None:
        """Inject source-queue flits into local input buffers.

        Only active sources are visited (in ascending node order, matching
        a full scan) and drained ones are pruned.
        """
        active_sources = self._active_sources
        sources = self.sources
        obs = self.obs if self._tracing else None
        faults = self.faults
        routers = self.routers
        node_router_id = self._node_router_id
        node_port = self._node_port
        node_lanes = self._node_lanes
        wake = self._active_routers.add
        for node in sorted(active_sources):
            source = sources[node]
            # ``mid_packet`` inlined (next_flit < len(flits)) on this path.
            if source.next_flit >= len(source.flits) and not source.queue:
                active_sources.discard(node)
                continue
            rid = node_router_id[node]
            if faults is not None and rid in faults.dead_routers:
                continue  # the node fell off the network with its router
            router = routers[rid]
            port = node_port[node]
            lanes = node_lanes[node]
            budget = lanes
            while budget > 0:
                if source.next_flit >= len(source.flits):
                    if not source.queue:
                        break
                    vc = self._pick_injection_vc(router, port)
                    if vc is None:
                        break
                    packet = source.queue.popleft()
                    source.flits = packet.make_flits()
                    source.next_flit = 0
                    source.vc = vc
                    packet.injected_at = cycle
                    packet.min_lanes = lanes
                if router.free_slots(port, source.vc) == 0:
                    break
                flit = source.flits[source.next_flit]
                router.write_flit(port, source.vc, flit, cycle)
                wake(rid)
                source.next_flit += 1
                budget -= 1
                if obs is not None:
                    obs.on_flit_injected(
                        node, rid, port, source.vc, flit, cycle
                    )
                if source.next_flit >= len(source.flits):
                    source.flits = []
                    source.next_flit = 0
                    source.vc = None

    def _pick_injection_vc(self, router: Router, port: int) -> Optional[int]:
        """Pick a local input VC for a new packet.

        The network interface is allowed to stream packets back-to-back
        into a VC FIFO (an idealized NI with per-packet segmentation), so
        a busy VC with free slots is acceptable; an idle VC is preferred.
        Inter-router VC reallocation stays conservative -- only the
        injection path is relaxed, else low-VC routers starve their own
        sources.
        """
        fallback, fallback_free = None, 0
        faults = self.faults
        for vc in range(router.config.num_vcs):
            if (
                faults is not None
                and (router.router_id, port, vc) in faults.stuck_vcs
            ):
                continue  # do not feed a stuck VC
            free = router.free_slots(port, vc)
            if free == 0:
                continue
            if router.input_vc_free(port, vc):
                return vc
            if free > fallback_free:
                fallback, fallback_free = vc, free
        return fallback

    def _transport(
        self, router: Router, grants: List[Grant], cycle: int
    ) -> None:
        rid = router.router_id
        obs = self.obs if self._tracing else None
        faults = self.faults
        merging = self._merging
        is_ejection = router.is_ejection
        out_links = router.out_links
        upstream_ports = self._upstream[rid]
        arrivals = self._arrivals
        credits = self._credits
        credit_when = cycle + self._credit_delay
        link_flits = self._link_flits[rid]
        used_ports = set()
        for grant in grants:
            router.commit_grant(grant)
            if obs is not None:
                obs.on_switch_grant(rid, grant, cycle)
            flit = grant.flit
            packet = flit.packet
            out_port = grant.out_port
            if is_ejection[out_port]:
                if flit.is_head and packet.min_lanes is not None:
                    eject_lanes = router._local_lanes
                    if eject_lanes < packet.min_lanes:
                        packet.min_lanes = eject_lanes
                if obs is not None:
                    obs.on_flit_ejected(rid, out_port, flit, cycle)
                if flit.is_tail:
                    self._complete_packet(packet, cycle)
            else:
                link = out_links[out_port]
                if flit.is_head:
                    packet.hops += 1
                    if packet.min_lanes is not None:
                        lanes = link.lanes if merging else 1
                        if (
                            faults is not None
                            and (rid, out_port) in faults.degraded_ports
                        ):
                            lanes = 1
                        if lanes < packet.min_lanes:
                            packet.min_lanes = lanes
                if (
                    faults is not None
                    and (rid, out_port) in faults.flaky_ports
                ):
                    packet.corrupted = True  # bit-flip fault on this channel
                when = cycle + link.delay
                bucket = arrivals.get(when)
                if bucket is None:
                    bucket = arrivals[when] = []
                bucket.append(
                    (link.dst_router, link.dst_port, grant.out_vc, flit)
                )
                if obs is not None:
                    obs.on_link_traversal(
                        rid, out_port, link.dst_router, link.dst_port,
                        flit, cycle,
                    )
                used_ports.add(out_port)
                link_flits[out_port] += 1
            # Credit for the freed input slot returns to the upstream router
            # (injection from the local node needs none: the source reads
            # buffer occupancy directly).
            if not is_ejection[grant.in_port]:
                upstream = upstream_ports[grant.in_port]
                if upstream is not None:
                    bucket = credits.get(credit_when)
                    if bucket is None:
                        bucket = credits[credit_when] = []
                    # A tail pop also releases the VC for a new packet
                    # (conservative VC reallocation).
                    bucket.append(
                        (upstream[0], upstream[1], grant.in_vc, flit.is_tail)
                    )
        if used_ports:
            link_busy = self._link_busy[rid]
            for port in used_ports:
                link_busy[port] += 1

    def _complete_packet(self, packet: Packet, cycle: int) -> None:
        packet.received_at = cycle
        self.packets_in_flight -= 1
        self.total_delivered += 1
        if packet.corrupted:
            # A bit-flip fault mangled this packet in transit: the
            # destination NI discards it, so it contributes to no stats;
            # the ``on_delivery`` callback still fires so the NI can
            # schedule its retransmission.
            if self.on_delivery is not None:
                self.on_delivery(packet, cycle)
            return
        self._clean_packets += 1
        self._clean_flits += packet.num_flits
        if packet.measured:
            self._stats.record_packet(self._latency_record(packet))
        if self.obs is not None:
            self.obs.on_packet_delivered(packet, cycle)
        if self.on_delivery is not None:
            self.on_delivery(packet, cycle)

    def _latency_record(self, packet: Packet) -> LatencyRecord:
        return LatencyRecord(
            packet.packet_id, packet.src, packet.dst, packet.num_flits,
            packet.hops,
            *decompose_latency(
                packet.packet_id, packet.num_flits, packet.hops,
                packet.created_at, packet.injected_at, packet.min_lanes,
                packet.received_at, self.config.router_pipeline_stages,
                self.config.link_delay,
            ),
            packet.packet_class,
        )

    # -- fault recovery ------------------------------------------------------------
    def _element_alive(self, router_id: int, port: int) -> bool:
        faults = self.faults
        if faults is None:
            return True
        return (
            router_id not in faults.dead_routers
            and (router_id, port) not in faults.dead_ports
        )

    def purge_packet(self, packet: Packet) -> bool:
        """Remove every trace of ``packet`` from the network.

        Flits are deleted from source queues, router buffers and
        in-flight link events; credits the packet consumed are restored
        directly at every *live* upstream router (dead elements are
        reconciled by the fault exemption in the invariant checker) and
        its downstream VC claims are released.  Used by the fault
        injector for packets damaged by a kill, and by the NI
        retransmission timeout as recovery from wedged wormholes.

        Returns ``True`` when any trace was found (and one in-flight
        packet was therefore retired); a second purge of the same packet
        is a no-op.
        """
        self._refuse_under_ck("purge_packet()")
        pid = packet.packet_id
        topo = self.topology
        found = False

        source = self.sources[packet.src]
        if packet in source.queue:
            source.queue.remove(packet)
            found = True
        if source.flits and source.flits[0].packet is packet:
            source.flits = []
            source.next_flit = 0
            source.vc = None
            found = True

        for router in self.routers:
            rid = router.router_id
            for (port, vc) in list(router._active):
                state = router._vc_states[port][vc]
                before = len(state.queue)
                if any(f.packet is packet for f in state.queue):
                    kept = [f for f in state.queue if f.packet is not packet]
                    state.queue.clear()
                    state.queue.extend(kept)
                removed = before - len(state.queue)
                if removed:
                    found = True
                    router.occupied_flits -= removed
                    if not state.queue and router._active.pop(
                        (port, vc), None
                    ):
                        router._port_active[port] -= 1
                    if not topo.is_local_port(rid, port):
                        upstream = topo.neighbor(rid, port)
                        if upstream is not None and self._element_alive(
                            *upstream
                        ):
                            up_router, up_port = upstream
                            for _ in range(removed):
                                self.routers[up_router].return_credit(
                                    up_port, vc
                                )
            # Reset *every* VC state the packet owns, not just the active
            # (non-empty) ones scanned above: a mid-wormhole input VC whose
            # flits have all been forwarded sits empty but still carries
            # the packet's id, route and downstream claim.  Retransmission
            # reuses packet ids, so a stale state would make the resent
            # packet skip RC/VA and stream onto a VC it no longer owns.
            for port in range(router.num_ports):
                for vc in range(router.config.num_vcs):
                    if router._vc_states[port][vc].packet_id == pid:
                        router._vc_states[port][vc].reset_packet()
                        found = True

        for when in list(self._arrivals):
            events = self._arrivals[when]
            kept_events = []
            for event in events:
                router_id, port, vc, flit = event
                if flit.packet is not packet:
                    kept_events.append(event)
                    continue
                found = True
                upstream = topo.neighbor(router_id, port)
                if upstream is not None and self._element_alive(*upstream):
                    self.routers[upstream[0]].return_credit(upstream[1], vc)
            if kept_events:
                self._arrivals[when] = kept_events
            else:
                del self._arrivals[when]

        # Release the packet's downstream VC claims, and defuse any
        # in-flight release events aimed at those claims so they cannot
        # free a VC a *new* packet wins in the meantime.
        released = set()
        for router in self.routers:
            for port in range(router.num_ports):
                owners = router.out_vc_owner[port]
                for vc, owner in enumerate(owners):
                    if owner == pid:
                        owners[vc] = None
                        released.add((router.router_id, port, vc))
        if released:
            for when, events in self._credits.items():
                self._credits[when] = [
                    (rid, port, vc, release and (rid, port, vc) not in released)
                    for rid, port, vc, release in events
                ]

        if found:
            self.packets_in_flight -= 1
        return found

    def reconcile_channel_credits(self, revived) -> None:
        """Re-derive upstream credit counts for just-repaired channels.

        While an element is dead, purges deliberately skip restoring
        credits at dead routers/ports (the invariant checker exempts
        dead channels instead), so a channel comes back from a repair
        with its upstream counter short by every flit discarded during
        the outage.  For each revived ``(router, port)`` downstream
        endpoint, recompute ``held = depth - buffered - on_link -
        returning`` from the actual queues and in-flight events so the
        repaired channel runs at full credit again.
        """
        arrivals: Dict[Tuple[int, int, int], int] = {}
        for events in self._arrivals.values():
            for router_id, port, vc, _flit in events:
                key = (router_id, port, vc)
                arrivals[key] = arrivals.get(key, 0) + 1
        returning: Dict[Tuple[int, int, int], int] = {}
        for events in self._credits.values():
            for router_id, port, vc, _release in events:
                key = (router_id, port, vc)
                returning[key] = returning.get(key, 0) + 1
        for rid, port in revived:
            if not self._element_alive(rid, port):
                continue  # still dead via an overlapping fault
            upstream = self.topology.neighbor(rid, port)
            if upstream is None or not self._element_alive(*upstream):
                continue
            up_router = self.routers[upstream[0]]
            sport = upstream[1]
            depth = up_router._credit_ceiling[sport]
            down_states = self.routers[rid]._vc_states[port]
            for vc in range(up_router.out_vc_count[sport]):
                up_router.out_credits[sport][vc] = (
                    depth
                    - len(down_states[vc].queue)
                    - arrivals.get((rid, port, vc), 0)
                    - returning.get((upstream[0], sport, vc), 0)
                )

    def report_packet_lost(self, packet: Packet, reason: str, cycle: int) -> None:
        """Tell the recovery layer a fault purged ``packet``."""
        if self.on_loss is not None:
            self.on_loss(packet, reason, cycle)

    # -- diagnostics ---------------------------------------------------------------
    def total_buffered_flits(self) -> int:
        if self._ck is not None:
            return self._ck.total_buffered_flits()
        return sum(router.occupied_flits for router in self._routers or ())

    def describe(self) -> str:
        """One-line human description of the network build."""
        kinds: Dict[str, int] = {}
        for cfg in self.router_configs.values():
            kinds[cfg.kind] = kinds.get(cfg.kind, 0) + 1
        kind_text = ", ".join(f"{v} {k}" for k, v in sorted(kinds.items()))
        return (
            f"{type(self.topology).__name__} with {self.topology.num_routers} "
            f"routers ({kind_text}), flit width {self.flit_width} b, "
            f"{self.config.frequency_ghz:.2f} GHz"
        )
