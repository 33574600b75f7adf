"""Flat structure-of-arrays layout of the router state (pack/sync codec).

The compiled ``c`` kernel (:mod:`repro.noc.ckernel`) advances the network
over flat integer arrays and bitmasks instead of
:class:`~repro.noc.router.Router` objects and their per-VC ``_VCState``
records.  This module owns that layout and the exact, loss-free
translation between it and the object model:

* per-lane scalar state -- the head packet id, routed output port and
  allocated downstream VC of every ``(router, port, vc)`` input lane --
  lives in flat lists indexed by ``(router * P + port) * V + vc``;
* per-port virtual-channel *bitmasks* (occupied lanes, allocated lanes,
  credit-available downstream VCs) and the round-robin arbiter
  pointers;
* the active-router set as a single integer bitmask and the per-router
  active-lane order;
* routing lookups from the precomputed tensors of
  :meth:`repro.noc.routing.Routing.build_route_tables` (assembled here
  with numpy and flattened to row lists);
* a per-lane *needs-VA* flag, so the kernel can skip the
  route-computation/VC-allocation walk for routers whose lanes are all
  mid-wormhole;
* per-router micro-event counter deltas, flushed into the shared
  :class:`~repro.noc.stats.RouterActivity` objects on
  :meth:`FlatLayout.sync` / :meth:`FlatLayout.flush_activity`
  (measurement boundaries flush automatically, so activity-derived
  results never observe a stale counter).

The flit queues themselves are the *same* deque objects the routers
own, so :meth:`FlatLayout.pack` only snapshots scalar state out of the
``Router`` objects and :meth:`FlatLayout.sync` writes the identical
values back -- which is what makes mid-run kernel switches, snapshots
and the per-cycle digests of the differential suite exact.  There is no
cycle walk here: the only code that advances this layout is
``_ckernel.c``.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np


class FlatLayout:
    """Flattened router state of one network plus its pack/sync codec.

    Embedded by :class:`~repro.noc.ckernel.CKernel`; :meth:`sync`
    mirrors the flat state back into the ``Router`` objects at any cycle
    boundary.
    """

    def __init__(self, net) -> None:
        self.net = weakref.proxy(net)  # the network owns us (no cycle)
        topo = net.topology
        routers = net.routers
        R = topo.num_routers
        #: uniform strides: max ports / max VCs over the mesh (lanes for
        #: ports or VCs a router does not have are simply never touched).
        P = max(r.num_ports for r in routers)
        V = max(r.config.num_vcs for r in routers)
        self.R, self.P, self.V = R, P, V

        # -- static per-router tensors ----------------------------------
        self.nports = [r.num_ports for r in routers]
        self.nvcs = [r.config.num_vcs for r in routers]
        self.depth = [r.config.buffer_depth for r in routers]
        self.ej_pmask = [0] * R  # bitmask of ejection (local) ports
        self.ej_lanes = [r._local_lanes for r in routers]
        for rid, r in enumerate(routers):
            for port in range(r.num_ports):
                if r.is_ejection[port]:
                    self.ej_pmask[rid] |= 1 << port

        # Routing tensor: route_tab[rid][dst] -> out port, assembled as
        # one (R, num_nodes) numpy array then flattened to row lists.
        table = np.array(
            [r._route_table for r in routers], dtype=np.int64
        )
        self.route_tab: List[List[int]] = table.tolist()

        # -- per-(router, port) output-side tensors ---------------------
        RP = R * P
        self.ovc_cnt = [0] * RP   # downstream VC count (VA candidates)
        self.ceil = [0] * RP      # credit ceiling (downstream depth)
        self.slanes = [0] * RP    # static lane count of the output port
        self.linkinfo: List[Optional[Tuple[int, int, int, int]]] = [None] * RP
        self.upstream: List[Optional[Tuple[int, int]]] = [None] * RP
        self.has_wide = [False] * R
        merging = net._merging
        for rid, r in enumerate(routers):
            base = rid * P
            for port in range(r.num_ports):
                rp = base + port
                self.ovc_cnt[rp] = r.out_vc_count[port]
                self.ceil[rp] = r._credit_ceiling[port]
                self.slanes[rp] = r._static_lanes[port]
                link = r.out_links[port]
                if link is not None:
                    self.linkinfo[rp] = (
                        link.dst_router, link.dst_port, link.delay, link.lanes
                    )
                    if merging and link.lanes >= 2:
                        self.has_wide[rid] = True
                self.upstream[rp] = net._upstream[rid][port]

        # -- shared mutable structures (objects owned by the network) ---
        #: flit queues, one per lane; the *same* deque objects as
        #: ``router._vc_states[port][vc].queue`` so queue contents never
        #: need packing or unpacking.
        self.queues: List[Optional[object]] = [None] * (RP * V)
        for rid, r in enumerate(routers):
            for port in range(r.num_ports):
                lane = (rid * P + port) * V
                states = r._vc_states[port]
                for vc in range(r.config.num_vcs):
                    self.queues[lane + vc] = states[vc].queue
        self.activities = [r.activity for r in routers]

        # -- packed scalar state (filled by pack()) ---------------------
        self.st_pid = [-1] * (RP * V)    # -1 == None
        self.st_route = [-1] * (RP * V)  # -1 == None
        self.st_outvc = [-2] * (RP * V)  # -2 == None, -1 == ejection
        self.need = [0] * (RP * V)       # lane needs RC/VA processing
        self.nva = [0] * R               # needy lanes per router
        self.cred = [0] * (RP * V)
        self.owner = [-1] * (RP * V)     # -1 == None
        self.occ_mask = [0] * RP         # VCs with a non-empty queue
        self.am = [0] * RP               # VCs with an allocated out VC
        self.credok = [0] * RP           # downstream VCs with credits > 0
        self.in_next = [0] * RP
        self.out_next = [0] * RP
        self.sec_next = [0] * RP
        self.occupied = [0] * R
        self.va_off = [0] * R
        self.active_lanes: List[Dict[int, bool]] = [dict() for _ in range(R)]
        self.actmask = 0

        # -- activity counter deltas (flushed into RouterActivity) ------
        self.a_bw = [0] * R   # buffer_writes
        self.a_br = [0] * R   # buffer_reads
        self.a_xb = [0] * R   # crossbar_traversals
        self.a_rc = [0] * R   # route_computations
        self.a_va = [0] * R   # vc_allocations
        self.a_arb = [0] * R  # arbitrations
        self.a_cf = [0] * R   # arbitration_conflicts
        self.a_cs = [0] * R   # credit_stalls
        self.a_mg = [0] * R   # merged_flit_pairs
        self.a_oc = [0] * R   # occupancy_integral

        self.pack()

    # -- state transfer ----------------------------------------------------
    def reload_activities(self) -> None:
        """Re-fetch the RouterActivity objects and drop pending deltas
        (``reset_stats`` replaces the objects to zero the counters)."""
        self.activities = [r.activity for r in self.net.routers]
        for arr in (
            self.a_bw, self.a_br, self.a_xb, self.a_rc, self.a_va,
            self.a_arb, self.a_cf, self.a_cs, self.a_mg, self.a_oc,
        ):
            for i in range(self.R):
                arr[i] = 0

    def flush_activity(self) -> None:
        """Add the accumulated counter deltas to the shared
        RouterActivity objects and zero the delta arrays."""
        a_bw, a_br, a_xb = self.a_bw, self.a_br, self.a_xb
        a_rc, a_va, a_arb = self.a_rc, self.a_va, self.a_arb
        a_cf, a_cs, a_mg, a_oc = self.a_cf, self.a_cs, self.a_mg, self.a_oc
        for rid, act in enumerate(self.activities):
            if a_bw[rid]:
                act.buffer_writes += a_bw[rid]
                a_bw[rid] = 0
            if a_br[rid]:
                act.buffer_reads += a_br[rid]
                a_br[rid] = 0
            if a_xb[rid]:
                act.crossbar_traversals += a_xb[rid]
                a_xb[rid] = 0
            if a_rc[rid]:
                act.route_computations += a_rc[rid]
                a_rc[rid] = 0
            if a_va[rid]:
                act.vc_allocations += a_va[rid]
                a_va[rid] = 0
            if a_arb[rid]:
                act.arbitrations += a_arb[rid]
                a_arb[rid] = 0
            if a_cf[rid]:
                act.arbitration_conflicts += a_cf[rid]
                a_cf[rid] = 0
            if a_cs[rid]:
                act.credit_stalls += a_cs[rid]
                a_cs[rid] = 0
            if a_mg[rid]:
                act.merged_flit_pairs += a_mg[rid]
                a_mg[rid] = 0
            if a_oc[rid]:
                act.occupancy_integral += a_oc[rid]
                a_oc[rid] = 0

    def pack(self) -> None:
        """Snapshot scalar state out of the Router objects."""
        net = self.net
        P, V = self.P, self.V
        st_pid, st_route, st_outvc = self.st_pid, self.st_route, self.st_outvc
        need, nva = self.need, self.nva
        cred, owner = self.cred, self.owner
        occ_mask, am, credok = self.occ_mask, self.am, self.credok
        for rid, r in enumerate(net.routers):
            base = rid * P
            self.occupied[rid] = r.occupied_flits
            self.va_off[rid] = r._va_offset
            nva[rid] = 0
            allocator = r.allocator
            for port in range(r.num_ports):
                rp = base + port
                self.in_next[rp] = allocator.input_stage[port]._next
                self.out_next[rp] = allocator.output_stage[port]._next
                self.sec_next[rp] = allocator.second_output_stage[port]._next
                om = a = ck = 0
                lane = rp * V
                states = r._vc_states[port]
                credits = r.out_credits[port]
                owners = r.out_vc_owner[port]
                for vc in range(self.ovc_cnt[rp]):
                    cred[lane + vc] = credits[vc]
                    if credits[vc] > 0:
                        ck |= 1 << vc
                    ow = owners[vc]
                    owner[lane + vc] = -1 if ow is None else ow
                for vc in range(r.config.num_vcs):
                    state = states[vc]
                    pid = state.packet_id
                    st_pid[lane + vc] = -1 if pid is None else pid
                    rtp = state.route_port
                    st_route[lane + vc] = -1 if rtp is None else rtp
                    ov = state.out_vc
                    st_outvc[lane + vc] = -2 if ov is None else ov
                    if ov is not None:
                        a |= 1 << vc
                    q = state.queue
                    if q:
                        om |= 1 << vc
                        head = q[0]
                        needs = (
                            pid != head.packet.packet_id or ov is None
                        )
                        need[lane + vc] = 1 if needs else 0
                        if needs:
                            nva[rid] += 1
                    else:
                        need[lane + vc] = 0
                occ_mask[rp] = om
                am[rp] = a
                credok[rp] = ck
            active = self.active_lanes[rid]
            active.clear()
            for (port, vc) in r._active:
                active[(base + port) * V + vc] = True
        self.actmask = 0
        for rid in net._active_routers:
            self.actmask |= 1 << rid
        self.reload_activities()

    def sync(self) -> None:
        """Mirror the flat state back into the Router objects.

        Exact inverse of :meth:`pack` plus an activity flush; queue
        contents, stats, sources and event buckets are shared so only
        scalars move.
        """
        net = self.net
        P, V = self.P, self.V
        st_pid, st_route, st_outvc = self.st_pid, self.st_route, self.st_outvc
        cred, owner = self.cred, self.owner
        for rid, r in enumerate(net.routers):
            base = rid * P
            r.occupied_flits = self.occupied[rid]
            r._va_offset = self.va_off[rid]
            allocator = r.allocator
            for port in range(r.num_ports):
                rp = base + port
                allocator.input_stage[port]._next = self.in_next[rp]
                allocator.output_stage[port]._next = self.out_next[rp]
                allocator.second_output_stage[port]._next = self.sec_next[rp]
                r._port_active[port] = self.occ_mask[rp].bit_count()
                lane = rp * V
                credits = r.out_credits[port]
                owners = r.out_vc_owner[port]
                for vc in range(self.ovc_cnt[rp]):
                    credits[vc] = cred[lane + vc]
                    ow = owner[lane + vc]
                    owners[vc] = None if ow == -1 else ow
                states = r._vc_states[port]
                for vc in range(r.config.num_vcs):
                    state = states[vc]
                    pid = st_pid[lane + vc]
                    state.packet_id = None if pid == -1 else pid
                    rtp = st_route[lane + vc]
                    state.route_port = None if rtp == -1 else rtp
                    ov = st_outvc[lane + vc]
                    state.out_vc = None if ov == -2 else ov
            r._active = {
                ((lane // V) % P, lane % V): True
                for lane in self.active_lanes[rid]
            }
        net._active_routers = {
            rid for rid in range(self.R) if self.actmask >> rid & 1
        }
        self.flush_activity()
