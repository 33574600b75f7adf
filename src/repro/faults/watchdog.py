"""Deadlock/livelock watchdog.

The watchdog belongs to the run driver: ``run_synthetic`` keeps it in
its run state and calls :meth:`Watchdog.check` after every cycle that is
a multiple of ``check_interval`` -- on the compiled kernel by ending a
span there -- so an armed run is the same program, on the same kernel,
as an unarmed one.  It watches two cheap progress signals, a no-progress
timeout sampled at those cycles as BookSim 2.0's deadlock check is
(Jiang et al., ISPASS 2013):

* **deadlock** -- the flit-movement signature (crossbar traversals +
  buffer writes + packets in flight) is frozen for ``stall_window``
  cycles while packets are still in flight.  Wormhole networks deadlock
  silently: every blocked VC waits on a credit that can never come, so
  nothing raises and the old behaviour was an infinite hang inside
  ``drain()``.
* **livelock** -- flits keep moving but no packet completes for
  ``livelock_window`` cycles (e.g. a retransmission storm or a routing
  bug cycling packets forever).

Either condition raises :class:`SimulationStalled` carrying a
:class:`StallDiagnosis` that names every blocked virtual channel and
*why* it is blocked (no downstream VC won, or zero credits), so a CI
failure reads like a diagnosis instead of a timeout.

The watchdog is read-only: arming it cannot change simulation results,
which the golden-run byte-identity tests rely on.  Invariant
checking (``check_invariants=True``, normally driven by the
``REPRO_CHECK=1`` environment flag) additionally runs
:func:`repro.faults.invariants.check_network_invariants` every
``check_interval`` cycles and raises
:class:`~repro.faults.invariants.InvariantViolation` on the first
breach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.faults.invariants import InvariantViolation, check_network_invariants


@dataclass(frozen=True)
class BlockedVC:
    """One input virtual channel that holds flits but cannot move them."""

    router: int
    port: int
    vc: int
    packet_id: Optional[int]
    buffered_flits: int
    route_port: Optional[int]
    out_vc: Optional[int]
    reason: str

    def describe(self) -> str:
        return (
            f"router {self.router} in({self.port},{self.vc}) "
            f"pkt {self.packet_id} x{self.buffered_flits} flits "
            f"-> port {self.route_port}: {self.reason}"
        )


@dataclass
class StallDiagnosis:
    """Structured picture of a stalled network."""

    kind: str  # "deadlock" or "livelock"
    cycle: int
    stalled_for: int
    packets_in_flight: int
    blocked: List[BlockedVC] = field(default_factory=list)
    queued_sources: List[int] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"{self.kind} at cycle {self.cycle}: no "
            f"{'flit movement' if self.kind == 'deadlock' else 'delivery'} "
            f"for {self.stalled_for} cycles with "
            f"{self.packets_in_flight} packets in flight",
        ]
        for entry in self.blocked[:16]:
            lines.append("  blocked: " + entry.describe())
        if len(self.blocked) > 16:
            lines.append(f"  ... and {len(self.blocked) - 16} more blocked VCs")
        if self.queued_sources:
            preview = ", ".join(str(n) for n in self.queued_sources[:8])
            lines.append(f"  sources with queued packets: {preview}")
        return "\n".join(lines)


class SimulationStalled(RuntimeError):
    """The watchdog gave up on the simulation making progress."""

    def __init__(self, diagnosis: StallDiagnosis) -> None:
        self.diagnosis = diagnosis
        super().__init__(diagnosis.describe())


def diagnose_blocked_vcs(view) -> List[BlockedVC]:
    """Name every non-empty input VC of a
    :class:`~repro.noc.network.LaneView` and why its head flit cannot
    move."""
    P, V = view.P, view.V
    blocked: List[BlockedVC] = []
    for lane, buffered in enumerate(view.qlen):
        if not buffered:
            continue
        rp, vc = divmod(lane, V)
        rid, port = divmod(rp, P)
        claim, route, out_vc = view.claim[lane], view.route[lane], view.out_vc[lane]
        if claim != view.head[lane]:
            reason = "head-of-queue packet still awaiting RC"
        elif out_vc == -2:
            reason = "no downstream VC won (VA starvation or cycle)"
        elif out_vc >= 0 and not view.credits[(rid * P + route) * V + out_vc]:
            reason = f"zero credits on out vc {out_vc} (downstream buffer full)"
        else:
            reason = "eligible but losing switch allocation"
        blocked.append(BlockedVC(
            router=rid, port=port, vc=vc,
            packet_id=None if claim < 0 else claim,
            buffered_flits=buffered,
            route_port=None if route < 0 else route,
            out_vc=None if out_vc == -2 else out_vc,
            reason=reason,
        ))
    return blocked


class Watchdog:
    """Progress monitor the run driver samples (see the module docstring).

    Args:
        stall_window: cycles without any flit movement before declaring
            deadlock.  Must comfortably exceed the longest legitimate
            quiet period (retransmission timeouts included) of the run
            it guards.
        livelock_window: cycles without any packet delivery (while
            packets are in flight) before declaring livelock.
        check_interval: cycles between progress samples; keeps the
            per-cycle cost to one modulo on the fast path.
        check_invariants: also run the ``REPRO_CHECK`` invariant suite
            at every sample.
    """

    def __init__(
        self,
        stall_window: int = 2_000,
        livelock_window: int = 50_000,
        check_interval: int = 64,
        check_invariants: bool = False,
    ) -> None:
        if stall_window < 1 or livelock_window < 1 or check_interval < 1:
            raise ValueError("watchdog windows and interval must be >= 1")
        self.stall_window = stall_window
        self.livelock_window = livelock_window
        self.check_interval = check_interval
        self.check_invariants = check_invariants
        self._movement: Optional[Tuple[int, int, int]] = None
        self._movement_cycle = 0
        self._delivered = -1
        self._delivered_cycle = 0

    def _movement_signature(self, network) -> Tuple[int, int]:
        """Flit movement so far, read from the network's activity counters
        (building no :class:`Router`)."""
        return network.flit_moves(), network.packets_in_flight

    def check(self, network, cycle: int) -> None:
        """Sample progress after ``cycle`` has run when ``cycle`` is a
        multiple of ``check_interval`` (a no-op otherwise); raise on
        deadlock/livelock/invariant breach."""
        if cycle % self.check_interval:
            return
        if self.check_invariants:
            violations = check_network_invariants(network)
            if violations:
                raise InvariantViolation(violations, cycle)
        in_flight = network.packets_in_flight
        signature = self._movement_signature(network)
        if signature != self._movement:
            self._movement = signature
            self._movement_cycle = cycle
        delivered = network.total_delivered
        if delivered != self._delivered:
            self._delivered = delivered
            self._delivered_cycle = cycle
        if in_flight == 0:
            # Idle is progress: an empty network cannot be stalled.
            self._movement_cycle = cycle
            self._delivered_cycle = cycle
            return
        stalled_for = cycle - self._movement_cycle
        if stalled_for >= self.stall_window:
            self._raise(network, "deadlock", cycle, stalled_for)
        starving_for = cycle - self._delivered_cycle
        if starving_for >= self.livelock_window:
            self._raise(network, "livelock", cycle, starving_for)

    def _raise(self, network, kind: str, cycle: int, stalled_for: int) -> None:
        view = network.lane_view()
        raise SimulationStalled(StallDiagnosis(
            kind=kind,
            cycle=cycle,
            stalled_for=stalled_for,
            packets_in_flight=network.packets_in_flight,
            blocked=diagnose_blocked_vcs(view),
            queued_sources=view.queued,
        ))
