"""Fault injection and resilience for the NoC simulator.

The subsystem has four cooperating layers, all wired together by
``run_synthetic(..., faults=FaultSchedule(...))``:

* :mod:`repro.faults.schedule` -- declarative, deterministic fault
  schedules (:class:`FaultSpec` / :class:`FaultSchedule`) of link and
  router faults, permanent or transient, that travel inside a
  :class:`~repro.exec.point.SweepPoint`, so faulty configs cache and
  parallelize like any other sweep point;
* :mod:`repro.faults.injector` -- :class:`FaultInjector`, the runtime
  that applies/repairs faults on schedule and purges the casualties;
* :mod:`repro.faults.routing` / :mod:`repro.faults.retransmit` -- the
  resilience mechanisms: fault-aware rerouting around dead elements and
  NI-level end-to-end ACK/timeout/retransmission;
* :mod:`repro.faults.watchdog` / :mod:`repro.faults.invariants` -- the
  safety net: deadlock/livelock detection with structured diagnoses and
  the ``REPRO_CHECK=1`` state-machine invariant checks.

Everything here follows the observability layer's null-object discipline:
a network without an attached injector/watchdog pays a single ``is not
None`` check per hook and produces byte-identical results.
"""

from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantViolation, check_network_invariants
from repro.faults.retransmit import RetransmissionManager, default_timeout
from repro.faults.routing import FaultAwareRouting, UnreachableDestination
from repro.faults.schedule import (
    FAULT_KINDS,
    FAULT_MODES,
    FaultSchedule,
    FaultSpec,
    kill_routers,
)
from repro.faults.watchdog import (
    BlockedVC,
    SimulationStalled,
    StallDiagnosis,
    Watchdog,
    diagnose_blocked_vcs,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_MODES",
    "BlockedVC",
    "FaultAwareRouting",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "InvariantViolation",
    "RetransmissionManager",
    "SimulationStalled",
    "StallDiagnosis",
    "UnreachableDestination",
    "Watchdog",
    "check_network_invariants",
    "default_timeout",
    "diagnose_blocked_vcs",
    "kill_routers",
]
