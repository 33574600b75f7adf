"""Declarative fault schedules.

A :class:`FaultSpec` names one fault -- what breaks (a link or a whole
router), where, and *when* (permanently from a cycle, or transiently
with repair after N cycles).  A :class:`FaultSchedule` bundles a tuple
of specs with the end-to-end resilience-policy knobs the network
interface uses while the schedule is active.

Both types are frozen, hashable and JSON-able, so a schedule can ride
inside a :class:`repro.exec.point.SweepPoint`: faulty configurations
hash, cache and parallelize exactly like healthy ones.

Fault kinds
===========

``link``
    The full-duplex channel at ``(router, port)`` fails in both
    directions.  Flits caught mid-wormhole are lost (their packets are
    purged and reported to the NI for retransmission); subsequent
    traffic reroutes around the dead channel.
``router``
    Fail-stop of a whole router: every incident channel dies, every
    buffered flit is lost, and nodes attached to it fall off the
    network until repair.

Timing modes
============

``permanent``   -- active from cycle ``at`` forever.
``transient``   -- active from ``at``, repaired ``repair_after`` cycles
                   later.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Optional, Tuple

FAULT_KINDS = ("link", "router")
FAULT_MODES = ("permanent", "transient")


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault (see the module docstring for semantics)."""

    kind: str
    router: int
    port: Optional[int] = None
    mode: str = "permanent"
    at: int = 0
    repair_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}, got {self.mode!r}")
        if self.router < 0:
            raise ValueError(f"router must be non-negative, got {self.router}")
        if self.kind == "link" and self.port is None:
            raise ValueError("link faults need a port")
        if self.kind == "router" and self.port is not None:
            raise ValueError("router faults kill every port; do not give one")
        if self.at < 0:
            raise ValueError(f"at must be non-negative, got {self.at}")
        if self.mode == "transient":
            if self.repair_after is None or self.repair_after < 1:
                raise ValueError("transient faults need repair_after >= 1")
        elif self.repair_after is not None:
            raise ValueError(f"{self.mode} faults do not take repair_after")

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        return cls(**payload)


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic set of faults plus the NI resilience policy.

    Attributes:
        specs: the declared faults.  An *empty* tuple is legal and
            useful: it enables the whole resilience stack (fault-aware
            routing, retransmission tracking, watchdog) with no faults,
            giving a like-for-like baseline for degradation studies.
        seed: pins nothing -- every remaining fault fires on its
            declared cycles.  It stays a field (and a part of every
            faulty point's key) until the benchmark's own schedule stops
            passing it (ROADMAP item 1).
        retransmit_timeout: NI retransmission timeout in cycles
            (``None`` derives a default from the network's zero-load
            hop cost).
        max_retries: retransmission attempts before a packet is
            declared lost.
        backoff_factor: multiplier applied to the timeout per
            successive attempt (exponential backoff).
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    retransmit_timeout: Optional[int] = None
    max_retries: int = 8
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        # Accept any iterable of specs (or dicts) and freeze it.
        specs = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
            for spec in self.specs
        )
        object.__setattr__(self, "specs", specs)
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retransmit_timeout is not None and self.retransmit_timeout < 1:
            raise ValueError("retransmit_timeout must be >= 1 when given")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1.0, got {self.backoff_factor}"
            )

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able dict (lists, not tuples) for spec hashing."""
        return {
            "specs": [spec.to_dict() for spec in self.specs],
            "seed": self.seed,
            "retransmit_timeout": self.retransmit_timeout,
            "max_retries": self.max_retries,
            "backoff_factor": self.backoff_factor,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSchedule":
        """The inverse of :meth:`to_dict`; a key it does not know (a
        typo such as ``max_retry``) is a ``ValueError``, not a default."""
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown fault schedule keys: {', '.join(sorted(unknown))}"
            )
        return cls(**payload)


def kill_routers(
    routers: Iterable[int], at: int = 0, **schedule_kwargs
) -> FaultSchedule:
    """Permanent fail-stop of ``routers`` from cycle ``at``."""
    specs = tuple(
        FaultSpec(kind="router", router=rid, mode="permanent", at=at)
        for rid in routers
    )
    return FaultSchedule(specs=specs, **schedule_kwargs)
