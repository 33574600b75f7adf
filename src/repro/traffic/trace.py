"""Memory-reference trace format.

The paper's system-level evaluation is trace driven: "Our trace format
consists of load/stores and the number of non-memory instructions between
them" (Section 5.2).  This module defines that record; the CMP core
model consumes a core's trace as a list of them, which
:func:`repro.traffic.workloads.generate_core_trace` builds from an
application profile.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One memory operation and the instruction gap preceding it.

    Attributes:
        gap: count of non-memory instructions executed before this access.
        is_write: True for a store, False for a load.
        address: byte address of the access.
    """

    gap: int
    is_write: bool
    address: int

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError(f"gap must be non-negative, got {self.gap}")
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")

    @property
    def instructions(self) -> int:
        """Instructions this record represents (gap plus the access)."""
        return self.gap + 1

