"""Multi-program performance metrics (Eyerman & Eeckhout, ref [8]).

Both metrics compare each application's IPC when sharing the CMP against
its IPC running alone on the same platform:

* weighted speedup ``= sum_i IPC_shared_i / IPC_alone_i`` -- system
  throughput;
* harmonic speedup ``= N / sum_i (IPC_alone_i / IPC_shared_i)`` -- a
  combined performance *and* fairness measure.
"""

from __future__ import annotations

from typing import Sequence


def weighted_speedup(
    shared_ipc: Sequence[float], alone_ipc: Sequence[float]
) -> float:
    _check(shared_ipc, alone_ipc)
    return sum(s / a for s, a in zip(shared_ipc, alone_ipc))


def harmonic_speedup(
    shared_ipc: Sequence[float], alone_ipc: Sequence[float]
) -> float:
    _check(shared_ipc, alone_ipc)
    denominator = sum(a / s for s, a in zip(shared_ipc, alone_ipc))
    return len(shared_ipc) / denominator


def _check(shared: Sequence[float], alone: Sequence[float]) -> None:
    if len(shared) != len(alone):
        raise ValueError("shared and alone IPC lists must align")
    if not shared:
        raise ValueError("need at least one application")
    if any(v <= 0 for v in shared) or any(v <= 0 for v in alone):
        raise ValueError("IPC values must be positive")

