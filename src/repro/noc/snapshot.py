"""Bit-identical simulation checkpointing.

A snapshot captures the *complete* state of a running simulation -- the
:class:`~repro.noc.network.Network` object graph (routers, VC states,
in-flight flits, arbiter pointers, activity counters, event buckets,
sources, stats, the next packet id it will issue), the driver's RNG, the
injection process and any driver bookkeeping -- so that a restored run
continues exactly where the original left off.  "Exactly" is literal:
the differential state digests of a restored run match an uninterrupted
one cycle for cycle, for all three cycle kernels (pinned by
``tests/test_snapshot.py``).

Two layers:

* :func:`capture` / :class:`SimSnapshot` -- freeze a live network (plus
  optional RNG / injector / driver state) into one picklable value.  A
  live compiled kernel is synced back into the object model and freed
  first (the hand-off is bit-identical, see :mod:`repro.noc.ckernel`),
  so snapshots never contain C state and a restored ``"c"`` network
  simply re-packs on its next step.
* :func:`save_snapshot` / :func:`load_snapshot` -- the versioned binary
  container: an 8-byte magic, a format version, the sha256 of the pickle
  payload, then the payload.  Writes are atomic (temp file +
  ``os.replace``); loads verify magic, version and digest and raise
  :class:`SnapshotCorrupt` / :class:`SnapshotVersionMismatch` on any
  mismatch, so a truncated or bit-flipped file is *detected*, never
  silently half-restored.  Callers treat a corrupt snapshot as "no
  checkpoint" and restart from cycle 0 (the chaos tests pin this).

Not supported: networks with an observer or profiler attached (both may
hold open file handles); :func:`capture` refuses them loudly rather than
producing a snapshot that cannot restore.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import random
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional

#: bump when the container layout or the pickled payload schema changes
#: (v3: the pickled ``Network`` carries its next packet id; v4: the
#: pickled ``NetworkStats`` holds its latency sample as columns).
SNAPSHOT_VERSION = 4

_MAGIC = b"RNOCSNAP"
#: magic(8s) version(I) payload_len(Q) sha256(32s)
_HEADER = struct.Struct(">8sIQ32s")

#: pinned pickle protocol so snapshots written on newer interpreters stay
#: readable on the oldest supported one (protocol 4: Python >= 3.4).
_PICKLE_PROTOCOL = 4


class SnapshotError(RuntimeError):
    """Base class for snapshot failures."""


class SnapshotCorrupt(SnapshotError):
    """The snapshot file is truncated, bit-flipped or not a snapshot."""


class SnapshotVersionMismatch(SnapshotError):
    """The snapshot was written by an incompatible format version."""


@dataclass
class SimSnapshot:
    """One frozen simulation, ready to pickle.

    ``extra`` carries driver-level state (loop counters, the NI
    retransmission manager, ...) and is pickled in the *same* payload as
    the network, so shared references -- an NI holding the network, a
    packet present both in a source queue and in the NI's outstanding
    table -- survive the round trip as shared references.
    """

    network: object
    rng_state: Optional[tuple] = None
    injector: Optional[object] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def make_rng(self) -> Optional[random.Random]:
        """A ``random.Random`` positioned exactly where capture left it."""
        if self.rng_state is None:
            return None
        rng = random.Random()
        rng.setstate(self.rng_state)
        return rng


def capture(
    network,
    rng: Optional[random.Random] = None,
    injector: Optional[object] = None,
    extra: Optional[Dict[str, object]] = None,
) -> SimSnapshot:
    """Freeze a live network (and driver state) into a :class:`SimSnapshot`.

    The compiled (C) kernel, if active, is synced and deactivated
    first: the object model then holds the authoritative state, and the
    restored network re-activates the kernel on the next step (both
    transitions are bit-identical, pinned by the differential tests).
    Deactivation is equally bit-identical for the network being
    captured, so taking a checkpoint never perturbs the ongoing run.
    It also hands back the RNG streams a span-driven run lent to the
    kernel, which is why ``rng`` and ``injector`` are read after it.
    """
    if network.obs is not None or network.profiler is not None:
        raise SnapshotError(
            "cannot snapshot a network with an observer or profiler "
            "attached (live file handles); detach it first"
        )
    network._deactivate_ck()
    return SimSnapshot(
        network=network,
        rng_state=rng.getstate() if rng is not None else None,
        injector=injector,
        extra=dict(extra or {}),
    )


def dumps(snapshot: SimSnapshot) -> bytes:
    """The snapshot as one self-verifying binary blob."""
    buffer = io.BytesIO()
    pickle.dump(snapshot, buffer, protocol=_PICKLE_PROTOCOL)
    payload = buffer.getvalue()
    digest = hashlib.sha256(payload).digest()
    return _HEADER.pack(_MAGIC, SNAPSHOT_VERSION, len(payload), digest) + payload


def loads(blob: bytes) -> SimSnapshot:
    """Parse and verify a snapshot blob (see :func:`load_snapshot`)."""
    if len(blob) < _HEADER.size:
        raise SnapshotCorrupt(
            f"snapshot truncated: {len(blob)} bytes is shorter than the "
            f"{_HEADER.size}-byte header"
        )
    magic, version, length, digest = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise SnapshotCorrupt(f"bad magic {magic!r}; not a snapshot file")
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionMismatch(
            f"snapshot format v{version} != supported v{SNAPSHOT_VERSION}"
        )
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise SnapshotCorrupt(
            f"snapshot payload is {len(payload)} bytes, header promised "
            f"{length} (truncated or appended-to)"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise SnapshotCorrupt("snapshot payload sha256 mismatch (bit rot?)")
    try:
        snapshot = pickle.loads(payload)
    except Exception as exc:  # digest passed but unpickling still failed
        raise SnapshotCorrupt(f"snapshot payload does not unpickle: {exc}")
    if not isinstance(snapshot, SimSnapshot):
        raise SnapshotCorrupt(
            f"snapshot payload is a {type(snapshot).__name__}, "
            "not a SimSnapshot"
        )
    return snapshot


def save_snapshot(snapshot: SimSnapshot, path) -> None:
    """Write ``snapshot`` to ``path`` atomically.

    A crashed writer leaves either the previous snapshot or the complete
    new one -- never a torn file -- which is what makes periodic
    auto-checkpointing safe to interrupt at any instant.
    """
    blob = dumps(snapshot)
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_snapshot(path) -> SimSnapshot:
    """Read, verify and unpickle a snapshot written by :func:`save_snapshot`.

    Raises :class:`SnapshotCorrupt` on any damage and ``OSError`` /
    ``FileNotFoundError`` as usual for unreadable paths; callers that
    auto-resume treat both as "start from scratch".
    """
    with open(path, "rb") as handle:
        return loads(handle.read())
