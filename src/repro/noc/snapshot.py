"""Bit-identical simulation checkpointing: the container.

A checkpoint is one pickled object graph -- whatever the caller needs to
continue, pickled *whole* so that shared references (an NI holding the
network, a packet present both in a source queue and in the NI's
outstanding table) survive the round trip as shared references.
:func:`repro.traffic.runner.run_synthetic` pickles its run state (the
:class:`~repro.noc.network.Network` object graph -- on the object-model
kernels its routers, VC states, in-flight flits, arbiter pointers and
event buckets, on the ``"c"`` kernel the byte image of its C arena --
with activity counters, sources, stats and the next packet id, plus the
driver's RNG, the injection process, the NI and the loop counters); a
restored run continues exactly where the original left off.  "Exactly" is literal: the
differential state digests of a restored run match an uninterrupted one
cycle for cycle, on both cycle kernels and the tests' full-scan
reference (pinned by ``tests/test_snapshot.py``).

This module knows nothing about what is inside the payload.  It provides:

* :func:`capture` -- bring a live network to rest so that it pickles:
  the RNG streams a span-driven run lent to the compiled kernel go back
  to their Python objects.  A live compiled kernel stays live and
  pickles as its arena image (see :mod:`repro.noc.ckernel`); restoring
  one needs the compiled kernel of the same source, and raises inside
  unpickling -- :class:`SnapshotCorrupt` here -- where it cannot load.
  Networks with an observer attached (it may hold open file handles)
  are refused loudly rather than producing a snapshot that cannot
  restore.
* :func:`save_snapshot` / :func:`load_snapshot` -- the versioned binary
  container: an 8-byte magic, a format version, the payload length, the
  sha256 of the pickle payload, then the payload.  Writes are atomic
  (temp file + fsync + ``os.replace``); loads verify magic, version,
  length and digest and raise :class:`SnapshotCorrupt` /
  :class:`SnapshotVersionMismatch` on any mismatch, so a truncated or
  bit-flipped file is *detected*, never silently half-restored.  Callers
  treat a corrupt snapshot as "no checkpoint" and restart from cycle 0
  (the chaos tests pin this).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct

#: the one checkpoint version number: bump when the container layout or
#: the shape of anything a checkpoint pickles changes (v3: the pickled
#: ``Network`` carries its next packet id; v4: the pickled
#: ``NetworkStats`` holds its latency sample as columns; v5: the payload
#: is the runner's state object itself, not a wrapper around a dict; v6:
#: the pickled ``Network`` holds its routers as ``_routers``, built on
#: demand, and its activity counters, and leaves its shape to the memo;
#: v7: a ``"c"`` network holds its live kernel, pickled as its arena
#: image and packet-handle table, instead of routers synced from it;
#: v8: the pickled ``Network`` holds its always-on link and delivery
#: counter totals and the counters its measurement window opened at;
#: v9: the pickled ``Network`` counts deliveries once, in
#: ``total_delivered``, and a pickled ``Packet`` has no bit-flip flag).
SNAPSHOT_VERSION = 9

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


def capture(network):
    """Bring a live network to rest so it can be pickled; returns it.

    Hands back the RNG streams a span-driven run lent to the compiled
    kernel, which is why the driver's ``random.Random`` and injector must
    be pickled after it.  Nothing else moves: a live compiled kernel
    stays live and pickles as its arena image, so taking a checkpoint
    never perturbs the ongoing run and never builds a router.
    """
    if network.obs is not None:
        raise SnapshotError(
            "cannot snapshot a network with an observer attached (live "
            "file handles); detach it first"
        )
    network.reclaim_span_source()
    return network


def dumps(payload) -> bytes:
    """``payload`` pickled into one self-verifying binary blob."""
    data = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
    digest = hashlib.sha256(data).digest()
    return _HEADER.pack(_MAGIC, SNAPSHOT_VERSION, len(data), digest) + data


def loads(blob: bytes):
    """Verify a snapshot blob and unpickle its payload."""
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
        return pickle.loads(payload)
    except Exception as exc:  # digest passed but unpickling still failed
        raise SnapshotCorrupt(f"snapshot payload does not unpickle: {exc}")


def save_snapshot(payload, path) -> None:
    """Pickle ``payload`` into a snapshot file at ``path``, atomically.

    A crashed writer leaves either the previous snapshot or the complete
    new one -- never a torn file -- which is what makes periodic
    auto-checkpointing safe to interrupt at any instant.
    """
    blob = dumps(payload)
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_snapshot(path):
    """Read, verify and unpickle what :func:`save_snapshot` wrote.

    Raises :class:`SnapshotCorrupt` on any damage and ``OSError`` /
    ``FileNotFoundError`` as usual for unreadable paths; callers that
    auto-resume treat both as "start from scratch".
    """
    with open(path, "rb") as handle:
        return loads(handle.read())
