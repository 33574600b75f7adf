"""Compiled (C) cycle kernel: on-demand build, ctypes bridge, dispatch.

The fast cycle kernel, selected with ``NetworkConfig(kernel="c")``,
``REPRO_KERNEL=c`` or ``network.use_kernel("c")``.  The per-cycle walk
itself lives in ``_ckernel.c`` (shipped in-repo next to this module) and
runs over a flat integer arena; this module owns everything around it:

* **build** -- the C source is compiled on first use with the system C
  compiler (discovered via :func:`shutil.which` over the ``sysconfig``
  ``CC`` plus ``cc``/``gcc``/``clang``) into a shared object cached
  under ``~/.cache/repro-ckernel/`` (override with
  ``REPRO_CKERNEL_CACHE``).  The cache key is the sha256 of the source,
  compiler and flags, so editing the C file or switching toolchains
  rebuilds automatically; threads build once (a lock around
  build-and-memoise), concurrent processes race benignly through an
  atomic ``os.replace``.  No build-time dependency, no wheel machinery.
* **arena** -- the kernel is chosen once, before a network's first
  step, and from then on the arena is the whole state of the run:
  nothing is handed to or from the :class:`~repro.noc.router.Router`
  object model.  :class:`CKernel` starts a network that has not stepped
  from the shape's arena image (static tensors -- shapes, link/upstream/
  node maps, route tables -- and a fresh network's per-lane state) in
  one memmove, and takes over the packets already queued at its
  sources.  Per-lane state is indexed ``(router * P + port) * V + vc``;
  queues are packet-handle/flit-index rings.  A pickled kernel is its
  arena image (``ck_dump``: everything but the static tensors, which
  ``ck_load`` finds rewritten from the shape) plus the handle table, so
  a checkpoint of a ``"c"`` run never builds a router.  What stays on
  the Python side is what the arena cannot hold: the handle table (C
  knows packets as integers) and the network's counter totals the C
  counters are added onto by :meth:`Network.sync_stats`.  The kernel
  counts every cycle; it never knows whether a measurement window is
  open.
* **spans** -- :meth:`CKernel.run` advances a whole :class:`Span` of
  cycles with the open-loop traffic source inside the C loop
  (``ck_run``): C marks the births from creation index
  ``measure_from`` on as measured and stops between the injections and
  the body of the cycle that births the first of them; there
  :meth:`CKernel.run` calls the span's ``open_window`` (the run driver
  opens the measurement window) and resumes with the pending body, so
  no caller ever sees a half-run cycle.  A span ends
  before a cycle that could overshoot its birth budget, so the last
  packets of a run's target are born on the per-cycle loop.  The run's
  ``random.Random``, the per-node Pareto streams and the ON/OFF machines
  are *lent* to C at the first span (``getstate()`` in) and stay there,
  so every stream continues draw for draw across spans; they are handed
  back (``setstate()`` out) when Python next needs them --
  :meth:`Network.reclaim_span_source` before a run falls to the
  per-cycle loop, at its end and in every snapshot capture.  While they
  are lent, :meth:`CKernel.step`, :meth:`CKernel.enqueue_packet` and
  pickling refuse to run.
  A load-time self-check compares the C twin of
  ``random()``/``randrange``/``choice``/the Pareto period against
  ``random.Random``; a mismatch disables spans (one warning) and the
  per-cycle loop carries every run.
* **fallback** -- when no compiler is available (or the compile or a
  precondition fails), :func:`load_kernel_library` or the
  :class:`CKernel` constructor raises :class:`CKernelUnavailable`; the
  network warns once per process *and reason*, keeps the reason for
  :meth:`Network.span_blocker`, and the ``event`` kernel carries the
  run, as it does when faults or observers attach before the first
  step (after it they raise).  The ladder is ``c -> event`` and
  both rungs are bit-identical, so a compiler-less host asking for
  ``"c"`` runs at event speed (EXPERIMENTS.md, "Fallback rules").

Packets cross the FFI as integer handles from one C-side allocator.
Packets handed to :meth:`Network.enqueue` (*held* packets) keep their
Python object in a handle table; packets born inside a span exist only
as C records.  C writes what a finished packet leaves behind as it
finishes: tallies of packets and flits, a measured packet's latency
record -- the twin of :meth:`NetworkStats.record_completions
<repro.noc.stats.NetworkStats.record_completions>`, the event kernel's
reducer -- as a row of per-column buffers, and a held packet's row of the
held log.  After a cycle or a span :meth:`CKernel._take` brings them
onto the network alike: the counters, the record columns extended onto
the latency sample, then the held Packets finished and ``on_delivery``
fired for each in finishing order (a span-born packet has none, and a
callback keeps a run off spans).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import random
import shutil
import struct
import subprocess
import sysconfig
import threading
import warnings
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.noc.flit import Packet

SOURCE = Path(__file__).with_name("_ckernel.c")
#: ``-ffp-contract=off``: the Pareto twin must round exactly as CPython's
#: own float arithmetic does, so no fused multiply-add.
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
#: after the source on the command line (the twin calls libm ``pow``).
_LDLIBS = ("-lm",)

#: process-wide build memo: the loaded library, or the failure reason
#: (written under ``_LOAD_LOCK``, so racing first loads build once).
_LIB: Optional[ctypes.CDLL] = None
_FAILED: Optional[str] = None
_LOAD_LOCK = threading.Lock()
#: the fallback reasons already warned about in this process.
_WARNED: set = set()
#: why spans are off although the library loaded (RNG twin mismatch).
_SPANS_OFF: Optional[str] = None

class CKernelUnavailable(RuntimeError):
    """The compiled kernel cannot be built or used here; fall back."""


def find_compiler() -> Optional[str]:
    """Locate a C compiler on PATH (sysconfig's CC first, then common
    names).  Returns an absolute executable path or ``None``."""
    candidates = []
    cc = (sysconfig.get_config_var("CC") or "").split()
    if cc:
        candidates.append(cc[0])
    candidates.extend(("cc", "gcc", "clang"))
    for name in candidates:
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    override = os.environ.get("REPRO_CKERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-ckernel"


def library_name(compiler: str, source: bytes) -> str:
    """The cached shared object's file name, ``ckernel-<key>.so``: the
    key is the sha256 of ``source``, ``compiler`` and the flags, so a new
    source or toolchain builds a new file.  A library built another way
    under this name in a ``REPRO_CKERNEL_CACHE`` directory (a sanitized
    build, say) is what the loader picks up."""
    key = hashlib.sha256(
        source + compiler.encode() + " ".join(_CFLAGS + _LDLIBS).encode()
    ).hexdigest()[:20]
    return f"ckernel-{key}.so"


def _build_library() -> ctypes.CDLL:
    compiler = find_compiler()
    if compiler is None:
        raise CKernelUnavailable("no C compiler found on PATH")
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise CKernelUnavailable(f"cannot read {SOURCE.name}: {exc}")
    directory = cache_dir()
    so_path = directory / library_name(compiler, source)
    if not so_path.exists():
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CKernelUnavailable(f"cannot create {directory}: {exc}")
        tmp = so_path.with_suffix(f".{os.getpid()}.tmp.so")
        cmd = [compiler, *_CFLAGS, "-o", str(tmp), str(SOURCE), *_LDLIBS]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise CKernelUnavailable(f"compiler failed to launch: {exc}")
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            tail = (proc.stderr or proc.stdout or "").strip()[-500:]
            raise CKernelUnavailable(
                f"compile failed (rc={proc.returncode}): {tail}"
            )
        try:
            os.replace(tmp, so_path)
        except OSError as exc:
            raise CKernelUnavailable(f"cannot install {so_path.name}: {exc}")
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError as exc:
        raise CKernelUnavailable(f"cannot load {so_path.name}: {exc}")
    _bind(lib)
    #: stamped into every arena image: an image is only ever loaded by
    #: a kernel built from the same source.
    lib.source_key = int.from_bytes(
        hashlib.sha256(source).digest()[:8], "little", signed=True
    )
    return lib


def _bind(lib: ctypes.CDLL) -> None:
    i64 = ctypes.c_int64
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    void_p = ctypes.c_void_p

    def sig(name, restype, *argtypes):
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = list(argtypes)

    sig("ck_new", void_p, *([i64] * 10))
    sig("ck_free", None, void_p)
    sig("ck_arr", p_i64, void_p, i64)
    sig("ck_get", i64, void_p, i64)
    sig("ck_step", i64, void_p)
    sig("ck_run", i64, void_p, *([i64] * 9))
    sig("ck_rng_words", void_p, void_p, i64)
    sig("ck_source_f64", ctypes.POINTER(ctypes.c_double), void_p)
    sig("ck_span_reserve", i64, void_p, i64, i64)
    sig("ck_twin_draws", None, void_p, p_i64, i64, ctypes.c_double,
        ctypes.c_double, ctypes.POINTER(ctypes.c_double))
    sig("ck_handle_new", i64, void_p)
    sig("ck_set_packet", None, void_p, *([i64] * 10))
    sig("ck_source_push", i64, void_p, i64, i64)
    sig("ck_wake", None, void_p, i64)
    sig("ck_lane_view", None, void_p, *([p_i64] * 5))
    sig("ck_total_buffered", i64, void_p)
    sig("ck_image_size", i64, void_p)
    sig("ck_dump", None, void_p, i64, ctypes.c_char_p)
    sig("ck_load", i64, void_p, i64, ctypes.c_char_p, i64)
    sig("ck_finish", i64, void_p, i64, i64)


def load_kernel_library() -> ctypes.CDLL:
    """The compiled kernel library, building it on first call (once,
    however many threads race to it).

    Raises :class:`CKernelUnavailable` (and memoizes the failure) when
    no compiler exists or the build fails; a later call fails fast.
    """
    global _LIB, _FAILED, _SPANS_OFF
    with _LOAD_LOCK:
        if _LIB is not None:
            return _LIB
        if _FAILED is not None:
            raise CKernelUnavailable(_FAILED)
        try:
            lib = _build_library()
        except CKernelUnavailable as exc:
            _FAILED = str(exc)
            raise
        _SPANS_OFF = _twin_mismatch(lib)
        if _SPANS_OFF is not None:
            warnings.warn(
                f"compiled span driver disabled ({_SPANS_OFF}); "
                "falling back to the per-cycle loop",
                RuntimeWarning,
                stacklevel=2,
            )
        _LIB = lib
        return _LIB


_MT_STATE = struct.Struct("625I")  # getstate()[1]: 624 words + the index


def twin_draws(lib, state: tuple, ops, xm: float, inv_alpha: float):
    """Run ``ops`` on the C twin from ``random.Random`` state ``state``
    -- 0 draws ``random()``, n > 0 draws ``randrange(n)`` (or ``choice``
    over n items), -1 a Pareto period; returns ``(values, state_after)``."""
    words = (ctypes.c_uint32 * len(state[1]))(*state[1])
    n = len(ops)
    out = (ctypes.c_double * n)()
    lib.ck_twin_draws(
        ctypes.addressof(words), (ctypes.c_int64 * n)(*ops), n, xm,
        inv_alpha, out,
    )
    return list(out), (state[0], tuple(words), state[2])


def python_draws(rng: random.Random, ops, xm: float, inv_alpha: float):
    """The same draws on ``rng`` itself -- the reference the twin must
    match: ``random()``, ``randrange(n)`` and the period arithmetic of
    :class:`repro.traffic.selfsimilar.ParetoOnOffSource`."""
    values = []
    for op in ops:
        if op == 0:
            values.append(rng.random())
        elif op > 0:
            values.append(float(rng.randrange(op)))
        else:
            values.append(float(max(
                1, int(round(xm / (rng.random() ** inv_alpha)))
            )))
    return values


def _twin_mismatch(lib) -> Optional[str]:
    """Compare 1,000 mixed draws of the C RNG twin with
    ``random.Random``."""
    plan = random.Random(1000)
    ops = [plan.choice((0, 0, -1, plan.randrange(2, 257)))
           for _ in range(1000)]
    xm, inv_alpha = 8.0, 1.0 / 1.25
    rng = random.Random(19937)
    got, state = twin_draws(lib, rng.getstate(), ops, xm, inv_alpha)
    if got != python_draws(rng, ops, xm, inv_alpha) or state != rng.getstate():
        return "the C RNG twin does not reproduce random.Random here"
    return None


def spans_disabled_reason() -> Optional[str]:
    """Why :meth:`CKernel.run` must not be used although the library
    loads (the load-time RNG twin check failed), else ``None``."""
    return _SPANS_OFF


def ckernel_available() -> bool:
    """True when the compiled kernel can be built and loaded here."""
    try:
        load_kernel_library()
    except CKernelUnavailable:
        return False
    return True


def unavailable_reason() -> Optional[str]:
    """Why the compiled kernel is unusable, or ``None`` if it loads."""
    try:
        load_kernel_library()
    except CKernelUnavailable as exc:
        return str(exc)
    return None


def warn_unavailable(reason: str) -> None:
    """Warn that ``kernel="c"`` degrades to event -- once per process for
    each distinct ``reason``."""
    if reason in _WARNED:
        return
    _WARNED.add(reason)
    warnings.warn(
        f"compiled cycle kernel unavailable ({reason}); "
        "falling back to the event kernel",
        RuntimeWarning,
        stacklevel=3,
    )


# -- array / scalar ids (must mirror the _ckernel.c enums exactly) ---------
(
    A_NPORTS, A_NVCS, A_DEPTH, A_EJ_PMASK, A_EJ_LANES, A_HAS_WIDE,
    A_ROUTE_TAB, A_OVC_CNT, A_CEIL, A_SLANES,
    A_LINK_R, A_LINK_P, A_LINK_DELAY, A_LINK_LANES, A_UP_R, A_UP_P,
    A_NODE_RID, A_NODE_PORT, A_NODE_LANES,
    A_ST_PID, A_ST_ROUTE, A_ST_OUTVC, A_NEED, A_CRED, A_OWNER,
    A_OCC, A_AM, A_CREDOK, A_IN_NEXT, A_OUT_NEXT, A_SEC_NEXT,
    A_NVA, A_OCCUPIED, A_VA_OFF,
    A_ACTW, A_SRCW,
    A_QS_PKT, A_QS_SEQ, A_QS_READY, A_QHEAD, A_QLEN,
    A_SRC_PKT, A_SRC_NEXT, A_SRC_VC,
    A_BW, A_BR, A_XB, A_RC, A_VA, A_ARB, A_CF, A_CS, A_MG, A_OC,
    A_LF, A_LB,
    A_PK_ID, A_PK_SRC, A_PK_DST, A_PK_NFLITS, A_PK_MINLANES, A_PK_HOPS,
    A_PK_INJ, A_PK_CREATED, A_PK_FLAGS, A_PK_LIVE,
    A_COLS,
    A_SS_ON, A_SS_REMAINING, A_DST_OFF, A_DST_TAB,
    A_TAKE,
) = range(72)

(
    S_CYCLE, S_ERR, S_ERR_A, S_ERR_B, S_ERR_C, S_PEND, S_PK_TOP,
    S_BORN, S_BODY_PENDING,
) = range(9)

#: ``pk_flags`` bits (the C ``PK_*`` enum).
PK_MEASURED, PK_HELD = 1, 2
#: the finished packets' tallies, zeroed once taken, then the stride of
#: the columns they fill (the C ``TAKE_*`` enum).
TAKE_ROWS, TAKE_FLITS, TAKE_RECORDS, TAKE_HELD, TAKE_STRIDE = range(5)
#: those columns (the C ``REC_*`` / ``HELD_*`` enum): a measured packet's
#: record, :class:`~repro.noc.stats.LatencyRecord`'s integer fields in its
#: order, then a held packet's handle, record index (-1: unmeasured), hops,
#: min lanes, injection and receive cycles.
HELD_HANDLE, TAKE_COLS = 9, 15

#: every code ``ck_step``/``ck_run`` can return (the C ``E_*`` enum, walked
#: by a test): exception type and message over the three error operands.
_ERRORS = {
    -1: (RuntimeError, "buffer overflow at router {a} port {b} vc {c}: "
                       "credit protocol violated"),
    -2: (RuntimeError, "credit overflow at router {a} port {b} vc {c}"),
    -3: (RuntimeError, "wormhole violation at router {a}: body flit of "
                       "packet {b} at queue head without its head flit"),
    -4: (RuntimeError, "switch traversal popped an unexpected flit"),
    -5: (RuntimeError, "negative credits at router {a} port {b} vc {c}"),
    -6: (MemoryError, "compiled kernel out of memory (record columns, "
                      "packet records or event calendar)"),
    -7: (RuntimeError, "event from router {a} port {b} scheduled outside "
                       "the calendar ring"),
    # what ParetoOnOffSource._pareto raises on a draw of exactly 0.0
    -8: (ZeroDivisionError, "float division by zero"),
    -9: (ValueError, "arena image refused at word {a} (read {b}, expected "
                     "{c}): another kernel source, network shape or a "
                     "truncated image"),
    # what NetworkStats.record_completions raises for the same packet
    -10: (RuntimeError, "packet {a} beat the per-hop pipeline bound ({b} < "
                        "{c} cycles); the router model violated its own "
                        "timing"),
}

_INJECTOR_KINDS = {"bernoulli": 0, "pareto": 1}
_PATTERN_KINDS = {"uniform": 0, "choice": 1, "fixed": 2}

#: the ``RouterActivity`` field each C activity-counter array adds onto.
_ACTIVITY_FIELDS = (
    (A_BW, "buffer_writes"), (A_BR, "buffer_reads"),
    (A_XB, "crossbar_traversals"), (A_RC, "route_computations"),
    (A_VA, "vc_allocations"), (A_ARB, "arbitrations"),
    (A_CF, "arbitration_conflicts"), (A_CS, "credit_stalls"),
    (A_MG, "merged_flit_pairs"), (A_OC, "occupancy_integral"),
)


def _arena_image(shape, tables, P: int, V: int) -> bytes:
    """The arena's first block (``A_NPORTS`` .. ``A_CREDOK``, in the order
    ``ck_new`` carves it) for a fresh network of ``shape`` routed by
    ``tables``: router shapes, link / upstream / node maps, route tables
    -- facts of the topology and the router configs, not of the run --
    then per-lane state with no packet anywhere and every credit home."""
    configs = shape.configs
    R = len(configs)
    RP, L = R * P, R * P * V
    ej_pmask, has_wide = [0] * R, [0] * R
    ovc_cnt, ceil, slanes = [0] * RP, [0] * RP, [0] * RP
    link_r, link_p = [-1] * RP, [0] * RP  # -1: no link on this port
    link_delay, link_lanes = [0] * RP, [0] * RP
    up_r, up_p = [-1] * RP, [0] * RP      # -1: local or edge port
    cred, credok = [0] * L, [0] * RP
    for rid, links in enumerate(shape.out_links):
        locals_ = shape.local_ports[rid]
        for port, link in enumerate(links):
            rp = rid * P + port
            vcs = ovc_cnt[rp] = shape.out_vcs[rid][port]
            depth = ceil[rp] = shape.out_depth[rid][port]
            cred[rp * V:rp * V + vcs] = [depth] * vcs
            if depth:
                credok[rp] = (1 << vcs) - 1
            if link is not None:
                slanes[rp] = link_lanes[rp] = link.lanes
                link_r[rp], link_p[rp] = link.dst_router, link.dst_port
                link_delay[rp] = link.delay
                if shape.merging and link.lanes >= 2:
                    has_wide[rid] = 1
                up_r[rp], up_p[rp] = shape.upstream[rid][port]
            elif port in locals_:
                ej_pmask[rid] |= 1 << port
                slanes[rp] = configs[rid].lanes
    image = array("q", shape.num_ports)
    for values in (
        [cfg.num_vcs for cfg in configs],
        [cfg.buffer_depth for cfg in configs],
        ej_pmask, shape.local_lanes, has_wide,
        *tables,
        ovc_cnt, ceil, slanes, link_r, link_p, link_delay, link_lanes,
        up_r, up_p,
        shape.node_router_id, shape.node_port, shape.node_lanes,
        [-1] * L, [-1] * L, [-2] * L,  # st_pid, st_route: None; st_outvc
        [0] * L, cred, [-1] * L,       # need; cred; owner: None
        [0] * RP, [0] * RP, credok,    # occ; am; credok
    ):
        image.extend(values)
    return image.tobytes()


def _members(words: List[int]) -> set:
    """The ids whose bits are set in a C bitmask of 64-bit words."""
    return {
        w * 64 + bit for w, word in enumerate(words) if word
        for bit in range(64) if word >> bit & 1
    }


@dataclass
class SpanSource:
    """A run's open-loop traffic source in the plain-data form ``ck_run``
    replays: ``pattern`` from :func:`repro.traffic.patterns.span_twin`,
    ``injector`` from :func:`repro.traffic.selfsimilar.span_twin`, and
    the run's own ``random.Random``.

    The first span lends ``rng`` and the injector's per-node streams and
    ON/OFF machines to the compiled kernel, which keeps drawing from its
    own copy span after span; the Python objects are stale until
    :meth:`Network.reclaim_span_source` (or a snapshot capture) hands the
    advanced state back."""

    pattern: tuple
    injector: tuple
    rng: random.Random


@dataclass
class Span:
    """What :meth:`Network.step` takes to advance whole cycles in C.

    Cycles run until ``max_cycles`` have passed, or the next cycle could
    take the packet count past ``birth_budget`` (every node firing), or
    ``need_measured`` measured packets have finished -- whichever comes
    first; ``None`` lifts either of the last two.  ``created`` packets
    exist when the span starts; births from creation index
    ``measure_from`` on are measured (``None``: none are).  The birth of
    creation index ``measure_from`` calls ``open_window`` (if given)
    after that cycle's injections and before its body, with the
    network's cycle, counters and packet count brought up to there; it
    returns how many more cycles the span may run (at least 1, the
    pending cycle), and the span carries on."""

    source: SpanSource
    max_cycles: int
    created: int = 0
    measure_from: Optional[int] = None
    birth_budget: Optional[int] = None
    need_measured: Optional[int] = None
    open_window: Optional[Callable[[], int]] = None


class CKernel:
    """The live compiled kernel bound to one network.

    Constructed by :meth:`Network._activate_ck` before the network's
    first step, when ``kernel="c"`` is requested and eligible; raises
    :class:`CKernelUnavailable` when the library cannot load or the
    network shape breaks a kernel precondition (more than 62 ports or
    VCs per router).  The C arena lives exactly as long as this object:
    dropping the kernel (or the network holding it) releases it at
    collection.  Pickled, the kernel is its arena image and handle
    table; the unpickled network calls :meth:`reopen` to rebuild it.
    """

    def __init__(self, net) -> None:
        #: handle -> Packet for the packets Python holds an object for
        #: (the ones handed to :meth:`Network.enqueue`); ``None`` for free
        #: handles and for packets born in a span, which exist only as C
        #: records.  The allocator itself lives in C.
        self._handles: List[Optional[Packet]] = []
        self._open(net, self._pack)

    def __getstate__(self) -> Tuple[bytes, List[Optional[Packet]]]:
        # The handle table's Packets pickle with the rest of the graph,
        # so a packet the caller also holds stays one object.
        self._refuse_while_lent("pickling the compiled kernel")
        return self.image(), self._handles

    def __setstate__(self, state) -> None:
        self._image, self._handles = state

    def reopen(self, net) -> None:
        """Rebuild the arena of an unpickled kernel for ``net``, the
        network it was pickled with (raises :class:`CKernelUnavailable`
        without a compiler, ``ValueError`` for an image of another
        kernel source or shape)."""
        image = self.__dict__.pop("_image")
        self._open(net, lambda: self._load(image))

    def _open(self, net, fill) -> None:
        """Allocate the arena for ``net``, write the shape's image, then
        the dynamic state ``fill`` brings."""
        lib = load_kernel_library()
        shape = net._shape
        R = len(shape.configs)
        #: uniform strides: the shape's lane strides, max ports / max VCs
        #: over the routers (lanes for ports or VCs a router does not
        #: have are never touched).
        P, V = shape.lane_ports, shape.lane_vcs
        if P > 62 or V > 62:
            raise CKernelUnavailable(
                f"router shape too wide for the bitmask kernel "
                f"(ports={P}, vcs={V}, limit 62)"
            )
        cd = net._credit_delay
        #: weak: the network owns this kernel, and a strong reference
        #: back would leave every dropped network (and its C arena)
        #: waiting for the cycle collector.
        self.net = weakref.proxy(net)
        self.lib = lib
        self.R, self.P, self.V = R, P, V
        self.L = R * P * V
        self.RP = R * P
        self.D = max(cfg.buffer_depth for cfg in shape.configs)
        self.nnodes = net.topology.num_nodes
        self.cal_sz = max(cd, shape.max_link_delay) + 1
        po = net.config.router_pipeline_stages - 1
        ck = lib.ck_new(
            R, P, V, self.nnodes, po, cd,
            1 if net._merging else 0, self.cal_sz, self.D,
            net.config.link_delay,
        )
        if not ck:
            raise CKernelUnavailable("ck_new returned NULL (out of memory)")
        self._ck = ck
        self._finalizer = weakref.finalize(self, lib.ck_free, ck)
        #: the finished packets' tallies (``TAKE_*``), read in place
        self._tally = self._view(A_TAKE, TAKE_STRIDE + 1)
        #: the columns they fill, read in place, and the stride they were
        #: read at (C moves them only when the stride grows)
        self._cols: Optional[memoryview] = None
        self._stride = 0
        self._hmap: Dict[int, int] = {  # id(packet) -> handle
            id(packet): h for h, packet in enumerate(self._handles)
            if packet is not None
        }
        #: while a :class:`SpanSource` is lent to the C side: the source,
        #: each stream as ``(address of its C words, random.Random,
        #: getstate() when lent)``, and the ``(injector, pattern)`` ids
        #: ``ck_run`` takes for it.
        self._lent: Optional[Tuple[SpanSource, list, Tuple[int, int]]] = None
        try:
            self._fill_static()
            fill()
        except Exception:
            self._finalizer()
            raise

    # -- raw accessors ----------------------------------------------------
    def _arr(self, aid: int):
        return self.lib.ck_arr(self._ck, aid)

    def _view(self, aid: int, n: int):
        """A sized ctypes array over array ``aid`` (pointers only support
        slice *reads*; views support slice assignment too)."""
        ptr = self.lib.ck_arr(self._ck, aid)
        return ctypes.cast(
            ptr, ctypes.POINTER(ctypes.c_int64 * n)
        ).contents

    # -- packet handles ---------------------------------------------------
    def _handle(self, packet: Packet) -> int:
        h = self._hmap.get(id(packet))
        if h is not None:
            return h
        h = self.lib.ck_handle_new(self._ck)
        if h < 0:
            self._raise_error(h)
        handles = self._handles
        if h >= len(handles):
            handles.extend([None] * (h + 1 - len(handles)))
        handles[h] = packet
        self._hmap[id(packet)] = h
        self.lib.ck_set_packet(
            self._ck, h, packet.packet_id, packet.src, packet.dst,
            packet.num_flits,
            -1 if packet.injected_at is None else packet.injected_at,
            -1 if packet.min_lanes is None else packet.min_lanes,
            packet.hops, packet.created_at,
            PK_HELD | PK_MEASURED if packet.measured else PK_HELD,
        )
        return h

    # -- the arena's state --------------------------------------------------
    def _fill_static(self) -> None:
        """Write the static tensors and a fresh network's per-lane state:
        one memmove of the shape's arena image (built by the shape's
        first kernel under these route tables)."""
        net = self.net
        shape, tables = net._shape, net._route_tables
        arena = shape.arena
        if arena is None or arena[0] is not tables:
            arena = shape.arena = (
                tables, _arena_image(shape, tables, self.P, self.V)
            )
        ctypes.memmove(self._arr(A_NPORTS), arena[1], len(arena[1]))

    def _pack(self) -> None:
        """Take over the packets queued at the sources of a network that
        has not stepped; the rest of its state is the fresh state
        :meth:`_fill_static` wrote."""
        net = self.net
        for source in net.sources:
            for packet in source.queue:
                self.enqueue_packet(packet)
            source.queue.clear()
        net._active_sources.clear()

    def image(self) -> bytes:
        """The arena's dynamic state, as ``ck_dump`` lays it out (see
        ``_ckernel.c``)."""
        lib, ck = self.lib, self._ck
        buffer = ctypes.create_string_buffer(8 * lib.ck_image_size(ck))
        lib.ck_dump(ck, lib.source_key, buffer)
        return buffer.raw

    def _load(self, image: bytes) -> None:
        lib = self.lib
        rc = lib.ck_load(self._ck, lib.source_key, image, len(image) // 8)
        if rc:
            self._raise_error(rc)

    # -- stepping ---------------------------------------------------------
    def step(self) -> None:
        self._refuse_while_lent("step()")
        net = self.net
        cycle = net.cycle
        rows = self.lib.ck_step(self._ck)
        if rows < 0:
            self._raise_error(rows)
        if rows:
            self._take()
        net.cycle = cycle + 1

    def run(self, span: Span) -> Tuple[int, int]:
        """Advance a whole :class:`Span`; returns ``(cycles run, packets
        created)``.

        Only valid while nothing needs a per-packet Python callback
        (:meth:`Network.span_blocker` is the gate)."""
        kinds = self._lend(span.source)
        ran, born = self._advance(span, span.max_cycles, span.created, kinds)
        if self.lib.ck_get(self._ck, S_BODY_PENDING):
            # The birth of creation index measure_from: the window opens
            # before this cycle's body, which the second call runs first.
            room = span.max_cycles - ran
            if span.open_window is not None:
                room = min(room, span.open_window())
            more, born_more = self._advance(
                span, room, span.created + born, kinds
            )
            ran, born = ran + more, born + born_more
        return ran, born

    def _advance(self, span: Span, max_cycles: int, created: int,
                 kinds: Tuple[int, int]) -> Tuple[int, int]:
        """One ``ck_run`` of ``span`` from ``created`` packets, its cycles,
        births and completions brought onto the network."""
        net = self.net
        lib = self.lib
        ck = self._ck
        measure_from = span.measure_from
        limits = [
            -1 if limit is None else limit
            for limit in (measure_from, span.birth_budget, span.need_measured)
        ]
        ran = lib.ck_run(
            ck, max_cycles, created, *limits,
            net.next_packet_id, net._default_packet_flits, *kinds,
        )
        if ran < 0:
            self._raise_error(ran)
        born = lib.ck_get(ck, S_BORN)
        net.next_packet_id += born
        net.packets_in_flight += born
        net.cycle += ran
        self._take()
        if measure_from is not None:
            net._stats.packets_offered += max(
                0, created + born - max(created, measure_from)
            )
        return ran, born

    def _take(self) -> None:
        """Bring the packets finished since the last take onto the
        network, a cycle's or a span's: the counters from C's tallies,
        the latency records C wrote onto the sample, then each held
        Packet finished, and ``on_delivery`` fired for it, in finishing
        order."""
        tally = self._tally
        rows, flits, records, held, stride = tally[:]
        if not rows:
            return
        tally[:TAKE_STRIDE] = (0,) * TAKE_STRIDE
        net = self.net
        if stride != self._stride:
            cols = self._view(A_COLS, TAKE_COLS * stride)
            self._cols = memoryview(cols).cast("B").cast("q")
            self._stride = stride
        cols = self._cols
        classes = ["data"] * records
        released: List[Packet] = []
        if held:
            handles = self._handles
            for h, record, hops, lanes, injected, received in zip(*[
                cols[at:at + held].tolist()
                for at in range(HELD_HANDLE * stride, TAKE_COLS * stride,
                                stride)
            ]):
                # C released the handle already: forget the packet
                packet = handles[h]
                handles[h] = None
                del self._hmap[id(packet)]
                packet.hops = hops
                packet.min_lanes = None if lanes < 0 else lanes
                packet.injected_at = injected
                packet.received_at = received
                if record >= 0:
                    classes[record] = packet.packet_class
                released.append(packet)
        if records:
            net._stats.add_records(*[
                cols[at:at + records].tolist()
                for at in range(0, HELD_HANDLE * stride, stride)
            ], classes)
        net.packets_in_flight -= rows
        net.total_delivered += rows
        net._clean_flits += flits
        on_delivery = net.on_delivery
        if on_delivery is not None:
            for packet in released:
                on_delivery(packet, packet.received_at)

    def _lend(self, source: SpanSource) -> Tuple[int, int]:
        """Make ``source`` the one the C side draws from -- tables,
        constants, ON/OFF machines and every RNG stream as it stands --
        unless it already is; returns its ``(injector kind, pattern kind)``
        ids.  :meth:`hand_back` returns the advanced streams."""
        if self._lent is not None:
            if self._lent[0] is source:
                return self._lent[2]
            self.hand_back()
        lib = self.lib
        ck = self._ck
        nnodes = self.nnodes
        pattern_kind, rows = source.pattern
        injector_kind, rate, sources = source.injector
        flat, offsets = [], [0]
        if rows is not None:
            # ck_run indexes with these unchecked: validate here.
            if len(rows) != nnodes or not all(
                row and all(0 <= dst < nnodes for dst in row) for row in rows
            ):
                raise ValueError(
                    "span pattern rows must give every node at least one "
                    f"destination in [0, {nnodes})"
                )
            for row in rows:
                flat.extend(row)
                offsets.append(len(flat))
        if lib.ck_span_reserve(ck, 1 if sources else 0, len(flat)):
            self._raise_error(-6)
        if flat:
            self._view(A_DST_OFF, nnodes + 1)[:] = offsets
            self._view(A_DST_TAB, len(flat))[:] = flat

        streams = [(lib.ck_rng_words(ck, 0), source.rng)]
        constants = [rate]
        if sources:
            if len(sources) != nnodes:
                raise ValueError("span injector needs one source per node")
            base = lib.ck_rng_words(ck, 1)
            size = _MT_STATE.size
            for node, src in enumerate(sources):
                streams.append((base + node * size, src.rng))
                constants.extend(src.span_constants())
            self._view(A_SS_ON, nnodes)[:] = [int(s.on) for s in sources]
            self._view(A_SS_REMAINING, nnodes)[:] = [
                s.remaining for s in sources
            ]
        ctypes.cast(
            lib.ck_source_f64(ck),
            ctypes.POINTER(ctypes.c_double * len(constants)),
        ).contents[:] = constants
        lent = []
        for address, rng in streams:
            state = rng.getstate()
            ctypes.memmove(address, _MT_STATE.pack(*state[1]),
                           _MT_STATE.size)
            lent.append((address, rng, state))
        kinds = (_INJECTOR_KINDS[injector_kind], _PATTERN_KINDS[pattern_kind])
        self._lent = (source, lent, kinds)
        return kinds

    def hand_back(self) -> None:
        """Return a lent :class:`SpanSource` to its Python objects: every
        RNG stream and ON/OFF machine where the C side's last draw left
        it.  No-op when nothing is lent."""
        if self._lent is None:
            return
        source, streams, _ = self._lent
        self._lent = None
        for address, rng, state in streams:
            words = _MT_STATE.unpack(
                ctypes.string_at(address, _MT_STATE.size)
            )
            rng.setstate((state[0], words, state[2]))
        sources = source.injector[2]
        if sources:
            nnodes = self.nnodes
            on = self._arr(A_SS_ON)[0:nnodes]
            remaining = self._arr(A_SS_REMAINING)[0:nnodes]
            for src, src_on, src_left in zip(sources, on, remaining):
                src.on = bool(src_on)
                src.remaining = src_left

    def _refuse_while_lent(self, what: str) -> None:
        """Per-cycle driving draws from the Python streams, which are
        stale while a span's source is lent: say so instead of letting a
        run silently diverge."""
        if self._lent is not None:
            raise RuntimeError(
                f"{what} while a span's traffic source is lent to the "
                "compiled kernel: call Network.reclaim_span_source() first"
            )

    def _raise_error(self, code: int) -> None:
        lib, ck = self.lib, self._ck
        kind, message = _ERRORS[code]
        raise kind(message.format(
            a=lib.ck_get(ck, S_ERR_A), b=lib.ck_get(ck, S_ERR_B),
            c=lib.ck_get(ck, S_ERR_C),
        ))

    # -- network-facing helpers -------------------------------------------
    def enqueue_packet(self, packet: Packet) -> None:
        """Append ``packet`` to its node's C-side source queue."""
        self._refuse_while_lent("enqueue()")
        if self.lib.ck_source_push(
            self._ck, packet.src, self._handle(packet)
        ):
            raise MemoryError("ck_source_push failed")

    def pending_events(self) -> bool:
        """True while scheduled arrival/credit events remain undelivered
        (the drain-loop quiesce condition)."""
        return self.lib.ck_get(self._ck, S_PEND) > 0

    def total_buffered_flits(self) -> int:
        return self.lib.ck_total_buffered(self._ck)

    def _ints(self, aid: int, n: int) -> List[int]:
        """The first ``n`` ints of array ``aid``, copied into a list."""
        return memoryview(ctypes.string_at(self._arr(aid), 8 * n)).cast(
            "q"
        ).tolist()

    def unflushed_moves(self) -> int:
        """Crossbar traversals plus buffer writes the C counters hold
        that :meth:`flush_activity` has not yet added onto the network."""
        return sum(self._ints(A_XB, self.R)) + sum(self._ints(A_BW, self.R))

    def lane_view(self):
        """The arena as a :class:`~repro.noc.network.LaneView`: its lane
        arrays copied out, the rest gathered by ``ck_lane_view``."""
        from repro.noc.network import LaneView

        ints = self._ints
        R, L, RP, nnodes = self.R, self.L, self.RP, self.nnodes
        gathered = [(ctypes.c_int64 * n)() for n in (L, L, L, L, nnodes)]
        self.lib.ck_lane_view(self._ck, *gathered)
        head, indexed, on_link, returning, waiting = (
            memoryview(column).cast("B").cast("q").tolist()
            for column in gathered
        )
        shape = self.net._shape
        return LaneView(
            P=self.P, V=self.V,
            claim=ints(A_ST_PID, L), route=ints(A_ST_ROUTE, L),
            out_vc=ints(A_ST_OUTVC, L), qlen=ints(A_QLEN, L), head=head,
            indexed=indexed, credits=ints(A_CRED, L), owner=ints(A_OWNER, L),
            on_link=on_link, returning=returning,
            occupied=ints(A_OCCUPIED, R), depth=ints(A_DEPTH, R),
            port_active=[mask.bit_count() for mask in ints(A_OCC, RP)],
            ceiling=ints(A_CEIL, RP), out_vcs=ints(A_OVC_CNT, RP),
            active_routers=_members(ints(A_ACTW, (R + 63) // 64)),
            active_sources=_members(ints(A_SRCW, (nnodes + 63) // 64)),
            queued=[
                node for node, (queue, mid) in enumerate(
                    zip(waiting, ints(A_SRC_PKT, nnodes))
                ) if queue or mid >= 0
            ],
            channels=shape.channel_lanes,
        )

    # -- activity & link-stat flushing ------------------------------------
    def flush_activity(self) -> None:
        """Add the C-side activity and link counters onto the network's
        totals -- its RouterActivity objects and per-port link counts --
        zeroing the C side (:meth:`Network.sync_stats` calls this)."""
        R, P, RP = self.R, self.P, self.RP
        net = self.net
        activities = net._activities
        for aid, field in _ACTIVITY_FIELDS:
            counts = self._view(aid, R)
            for rid, count in enumerate(counts[:]):
                if count:
                    activity = activities[rid]
                    setattr(activity, field, getattr(activity, field) + count)
            ctypes.memset(counts, 0, ctypes.sizeof(counts))
        for aid, totals in ((A_LF, net._link_flits),
                            (A_LB, net._link_busy)):
            counts = self._view(aid, RP)
            for rp, count in enumerate(counts[:]):
                if count:
                    totals[rp // P][rp % P] += count
            ctypes.memset(counts, 0, ctypes.sizeof(counts))
