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
* **bridge** -- :class:`CKernel` is the one codec between the object
  model and the arena, one hop each way.  Packing copies the shape's
  arena image (static tensors -- shapes, link/upstream/node maps, route
  tables -- and a fresh network's per-lane state) in one memmove, then,
  if the network has built its :class:`~repro.noc.router.Router`
  objects, walks them once for the live state: per-lane scalars indexed
  ``(router * P + port) * V + vc``, per-port VC bitmasks and arbiter
  pointers, the active sets, queues as packet-handle/flit-index rings,
  calendars of pending arrival/credit events; then per-node source
  queues and packet records.
  :meth:`CKernel.sync` reads the arena and writes the same fields of the
  ``Router`` / ``_VCState`` / allocator / source objects back --
  including rebuilding the shared :class:`~repro.noc.flit.Flit` deques
  and the event buckets -- so mid-run kernel switches, snapshots and the
  differential digests stay bit-identical.  Nothing on the Python side
  mirrors an arena array; what stays here is what the arena cannot
  hold: the packet handle table (C knows packets as integers), the
  routers' own flit deques (sync refills them in place, so every
  reference to them stays valid) and the
  :class:`~repro.noc.stats.RouterActivity` objects the C counters are
  added onto at measurement boundaries and on sync.
* **spans** -- :meth:`CKernel.run` advances a whole :class:`Span` of
  cycles with the open-loop traffic source inside the C loop
  (``ck_run``), the opening of the measurement window included: C marks
  the births that fall in the window and comes back to Python between
  the injections and the body of the cycle that opens it.  A span ends
  before a cycle that could overshoot its birth budget, so the last
  packets of a run's target are born on the per-cycle loop.  The run's
  ``random.Random``, the per-node Pareto streams and the ON/OFF machines
  are *lent* to C at the first span (``getstate()`` in) and stay there,
  so every stream continues draw for draw across spans; they are handed
  back (``setstate()`` out) when Python next needs them --
  :meth:`CKernel.sync`, hence snapshots and every kernel switch or
  teardown, and :meth:`Network.reclaim_span_source` before a run falls
  to the per-cycle loop and at its end.  While they are lent,
  :meth:`CKernel.step` and :meth:`CKernel.enqueue_packet` refuse to run.
  A load-time self-check compares the C twin of
  ``random()``/``randrange``/``choice``/the Pareto period against
  ``random.Random``; a mismatch disables spans (one warning) and the
  per-cycle loop carries every run.
* **fallback** -- when no compiler is available (or the compile or a
  precondition fails), :func:`load_kernel_library` or the
  :class:`CKernel` constructor raises :class:`CKernelUnavailable`; the
  network warns once per process *and reason*, keeps the reason for
  :meth:`Network.span_blocker`, and the ``event`` kernel carries the
  run, as it does whenever faults/observers/watchdogs attach.  The ladder is ``c -> event`` and
  both rungs are bit-identical, so a compiler-less host asking for
  ``"c"`` runs at event speed (EXPERIMENTS.md, "Fallback rules").

Packets cross the FFI as integer handles from one C-side allocator.
Packets handed to :meth:`Network.enqueue` keep their Python object in a
handle table; packets born inside a span exist only as C records until
they finish (a row of the completion log) or until :meth:`CKernel.sync`
materialises the in-flight ones as :class:`~repro.noc.flit.Packet`
objects.  Per-cycle stepping flushes the log through
``Network._complete_packet``, so latency records, callbacks and
``packets_in_flight`` behave exactly as under the other kernels; a span
reduces its rows, as columns, straight into the stats' latency sample.
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
from itertools import compress
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.noc.flit import Flit, FlitType, Packet

_SOURCE = Path(__file__).with_name("_ckernel.c")
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

_MASK64 = (1 << 64) - 1


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


def _build_library() -> ctypes.CDLL:
    compiler = find_compiler()
    if compiler is None:
        raise CKernelUnavailable("no C compiler found on PATH")
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise CKernelUnavailable(f"cannot read {_SOURCE.name}: {exc}")
    key = hashlib.sha256(
        source + compiler.encode() + " ".join(_CFLAGS + _LDLIBS).encode()
    ).hexdigest()[:20]
    directory = cache_dir()
    so_path = directory / f"ckernel-{key}.so"
    if not so_path.exists():
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CKernelUnavailable(f"cannot create {directory}: {exc}")
        tmp = directory / f"ckernel-{key}.{os.getpid()}.tmp.so"
        cmd = [compiler, *_CFLAGS, "-o", str(tmp), str(_SOURCE), *_LDLIBS]
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
    return lib


def _bind(lib: ctypes.CDLL) -> None:
    i64 = ctypes.c_int64
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    void_p = ctypes.c_void_p

    def sig(name, restype, *argtypes):
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = list(argtypes)

    sig("ck_new", void_p, *([i64] * 9))
    sig("ck_free", None, void_p)
    sig("ck_arr", p_i64, void_p, i64)
    sig("ck_get", i64, void_p, i64)
    sig("ck_set", None, void_p, i64, i64)
    sig("ck_step", i64, void_p, i64)
    sig("ck_run", i64, void_p, *([i64] * 10))
    sig("ck_rng_words", void_p, void_p, i64)
    sig("ck_source_f64", ctypes.POINTER(ctypes.c_double), void_p)
    sig("ck_span_reserve", i64, void_p, i64, i64)
    sig("ck_twin_draws", None, void_p, p_i64, i64, ctypes.c_double,
        ctypes.c_double, ctypes.POINTER(ctypes.c_double))
    sig("ck_handle_new", i64, void_p)
    sig("ck_set_packet", None, void_p, *([i64] * 10))
    sig("ck_source_push", i64, void_p, i64, i64)
    sig("ck_source_len", i64, void_p, i64)
    sig("ck_source_at", i64, void_p, i64, i64)
    sig("ck_src_wake", None, void_p, i64)
    sig("ck_queue_push", i64, void_p, i64, i64, i64, i64)
    sig("ck_act_push", None, void_p, i64, i64)
    sig("ck_act_len", i64, void_p, i64)
    sig("ck_act_at", i64, void_p, i64, i64)
    sig("ck_sched_arrival", i64, void_p, *([i64] * 6))
    sig("ck_sched_credit", i64, void_p, *([i64] * 5))
    sig("ck_bucket_len", i64, void_p, i64, i64)
    sig("ck_bucket_ptr", p_i64, void_p, i64, i64)
    sig("ck_wake", None, void_p, i64)
    sig("ck_total_buffered", i64, void_p)


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
    A_PK_INJ, A_PK_CREATED, A_PK_MEASURED, A_PK_LIVE,
    A_LOG,
    A_SS_ON, A_SS_REMAINING, A_DST_OFF, A_DST_TAB,
) = range(71)

(
    S_CYCLE, S_ERR, S_ERR_A, S_ERR_B, S_ERR_C, S_NLOG, S_PEND, S_PK_TOP,
    S_BORN, S_BODY_PENDING,
) = range(10)

#: ints per completion-log row, in this order (the C ``LOG_*`` enum).
(
    LOG_HANDLE, LOG_ID, LOG_SRC, LOG_DST, LOG_NFLITS, LOG_HOPS, LOG_CREATED,
    LOG_INJ, LOG_MINLANES, LOG_MEASURED, LOG_RECEIVED, LOG_WIDTH,
) = range(12)
#: the log fields :meth:`NetworkStats.record_completions` takes, in its
#: argument order (the class names follow them).
_SAMPLE_FIELDS = (
    LOG_ID, LOG_SRC, LOG_DST, LOG_NFLITS, LOG_HOPS, LOG_CREATED, LOG_INJ,
    LOG_MINLANES, LOG_RECEIVED,
)
#: rows a span reduces per ctypes slice: bounds the transient list of
#: Python ints a 100,000-packet drain would otherwise build in one go.
_SPAN_LOG_ROWS = 8192

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
    -6: (MemoryError, "compiled kernel out of memory (completion log, "
                      "packet records or event calendar)"),
    -7: (RuntimeError, "event from router {a} port {b} scheduled outside "
                       "the calendar ring"),
    # what ParetoOnOffSource._pareto raises on a draw of exactly 0.0
    -8: (ZeroDivisionError, "float division by zero"),
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


def _to_i64(word: int) -> int:
    """Reinterpret an unsigned 64-bit word as ctypes' signed int64."""
    word &= _MASK64
    return word - (1 << 64) if word >= (1 << 63) else word


def _set_bits(words, n: int) -> set:
    """The indices below ``n`` whose bit is set in the (signed) 64-bit
    ``words`` of a C bitset."""
    return {i for i in range(n) if words[i >> 6] >> (i & 63) & 1}


def _span_born(pid: int, src: int, dst: int, flits: int, created: int,
               measured: int) -> Packet:
    """The Packet ``Network.make_packet`` would have built for a packet
    that ``ck_run`` created, under the id C drew for it."""
    return Packet(src=src, dst=dst, num_flits=flits, created_at=created,
                  packet_id=pid, measured=bool(measured))


def _mirror(packet: Packet, hops: int, lanes: int, injected: int) -> None:
    """Copy the in-network fields of a C packet record onto ``packet``."""
    packet.hops = hops
    packet.min_lanes = None if lanes < 0 else lanes
    packet.injected_at = None if injected < 0 else injected


@dataclass
class SpanSource:
    """A run's open-loop traffic source in the plain-data form ``ck_run``
    replays: ``pattern`` from :func:`repro.traffic.patterns.span_twin`,
    ``injector`` from :func:`repro.traffic.selfsimilar.span_twin`, and
    the run's own ``random.Random``.

    The first span lends ``rng`` and the injector's per-node streams and
    ON/OFF machines to the compiled kernel, which keeps drawing from its
    own copy span after span; the Python objects are stale until
    :meth:`Network.reclaim_span_source` (or anything that syncs or tears
    the kernel down) hands the advanced state back."""

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
    ``measure_from`` on are measured (``None``: none are), and the first
    of them opens the network's measurement window between its cycle's
    injections and that cycle's body."""

    source: SpanSource
    max_cycles: int
    created: int = 0
    measure_from: Optional[int] = None
    birth_budget: Optional[int] = None
    need_measured: Optional[int] = None


class CKernel:
    """The live compiled kernel bound to one network.

    Constructed by :meth:`Network._activate_ck` when ``kernel="c"`` is
    requested and eligible; raises :class:`CKernelUnavailable` when the
    library cannot load or the network shape breaks a kernel
    precondition (more than 62 ports or VCs per router).  The C arena
    lives exactly as long as this object: :meth:`free` releases it
    eagerly, and dropping the kernel (or the network holding it)
    releases it at collection.
    """

    def __init__(self, net) -> None:
        lib = load_kernel_library()
        shape = net._shape
        R = len(shape.configs)
        #: uniform strides: max ports / max VCs over the routers (lanes
        #: for ports or VCs a router does not have are never touched).
        P = max(shape.num_ports)
        V = max(cfg.num_vcs for cfg in shape.configs)
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
        )
        if not ck:
            raise CKernelUnavailable("ck_new returned NULL (out of memory)")
        self._ck = ck
        self._finalizer = weakref.finalize(self, lib.ck_free, ck)
        #: handle -> Packet for the packets Python holds an object for
        #: (enqueued ones, and span-born ones once sync() materialised
        #: them); ``None`` for free handles and for packets that so far
        #: exist only as C records.  The allocator itself lives in C.
        self._handles: List[Optional[Packet]] = []
        self._hmap: Dict[int, int] = {}  # id(packet) -> handle
        #: the routers' own flit deques by lane, once :meth:`_lane_queues`
        #: has gathered them from the built routers.
        self._queues: Optional[List[Optional[object]]] = None
        #: True while net._arrivals/_credits hold a sync() mirror of the
        #: C calendars; the next step() drops it (C stays authoritative).
        self._mirrored = False
        #: while a :class:`SpanSource` is lent to the C side: the source,
        #: each stream as ``(address of its C words, random.Random,
        #: getstate() when lent)``, and the ``(injector, pattern)`` ids
        #: ``ck_run`` takes for it.
        self._lent: Optional[Tuple[SpanSource, list, Tuple[int, int]]] = None
        try:
            self._fill_static()
            self._pack()
        except Exception:
            self.free()
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

    def free(self) -> None:
        """Release the C arena now (idempotent); streams still lent to
        it (no :meth:`sync` came first) are lost with it."""
        self._finalizer()
        self._ck = None
        self._lent = None

    # -- packet handles ---------------------------------------------------
    def _handle(self, packet: Packet) -> int:
        h = self._hmap.get(id(packet))
        if h is not None:
            return h
        h = self.lib.ck_handle_new(self._ck)
        if h < 0:
            self._raise_error(h)
        self._hold(h, packet)
        self.lib.ck_set_packet(
            self._ck, h, packet.packet_id, packet.src, packet.dst,
            packet.num_flits,
            -1 if packet.injected_at is None else packet.injected_at,
            -1 if packet.min_lanes is None else packet.min_lanes,
            packet.hops, packet.created_at, 1 if packet.measured else 0,
        )
        return h

    def _hold(self, h: int, packet: Packet) -> None:
        handles = self._handles
        if h >= len(handles):
            handles.extend([None] * (h + 1 - len(handles)))
        handles[h] = packet
        self._hmap[id(packet)] = h

    def _held(self, h: int) -> Optional[Packet]:
        """The Packet object behind handle ``h``; ``None`` for a packet
        born in a span that exists only as its C record."""
        handles = self._handles
        return handles[h] if h < len(handles) else None

    def _let_go(self, h: int, packet: Packet) -> None:
        """Forget a finished packet (C released the handle already)."""
        del self._hmap[id(packet)]
        self._handles[h] = None

    # -- pack: Python -> C ------------------------------------------------
    def _put(self, aid: int, values: list) -> None:
        """Write ``values`` over the first ``len(values)`` ints of array
        ``aid``."""
        self._view(aid, len(values))[:] = values

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

    def _lane_queues(self) -> List[Optional[object]]:
        """The routers' own flit deques by lane (``None`` where a router
        has no such port/VC): the C rings hold the contents while the
        kernel is live, sync() refills these very objects."""
        if self._queues is None:
            P, V = self.P, self.V
            queues: List[Optional[object]] = [None] * self.L
            for rid, r in enumerate(self.net.routers):
                for port, states in enumerate(r._vc_states):
                    lane = (rid * P + port) * V
                    for vc, state in enumerate(states):
                        queues[lane + vc] = state.queue
            self._queues = queues
        return self._queues

    def _pack(self) -> None:
        """Write the live state of the object model over the fresh state
        :meth:`_fill_static` left; the arena owns it until :meth:`sync`.
        Routers a network never built are in that fresh state already."""
        net = self.net
        lib = self.lib
        ck = self._ck
        lib.ck_set(ck, S_CYCLE, net.cycle)
        if net._routers is not None:
            self._pack_routers()

        # sources: queued packets, mid-injection state, active-set bits
        src_pkt = self._arr(A_SRC_PKT)
        src_next = self._arr(A_SRC_NEXT)
        src_vc = self._arr(A_SRC_VC)
        for node, source in enumerate(net.sources):
            for packet in source.queue:
                if lib.ck_source_push(ck, node, self._handle(packet)):
                    raise MemoryError("ck_source_push failed")
            if source.next_flit < len(source.flits):
                src_pkt[node] = self._handle(source.flits[0].packet)
                src_next[node] = source.next_flit
                src_vc[node] = source.vc
        # srcw already has bits for queued nodes; add the conservative
        # active-source superset so pruning matches the event kernel.
        for node in net._active_sources:
            lib.ck_src_wake(ck, node)

        # pending events -> calendars (then C owns them)
        for when, events in net._arrivals.items():
            for rid, port, vc, flit in events:
                rc = lib.ck_sched_arrival(
                    ck, when, rid, port, vc, self._handle(flit.packet),
                    flit.index,
                )
                if rc:
                    raise CKernelUnavailable(
                        f"arrival event at cycle {when} outside the "
                        "calendar ring"
                    )
        for when, events in net._credits.items():
            for rid, port, vc, release in events:
                rc = lib.ck_sched_credit(
                    ck, when, rid, port, vc, 1 if release else 0
                )
                if rc:
                    raise CKernelUnavailable(
                        f"credit event at cycle {when} outside the "
                        "calendar ring"
                    )
        net._arrivals.clear()
        net._credits.clear()

        # cache stable array pointers for the hot step/sync paths
        self._qs_pkt = self._arr(A_QS_PKT)
        self._qs_seq = self._arr(A_QS_SEQ)
        self._qs_ready = self._arr(A_QS_READY)
        self._qhead = self._arr(A_QHEAD)
        self._qlen = self._arr(A_QLEN)

    def _pack_routers(self) -> None:
        """The routers' part of :meth:`_pack`."""
        net = self.net
        lib = self.lib
        ck = self._ck
        R, P, V, L, RP = self.R, self.P, self.V, self.L, self.RP
        # per-lane scalars, per-port masks and arbiter pointers
        st_pid, st_route = [-1] * L, [-1] * L  # -1: None
        st_outvc = [-2] * L                    # -2: None, -1: ejection
        need = [0] * L                         # lane needs RC/VA
        cred, owner = [0] * L, [-1] * L        # owner -1: None
        occ, am, credok = [0] * RP, [0] * RP, [0] * RP
        in_next, out_next, sec_next = [0] * RP, [0] * RP, [0] * RP
        nva = [0] * R                          # needy lanes per router
        for rid, r in enumerate(net.routers):
            allocator = r.allocator
            for port in range(r.num_ports):
                rp = rid * P + port
                lane = rp * V
                in_next[rp] = allocator.input_stage[port]._next
                out_next[rp] = allocator.output_stage[port]._next
                sec_next[rp] = allocator.second_output_stage[port]._next
                owners = r.out_vc_owner[port]
                for vc, credits in enumerate(r.out_credits[port]):
                    cred[lane + vc] = credits
                    if credits > 0:
                        credok[rp] |= 1 << vc
                    if owners[vc] is not None:
                        owner[lane + vc] = owners[vc]
                for vc, state in enumerate(r._vc_states[port]):
                    pid, out_vc = state.packet_id, state.out_vc
                    if pid is not None:
                        st_pid[lane + vc] = pid
                    if state.route_port is not None:
                        st_route[lane + vc] = state.route_port
                    if out_vc is not None:
                        st_outvc[lane + vc] = out_vc
                        am[rp] |= 1 << vc
                    queue = state.queue
                    if queue:
                        occ[rp] |= 1 << vc
                        if out_vc is None or pid != queue[0].packet.packet_id:
                            need[lane + vc] = 1
                            nva[rid] += 1
            for port, vc in r._active:
                lib.ck_act_push(ck, rid, (rid * P + port) * V + vc)
        actw = [0] * ((R + 63) // 64)
        for rid in net._active_routers:
            actw[rid >> 6] |= 1 << (rid & 63)
        for aid, values in (
            (A_ST_PID, st_pid), (A_ST_ROUTE, st_route),
            (A_ST_OUTVC, st_outvc), (A_NEED, need), (A_CRED, cred),
            (A_OWNER, owner), (A_OCC, occ), (A_AM, am), (A_CREDOK, credok),
            (A_IN_NEXT, in_next), (A_OUT_NEXT, out_next),
            (A_SEC_NEXT, sec_next), (A_NVA, nva),
            (A_OCCUPIED, [r.occupied_flits for r in net.routers]),
            (A_VA_OFF, [r._va_offset for r in net.routers]),
            (A_ACTW, [_to_i64(word) for word in actw]),
        ):
            self._put(aid, values)

        # flit queues (shared deques -> handle/index/ready rings)
        for lane, q in enumerate(self._lane_queues()):
            if not q:
                continue
            for flit in q:
                if lib.ck_queue_push(
                    ck, lane, self._handle(flit.packet), flit.index,
                    flit.ready_at,
                ):
                    raise CKernelUnavailable(
                        "flit queue deeper than the configured buffer"
                    )

    # -- stepping ---------------------------------------------------------
    def _drop_mirror(self) -> None:
        if self._mirrored:
            # sync() left a read-only mirror of the C calendars in the
            # event dicts (for digests / snapshots / kernel hand-off).
            # C stays authoritative while we keep stepping, so drop the
            # mirror -- a stale copy would make idle()/drain() spin
            # forever on events the C side has long consumed.
            self.net._arrivals.clear()
            self.net._credits.clear()
            self._mirrored = False

    def _take_log(self, rows: int):
        """Empty the completion log one cycle left, yielding one
        ``LOG_WIDTH``-int row per finished packet."""
        flat = self.lib.ck_arr(self._ck, A_LOG)[0:rows * LOG_WIDTH]
        self.lib.ck_set(self._ck, S_NLOG, 0)
        for at in range(0, len(flat), LOG_WIDTH):
            yield flat[at:at + LOG_WIDTH]

    def step(self) -> None:
        self._refuse_while_lent("step()")
        net = self.net
        cycle = net.cycle
        self._drop_mirror()
        rows = self.lib.ck_step(self._ck, 1 if net.measuring else 0)
        if rows < 0:
            self._raise_error(rows)
        if rows:
            complete = net._complete_packet
            for (h, pid, src, dst, flits, hops, created, injected, lanes,
                 measured, _) in self._take_log(rows):
                packet = self._held(h)
                if packet is None:
                    packet = _span_born(pid, src, dst, flits, created,
                                        measured)
                else:
                    self._let_go(h, packet)
                _mirror(packet, hops, lanes, injected)
                complete(packet, cycle)
        if net.measuring:
            net._stats.measured_cycles += 1
        net.cycle = cycle + 1

    def run(self, span: Span) -> Tuple[int, int]:
        """Advance a whole :class:`Span`; returns ``(cycles run, packets
        created)``.

        Only valid while nothing needs a per-packet Python callback
        (:meth:`Network.span_blocker` is the gate)."""
        net = self.net
        lib = self.lib
        ck = self._ck
        self._drop_mirror()
        kinds = self._lend(span.source)
        stats = net._stats
        first, measure_from = span.created, span.measure_from
        limits = [
            -1 if limit is None else limit
            for limit in (measure_from, span.birth_budget, span.need_measured)
        ]
        ran = born = 0
        while True:
            measuring = net.measuring
            cycles = lib.ck_run(
                ck, span.max_cycles - ran, measuring, first + born, *limits,
                net.next_packet_id, net._default_packet_flits, *kinds,
            )
            if cycles < 0:
                self._raise_error(cycles)
            new = lib.ck_get(ck, S_BORN)
            net.next_packet_id += new
            net.packets_in_flight += new
            net.cycle += cycles
            if measuring:
                stats.measured_cycles += cycles
            ran += cycles
            born += new
            self._reduce_log(measuring)
            if not lib.ck_get(ck, S_BODY_PENDING):
                break
            # The first measured packet was just born: the window opens
            # before the body of its cycle, which the next call runs.
            net.begin_measurement()
        if measure_from is not None:
            stats.packets_offered += max(
                0, first + born - max(first, measure_from)
            )
        return ran, born

    def _reduce_log(self, measuring: bool) -> None:
        """Empty the completion log a span left: counters by arithmetic
        over whole columns, the measured rows into the latency sample."""
        lib = self.lib
        ck = self._ck
        rows = lib.ck_get(ck, S_NLOG)
        if not rows:
            return
        net = self.net
        stats = net._stats
        log = lib.ck_arr(ck, A_LOG)
        stages = net.config.router_pipeline_stages
        link_delay = net.config.link_delay
        flits_done = 0
        for start in range(0, rows, _SPAN_LOG_ROWS):
            count = min(_SPAN_LOG_ROWS, rows - start)
            flat = log[start * LOG_WIDTH:(start + count) * LOG_WIDTH]
            columns = [flat[field::LOG_WIDTH] for field in range(LOG_WIDTH)]
            flits_done += sum(columns[LOG_NFLITS])
            classes = ["data"] * count
            if self._hmap:
                self._release_held(columns, classes)
            measured = columns[LOG_MEASURED]
            wanted = sum(measured)
            if not wanted:
                continue
            fields = [columns[field] for field in _SAMPLE_FIELDS] + [classes]
            if wanted < count:
                fields = [list(compress(field, measured)) for field in fields]
            stats.record_completions(*fields, stages, link_delay)
        lib.ck_set(ck, S_NLOG, 0)
        net.packets_in_flight -= rows
        net.total_delivered += rows
        if measuring:
            stats.window_packet_deliveries += rows
            stats.window_flit_deliveries += flits_done

    def _release_held(self, columns: List[list], classes: List[str]) -> None:
        """Finish the Packet objects among a chunk of completion-log rows
        (packets Python enqueued), noting each one's class by row."""
        # A held packet always finishes before its handle can be reissued
        # to a span-born one, and rows are in finishing order, so a Packet
        # found here is its row's packet.
        for row, h in enumerate(columns[LOG_HANDLE]):
            packet = self._held(h)
            if packet is not None:
                self._let_go(h, packet)
                _mirror(packet, columns[LOG_HOPS][row],
                        columns[LOG_MINLANES][row], columns[LOG_INJ][row])
                packet.received_at = columns[LOG_RECEIVED][row]
                classes[row] = packet.packet_class

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

    def wake_source(self, node: int) -> None:
        self.lib.ck_src_wake(self._ck, node)

    def pending_events(self) -> bool:
        """True while scheduled arrival/credit events remain undelivered
        (the drain-loop quiesce condition)."""
        return self.lib.ck_get(self._ck, S_PEND) > 0

    def total_buffered_flits(self) -> int:
        return self.lib.ck_total_buffered(self._ck)

    # -- activity & link-stat flushing ------------------------------------
    def flush_activity(self) -> None:
        """Add the C-side activity and link counters onto the shared
        RouterActivity objects and the stats dictionaries, zeroing the C
        side (measurement boundaries call this)."""
        R, P, RP = self.R, self.P, self.RP
        activities = self.net._activities
        for aid, field in _ACTIVITY_FIELDS:
            counts = self._view(aid, R)
            for rid, count in enumerate(counts[:]):
                if count:
                    activity = activities[rid]
                    setattr(activity, field, getattr(activity, field) + count)
            ctypes.memset(counts, 0, ctypes.sizeof(counts))
        stats = self.net._stats
        for aid, dest in ((A_LF, stats.link_flits),
                          (A_LB, stats.link_busy_cycles)):
            counts = self._view(aid, RP)
            for rp, count in enumerate(counts[:]):
                if count:
                    key = (rp // P, rp % P)
                    dest[key] = dest.get(key, 0) + count
            ctypes.memset(counts, 0, ctypes.sizeof(counts))

    def drop_activity(self) -> None:
        """Drop pending counts after ``reset_stats`` replaced the
        RouterActivity objects."""
        for aid, _ in _ACTIVITY_FIELDS:
            self._put(aid, [0] * self.R)
        self._put(A_LF, [0] * self.RP)
        self._put(A_LB, [0] * self.RP)

    # -- sync: C -> Python -------------------------------------------------
    def _make_flit(self, packet: Packet, index: int) -> Flit:
        if packet.num_flits == 1:
            ftype = FlitType.HEAD_TAIL
        elif index == 0:
            ftype = FlitType.HEAD
        elif index == packet.num_flits - 1:
            ftype = FlitType.TAIL
        else:
            ftype = FlitType.BODY
        return Flit(packet=packet, index=index, flit_type=ftype)

    def sync(self) -> None:
        """Mirror the C state back into the object model (non-destructive:
        the C side stays live and authoritative until :meth:`free`)."""
        net = self.net
        lib = self.lib
        ck = self._ck
        R, P, V, D = self.R, self.P, self.V, self.D

        # per-lane scalars, per-port masks and arbiter pointers -> the
        # Router / _VCState / allocator fields they were packed from
        # (need, nva, am and credok are derived state: nothing to write)
        st_pid, st_route = self._arr(A_ST_PID), self._arr(A_ST_ROUTE)
        st_outvc = self._arr(A_ST_OUTVC)
        cred, owner = self._arr(A_CRED), self._arr(A_OWNER)
        occ = self._arr(A_OCC)
        in_next, out_next = self._arr(A_IN_NEXT), self._arr(A_OUT_NEXT)
        sec_next = self._arr(A_SEC_NEXT)
        occupied, va_off = self._arr(A_OCCUPIED), self._arr(A_VA_OFF)
        for rid, r in enumerate(net.routers):
            r.occupied_flits = occupied[rid]
            r._va_offset = va_off[rid]
            allocator = r.allocator
            for port in range(r.num_ports):
                rp = rid * P + port
                lane = rp * V
                allocator.input_stage[port]._next = in_next[rp]
                allocator.output_stage[port]._next = out_next[rp]
                allocator.second_output_stage[port]._next = sec_next[rp]
                r._port_active[port] = occ[rp].bit_count()
                credits = r.out_credits[port]
                owners = r.out_vc_owner[port]
                for vc in range(len(credits)):
                    credits[vc] = cred[lane + vc]
                    ow = owner[lane + vc]
                    owners[vc] = None if ow == -1 else ow
                for vc, state in enumerate(r._vc_states[port]):
                    pid = st_pid[lane + vc]
                    state.packet_id = None if pid == -1 else pid
                    route = st_route[lane + vc]
                    state.route_port = None if route == -1 else route
                    out_vc = st_outvc[lane + vc]
                    state.out_vc = None if out_vc == -2 else out_vc
            r._active = {}
            for i in range(lib.ck_act_len(ck, rid)):
                lane = lib.ck_act_at(ck, rid, i)
                r._active[(lane // V) % P, lane % V] = True
        net._active_routers = _set_bits(self._arr(A_ACTW), R)

        # live packet records -> Packet attributes; packets born in a
        # span get their Packet object here
        top = lib.ck_get(ck, S_PK_TOP)
        if top:
            fields = [
                self._arr(aid)[0:top]
                for aid in (A_PK_LIVE, A_PK_ID, A_PK_SRC, A_PK_DST,
                            A_PK_NFLITS, A_PK_CREATED, A_PK_MEASURED,
                            A_PK_HOPS, A_PK_MINLANES, A_PK_INJ)
            ]
            for h, (live, pid, src, dst, flits, created, measured, hops,
                    lanes, injected) in enumerate(zip(*fields)):
                if not live:
                    continue
                packet = self._held(h)
                if packet is None:
                    packet = _span_born(pid, src, dst, flits, created,
                                        measured)
                    self._hold(h, packet)
                _mirror(packet, hops, lanes, injected)

        # queue rings -> the shared Flit deques, rebuilt in place
        qs_pkt, qs_seq, qs_ready = self._qs_pkt, self._qs_seq, self._qs_ready
        qhead, qlen = self._qhead, self._qlen
        handles = self._handles
        for lane, q in enumerate(self._lane_queues()):
            if q is None:
                continue
            n = qlen[lane]
            if not n and not q:
                continue
            q.clear()
            head = qhead[lane]
            base = lane * D
            for i in range(n):
                slot = base + (head + i) % D
                flit = self._make_flit(handles[qs_pkt[slot]], qs_seq[slot])
                flit.ready_at = qs_ready[slot]
                q.append(flit)

        # sources
        src_pkt = self._arr(A_SRC_PKT)
        src_next = self._arr(A_SRC_NEXT)
        src_vc = self._arr(A_SRC_VC)
        for node, source in enumerate(net.sources):
            nq = lib.ck_source_len(ck, node)
            if nq or source.queue:
                source.queue.clear()
                for i in range(nq):
                    source.queue.append(
                        handles[lib.ck_source_at(ck, node, i)]
                    )
            h = src_pkt[node]
            if h >= 0:
                packet = handles[h]
                source.flits = packet.make_flits()
                source.next_flit = src_next[node]
                source.vc = src_vc[node]
            else:
                source.flits = []
                source.next_flit = 0
                source.vc = None
        net._active_sources = _set_bits(self._arr(A_SRCW), self.nnodes)

        # calendars -> the event dicts
        cycle = lib.ck_get(ck, S_CYCLE)
        cal_sz = self.cal_sz
        net._arrivals.clear()
        net._credits.clear()
        for idx in range(cal_sz):
            when = cycle + (idx - cycle) % cal_sz
            n = lib.ck_bucket_len(ck, 0, idx)
            if n:
                ptr = lib.ck_bucket_ptr(ck, 0, idx)
                raw = ptr[0:n]
                events = []
                for e in range(0, n, 5):
                    flit = self._make_flit(handles[raw[e + 3]], raw[e + 4])
                    events.append((raw[e], raw[e + 1], raw[e + 2], flit))
                net._arrivals[when] = events
            n = lib.ck_bucket_len(ck, 1, idx)
            if n:
                ptr = lib.ck_bucket_ptr(ck, 1, idx)
                raw = ptr[0:n]
                net._credits[when] = [
                    (raw[e], raw[e + 1], raw[e + 2], bool(raw[e + 3]))
                    for e in range(0, n, 4)
                ]

        self.flush_activity()
        self.hand_back()
        self._mirrored = True
