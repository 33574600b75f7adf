"""The sweep-execution engine: fan sweep points out, store what completes.

The experiment harnesses describe their work as lists of
:class:`~repro.exec.point.SweepPoint` specs and hand them to
:func:`run_sweep`, which returns one :class:`~repro.exec.point.PointResult`
per point *in input order*.  Three orthogonal choices:

* **backend** -- ``"serial"`` executes in-process; ``"process"`` fans the
  cache misses out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Every point carries
  its own seed and builds its own network worker-side, which issues the
  run's packet ids, so :func:`~repro.exec.point.execute_point` shares no
  state between points and the two backends are bit-identical (the
  golden-run tests assert this).
* **cache** -- a :class:`~repro.exec.store.ResultStore`, a path to one,
  or ``None``.  The store is the one durable backend: already-computed
  points replay from it, every sweep registers its points in the store's
  journal and flips them to ``done`` as results commit, so re-running
  ``run_all`` -- or a crashed ``--full`` sweep -- resumes instead of
  recomputing, and ``run_all --resume`` reports exactly what survived.
* **progress** -- a callback receiving
  :class:`~repro.obs.profiler.Progress` heartbeats (phase ``"sweep"``)
  as points complete; :func:`repro.obs.profiler.make_progress_printer`
  plugs in directly.

Every setting resolves the same way: an argument passed to
:func:`run_sweep` wins, else the process-wide :class:`ExecDefaults` that
:func:`configure` edits, which start out as
:meth:`ExecDefaults.from_env` -- the one place this package reads
``REPRO_JOBS`` and ``REPRO_SWEEP_CACHE``.  Harnesses can therefore stay
ignorant of parallelism while ``run_all --jobs N`` turns it on globally.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exec.point import PointResult, SweepPoint, execute_point
from repro.exec.store import ResultStore
from repro.obs.profiler import Progress

_UNSET = object()

#: sleep before retry attempt *n* is ``_RETRY_BACKOFF_S * 2**(n-1)`` seconds.
_RETRY_BACKOFF_S = 0.25


def _execute_point_guarded(point: SweepPoint) -> Tuple[PointResult, dict]:
    """Run one point behind the chaos kill gate.

    Returns ``(result, info)`` where ``info`` carries the worker pid, the
    ``perf_counter`` at execution start (CLOCK_MONOTONIC on Linux, so the
    parent's submit timestamp is directly comparable) and the wall time
    spent simulating -- what a telemetry span records; with telemetry off
    the caller just drops it.

    Module-level so the process backend can pickle it.  ``execute_point``
    is resolved through the module global at call time, so wrappers
    installed on ``repro.exec.engine.execute_point`` (tests, perf's
    span tracer) see every point.
    """
    start_s = time.perf_counter()
    if os.environ.get("REPRO_CHAOS_KILL"):
        from repro.chaos.kill import maybe_kill_self

        maybe_kill_self(point)
    result = execute_point(point)
    return result, {
        "worker": os.getpid(),
        "start_s": start_s,
        "sim_s": time.perf_counter() - start_s,
    }


def _failed_result(point: SweepPoint, error: str) -> PointResult:
    """A placeholder result for a point whose execution failed.

    Metrics are NaN (so downstream plots show gaps rather than zeros),
    counters are zero, and :attr:`PointResult.error` carries the message.
    Failed results are never written to the cache.
    """
    nan = float("nan")
    return PointResult(
        key=point.key(),
        label=point.label,
        rate=point.rate,
        seed=point.seed,
        frequency_ghz=nan,
        latency_cycles=nan,
        latency_ns=nan,
        queuing_cycles=nan,
        blocking_cycles=nan,
        transfer_cycles=nan,
        avg_hops=nan,
        p95_latency_cycles=nan,
        p99_latency_cycles=nan,
        latency_sum_cycles=0,
        hops_sum=0,
        packet_id_sum=0,
        throughput=nan,
        measured_packets=0,
        total_cycles=0,
        saturated=False,
        unfinished_measured_packets=0,
        power_w=nan,
        power_breakdown={},
        merge_fraction=nan,
        buffer_utilization=[],
        link_utilization=[],
        error=error,
    )


def _positive_int(raw: Optional[str]) -> Optional[int]:
    """An environment integer clamped to >= 1; unset or junk is ``None``."""
    try:
        return max(1, int(raw)) if raw else None
    except ValueError:
        return None


@dataclasses.dataclass
class ExecDefaults:
    """Process-wide settings :func:`run_sweep` falls back to for every
    argument its caller omits."""

    jobs: int = 1
    #: the result store: a :class:`ResultStore`, a path to one (an
    #: existing directory means ``<dir>/sweeps.sqlite``), or ``None`` for
    #: no caching.
    cache_dir: Union[str, os.PathLike, ResultStore, None] = None
    progress: Optional[Callable[[Progress], None]] = None
    #: a :class:`repro.obs.manifest.SweepTelemetry` (or anything with its
    #: ``record_point`` signature); ``None`` records nothing.
    telemetry: Optional[object] = None
    #: journal tag recorded with each sweep, so ``run_all --resume`` can
    #: report progress per figure.
    sweep_tag: Optional[str] = None
    #: remote-submission hook: a callable ``(points, tag=...) -> results``
    #: (``repro.serve.client.install_submit`` wires one up).  When set,
    #: :func:`run_sweep` ships the whole sweep to it instead of executing
    #: locally -- the ``run_all --submit <url>`` path.
    submit: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    @classmethod
    def from_env(cls) -> "ExecDefaults":
        """The defaults the environment asks for -- the only place
        :mod:`repro.exec` reads its ``REPRO_*`` settings."""
        env = os.environ
        return cls(
            jobs=_positive_int(env.get("REPRO_JOBS")) or 1,
            cache_dir=env.get("REPRO_SWEEP_CACHE") or None,
        )


_defaults = ExecDefaults.from_env()


def _resolve(**given) -> ExecDefaults:
    """The settings in force: the process-wide defaults overlaid with
    every argument the caller actually passed (``_UNSET`` -- and, for
    ``jobs``, ``None`` -- means "not passed")."""
    if given.get("jobs") is None:
        given.pop("jobs", None)
    return dataclasses.replace(
        _defaults, **{k: v for k, v in given.items() if v is not _UNSET}
    )


def configure(jobs: Optional[int] = None, **settings: object) -> ExecDefaults:
    """Set engine-wide defaults; omitted settings keep their value.

    ``settings`` are :class:`ExecDefaults` fields by name.
    ``cache_dir=None`` explicitly disables caching; a :class:`ResultStore`
    or a path to one enables it there.  Returns the resulting defaults
    (also handy for tests to snapshot/restore).
    """
    global _defaults
    _defaults = _resolve(jobs=jobs, **settings)
    return _defaults


def run_sweep(
    points: Iterable[SweepPoint],
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    cache: Union[ResultStore, str, None, object] = _UNSET,
    progress: object = _UNSET,
    retries: int = 0,
    on_error: Optional[str] = None,
    telemetry: object = _UNSET,
    submit: object = _UNSET,
) -> List[PointResult]:
    """Execute every point, returning results in input order.

    Args:
        points: the sweep, as self-contained specs.
        jobs: worker count; defaults to :func:`configure`'s value (or
            ``REPRO_JOBS``).  ``jobs > 1`` implies the process backend.
        backend: ``"serial"`` or ``"process"``; inferred from ``jobs``
            when omitted.
        cache: a :class:`ResultStore`, a path to one (an existing
            directory means ``<dir>/sweeps.sqlite``), or ``None`` to
            disable; defaults to the configured store.
        progress: callback for :class:`Progress` heartbeats (one per
            completed point; ``done`` counts points, and cached hits are
            counted immediately).
        retries: extra attempts per failing point (crashes and dead pool
            workers included) before the failure is final; retry *n*
            first sleeps ``_RETRY_BACKOFF_S * 2**(n-1)`` seconds.
        on_error: what to do with a point whose attempts are exhausted --
            ``"raise"`` aborts the sweep (the first error propagates);
            ``"capture"`` records a placeholder :class:`PointResult` with
            NaN metrics and the error string in ``.error``, so one bad
            point cannot sink a long parallel sweep.  Defaults to
            ``"raise"`` on the serial backend and ``"capture"`` on the
            process backend.
        telemetry: a :class:`repro.obs.manifest.SweepTelemetry` receiving
            one structured span per point (queue wait, sim wall time,
            worker pid, cache hit, attempts, config digest); defaults to
            the configured telemetry, and ``None`` records nothing (the
            points run through the same code either way).
        submit: remote-submission hook ``(points, tag=...) -> results``;
            defaults to the configured one (``configure(submit=...)``),
            ``None`` forces local execution.  When active, the *entire*
            sweep -- cache lookups included -- is delegated to the hook
            (a shared job server owns the store), and the results come
            back in input order, bit-identical to local serial execution.

    Cached results come back with ``from_cache=True`` and cost zero
    simulation cycles; everything else executes and is committed to the
    store before returning.  Failed (captured) results are never stored,
    so a re-run retries them.

    With a store the sweep also journals itself: every point is
    registered up front and marked committed as its result lands, so an
    interrupted sweep reports exact committed/pending counts and resumes
    with zero recomputation of committed points.
    """
    points = list(points)
    settings = _resolve(
        jobs=jobs,
        cache_dir=cache,
        progress=progress,
        telemetry=telemetry,
        submit=submit,
    )
    heartbeat, spans = settings.progress, settings.telemetry

    def _beat(done: int, elapsed_s: float) -> None:
        if heartbeat is not None:
            heartbeat(
                Progress(
                    phase="sweep",
                    cycle=0,
                    done=done,
                    target=len(points),
                    elapsed_s=elapsed_s,
                )
            )

    if settings.submit is not None and points:
        results = settings.submit(points, tag=settings.sweep_tag)
        if len(results) != len(points):
            raise RuntimeError(
                f"submit hook returned {len(results)} results for "
                f"{len(points)} points"
            )
        _beat(len(points), 0.0)
        return results
    jobs = settings.jobs
    if backend is None:
        backend = "process" if jobs > 1 else "serial"
    if backend not in ("serial", "process"):
        raise ValueError(f"backend must be 'serial' or 'process', got {backend!r}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if on_error is None:
        on_error = "capture" if backend == "process" else "raise"
    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture', got {on_error!r}")
    store = settings.cache_dir
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)

    journal_id: Optional[str] = None
    if store is not None and points:
        journal_id = store.begin_sweep(points, tag=settings.sweep_tag)

    started = time.perf_counter()
    done = 0

    def _tick() -> None:
        nonlocal done
        done += 1
        _beat(done, time.perf_counter() - started)

    def _record(
        index: int,
        attempts: int,
        info: Optional[dict] = None,
        submitted_s: float = 0.0,
        **outcome,
    ) -> None:
        """One telemetry span; ``info`` is ``None`` when nothing ran to
        completion (cache hit, exhausted failure)."""
        if spans is None:
            return
        if info is None:
            info = {"worker": os.getpid(), "start_s": None, "sim_s": 0.0}
            queue_wait_s = 0.0
        else:
            queue_wait_s = info["start_s"] - submitted_s
        spans.record_point(
            points[index],
            queue_wait_s=queue_wait_s,
            attempts=attempts,
            **info,
            **outcome,
        )

    def _finish(index: int, result: PointResult) -> None:
        if store is not None and result.error is None:
            store.put(points[index], result)
            if journal_id is not None:
                store.mark_committed(journal_id, points[index])
        results[index] = result
        _tick()

    def _backoff(attempt: int) -> None:
        time.sleep(_RETRY_BACKOFF_S * (2 ** (attempt - 1)))

    results: List[Optional[PointResult]] = [None] * len(points)
    pending: List[int] = []
    for index, point in enumerate(points):
        hit = store.get(point) if store is not None else None
        if hit is not None:
            hit.from_cache = True
            if journal_id is not None:
                store.mark_committed(journal_id, point)
            _record(index, 0, cache_hit=True)
            results[index] = hit
            _tick()
        else:
            pending.append(index)

    if backend == "serial" or len(pending) <= 1:
        for index in pending:
            attempts = 0
            while True:
                attempts += 1
                submitted_s = time.perf_counter()
                try:
                    result, info = _execute_point_guarded(points[index])
                except Exception as exc:
                    if attempts <= retries:
                        _backoff(attempts)
                        continue
                    if on_error == "raise":
                        raise
                    result = _failed_result(
                        points[index], f"{type(exc).__name__}: {exc}"
                    )
                    info = None
                break
            _record(index, attempts, info, submitted_s, error=result.error)
            _finish(index, result)
    else:
        # Failures (worker exceptions, even a worker process
        # dying and breaking the whole pool) are retried for `retries`
        # rounds; the pool is rebuilt each round so a poisoned worker
        # cannot take the rest of the sweep down with it.
        remaining = pending
        round_no = 0
        while remaining:
            errors: Dict[int, str] = {}
            failed: List[int] = []
            workers = min(jobs, len(remaining))
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                futures = {}
                submitted: Dict[int, float] = {}
                for index in remaining:
                    submitted[index] = time.perf_counter()
                    futures[
                        pool.submit(_execute_point_guarded, points[index])
                    ] = index
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        result, info = future.result()
                    except BrokenProcessPool:
                        failed.append(index)
                        errors[index] = "worker process died (BrokenProcessPool)"
                        continue
                    except Exception as exc:
                        failed.append(index)
                        errors[index] = f"{type(exc).__name__}: {exc}"
                        continue
                    _record(index, round_no + 1, info, submitted[index])
                    _finish(index, result)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            if not failed:
                break
            failed.sort()
            round_no += 1
            if round_no <= retries:
                _backoff(round_no)
                remaining = failed
                continue
            if on_error == "raise":
                first = failed[0]
                raise RuntimeError(
                    f"sweep point {points[first].label} failed after "
                    f"{round_no} attempt(s): {errors[first]}"
                )
            for index in failed:
                _record(index, round_no, error=errors[index])
                _finish(index, _failed_result(points[index], errors[index]))
            break
    return results  # type: ignore[return-value]


def sweep_points(
    layouts: Sequence[str],
    pattern: str,
    rates: Sequence[float],
    *,
    seed: int = 11,
    warmup_packets: int = 200,
    measure_packets: int = 2000,
    flit_mode: str = "paper",
    mesh_size: int = 8,
    topology: str = "mesh",
) -> List[SweepPoint]:
    """The common sweep shape: layouts x rates, one point each.

    Points are ordered layout-major (all rates of the first layout, then
    the next), which callers rely on to regroup results into per-layout
    curves.
    """
    return [
        SweepPoint(
            layout=layout,
            mesh_size=mesh_size,
            topology=topology,
            flit_mode=flit_mode,
            pattern=pattern,
            rate=rate,
            seed=seed,
            warmup_packets=warmup_packets,
            measure_packets=measure_packets,
        )
        for layout in layouts
        for rate in rates
    ]
