"""The always-on sweep job server.

One process, three kinds of thread:

* the **asyncio loop thread** -- a hand-rolled HTTP/1.1 server on
  ``asyncio`` streams (stdlib only), answering the JSON API below on
  kept-alive connections and streaming job events as chunked NDJSON
  (each stream on a connection of its own, closed when it ends);
* **worker threads** -- each waits idle until a submission (or a stop)
  wakes it, claims jobs from the persistent
  :class:`~repro.serve.jobs.JobQueue` and executes their points through
  :func:`repro.exec.engine.run_sweep` (serial backend, per-point
  retries and error capture, chaos sites live), committing every result to
  the shared :class:`~repro.exec.store.ResultStore`;
* the caller's thread -- :meth:`SweepServer.start` / :meth:`stop` for
  embedding (tests), or :meth:`serve_forever` under ``python -m
  repro.serve``.

API::

    GET  /healthz              liveness + store/worker info
    GET  /metrics              ServeMetrics snapshot + derived ratios
    POST /jobs                 {"points": [spec...], "priority", "tag",
                                "client"} -> {"job_id", "deduped", ...}
    GET  /jobs[?state=queued]  recent jobs
    GET  /jobs/<id>            status + journal progress
    GET  /jobs/<id>/result     results in point order (terminal jobs)
    GET  /jobs/<id>/events     chunked NDJSON event stream (live-follow)
    POST /jobs/<id>/cancel     cancel queued, or signal a running job

A connection serves requests until the client closes it or sends
``Connection: close``; an error response (400, 404, 405, 409, 500) and
a request whose framing cannot be trusted close it, and :meth:`stop
<SweepServer.stop>` closes the idle ones.

Nothing between ``POST /jobs`` and the results waits on a timer: a
submission wakes the workers, and every event a worker publishes (and a
cancel, and a stop) wakes the ``/events`` followers, whose stream ends
with an ``end`` line the moment the job does -- which is what
:meth:`ServeClient.wait <repro.serve.client.ServeClient.wait>` follows.
A job whose every point the store already holds is *born done*:
``POST /jobs`` writes it ``done`` and publishes its events itself, and
no worker wakes for it.  ``GET /jobs/<id>/result`` sends each stored
row as the verified JSON text the store holds, without decoding it.
A stream that has nothing to say writes a blank keep-alive line every
:data:`KEEPALIVE_S`, so a point that outlasts the follower's socket
timeout does not cut it.  ``poll_s`` is only how often an idle worker
looks for rows *another process* queued on the same store.

Guarantees:

* **bit-identity** -- a point is executed by the same re-entrant
  ``execute_point`` a serial local run uses, so results fetched through
  the server equal a local ``run_sweep`` byte for byte, however many
  clients submit and however many jobs the worker threads run at once;
* **dedup, never recompute** -- a resubmitted job joins its live twin
  (content-addressed id); a point already in the store is served from
  it; a point being computed by another worker is *joined* (the second
  job waits for the row instead of simulating);
* **crash safety** -- jobs found ``running`` at startup were orphaned by
  a kill and are requeued; their committed points replay from the store,
  so a SIGKILL mid-sweep loses nothing and duplicates nothing.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.exec.engine import run_sweep
from repro.exec.store import STORE_SCHEMA_VERSION, ResultStore
from repro.obs.manifest import SweepTelemetry
from repro.obs.metrics import ServeMetrics
from repro.serve.jobs import JOB_STATES, JobQueue, points_from_specs

#: request-body ceiling (a large sweep of specs is ~1 MB; 16 MB is safe).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: seconds of silence after which an ``/events`` stream writes a blank
#: line, so a follower's socket timeout measures a dead server, not a
#: long point.
KEEPALIVE_S = 5.0

#: event buffers kept for finished jobs (most recent first to go last):
#: a late ``/events`` on a just-finished job still narrates it, an
#: always-on server does not grow with every job it has ever run.
KEPT_EVENT_BUFFERS = 64

_TERMINAL = ("done", "failed", "cancelled")
#: the event a job's buffer ends with once its row is terminal.
_JOB_OVER = tuple(f"job_{state}" for state in _TERMINAL)


class _StreamingTelemetry(SweepTelemetry):
    """Engine telemetry that forwards each span to the job's event feed."""

    def __init__(self, publish) -> None:
        super().__init__()
        self._publish = publish

    def record_point(self, point, **kwargs) -> dict:
        span = super().record_point(point, **kwargs)
        self._publish({"event": "span", **span})
        return span


class SweepServer:
    """Embeddable job server; see the module docstring for the API."""

    def __init__(
        self,
        store_path,
        host: str = "127.0.0.1",
        port: int = 8923,
        workers: int = 2,
        retries: int = 1,
        poll_s: float = 0.1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store_path = str(store_path)
        self.host = host
        self.requested_port = port
        self.port: Optional[int] = None
        self.workers = workers
        self.retries = retries
        self.poll_s = poll_s
        self.metrics = ServeMetrics()
        self._started_mono: Optional[float] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._worker_threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._stopped_loop: Optional[asyncio.Event] = None
        # Idle workers wait here; _queue_changes counts the wake-ups so
        # one that lands between a claim and the wait is not lost.
        self._wake = threading.Condition()
        self._queue_changes = 0
        # Loop-side twin: one event per open /events stream, set when
        # there may be something new to write (loop thread only).
        self._followers: Set[asyncio.Event] = set()
        # Every open connection, and those waiting for their next request
        # (stop() closes these at once).
        self._connections: Set[asyncio.Task] = set()
        self._idle: Set[asyncio.Task] = set()
        # Per-job event buffers + cancel flags, and the finished jobs
        # whose buffers are still kept; guarded by _state_lock.
        self._events: Dict[str, List[dict]] = {}
        self._finished: Deque[str] = deque()
        self._cancel_flags: Dict[str, threading.Event] = {}
        self._state_lock = threading.Lock()
        # In-flight point registry: point key -> done event (leader sets).
        self._inflight: Dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "SweepServer":
        """Bind, recover orphaned jobs, spawn the loop + worker threads."""
        recovery = JobQueue(self.store_path)
        requeued = recovery.requeue_running()
        recovery.store.close()
        self._started_mono = time.monotonic()
        ready = threading.Event()
        failure: List[BaseException] = []
        self._loop_thread = threading.Thread(
            target=self._loop_main, args=(ready, failure),
            name="serve-loop", daemon=True,
        )
        self._loop_thread.start()
        ready.wait(timeout=10)
        if failure:
            raise failure[0]
        if self.port is None:
            raise RuntimeError("server failed to bind within 10 s")
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_main, args=(index,),
                name=f"serve-worker-{index}", daemon=True,
            )
            thread.start()
            self._worker_threads.append(thread)
        if requeued:
            self._log(f"requeued {requeued} orphaned running job(s)")
        self._log(
            f"serving on http://{self.host}:{self.port} "
            f"(store={self.store_path}, workers={self.workers})"
        )
        return self

    def request_stop(self) -> None:
        """Ask the server to stop, without waiting for it (signal-safe).

        Idle workers wake and exit, busy ones stop after their current
        point, and every open ``/events`` stream ends with an ``end``
        line; :meth:`stop` (or :meth:`serve_forever`) does the joining.
        """
        self._stop.set()
        self._wake_workers()
        self._wake_followers()

    def stop(self) -> None:
        """Stop accepting work and wind the threads down.

        A job caught mid-execution is left ``running`` in the table --
        deliberately the same state a crash leaves, so the next start
        requeues it and its committed points replay from the store.
        """
        self.request_stop()
        loop = self._loop
        if loop is not None and self._stopped_loop is not None:
            try:
                loop.call_soon_threadsafe(self._stopped_loop.set)
            except RuntimeError:
                pass
        for thread in self._worker_threads:
            thread.join(timeout=10)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10)

    def serve_forever(self) -> None:
        self.start()
        try:
            while not self._stop.wait(0.5):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def _log(self, message: str) -> None:
        import sys

        print(f"[serve] {message}", file=sys.stderr, flush=True)

    # -- asyncio side ---------------------------------------------------------
    def _loop_main(self, ready: threading.Event, failure: list) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve(ready))
        except BaseException as exc:  # surfaced to start()
            failure.append(exc)
            ready.set()
        finally:
            loop.close()

    async def _serve(self, ready: threading.Event) -> None:
        self._stopped_loop = asyncio.Event()
        # The loop thread's own view of the queue/store (connections are
        # thread-bound).
        self._api_queue = JobQueue(self.store_path)
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port
        )
        self.port = server.sockets[0].getsockname()[1]
        ready.set()
        try:
            await self._stopped_loop.wait()
        finally:
            server.close()
            # A kept-alive connection waiting for its next request has
            # nothing to finish: close it now.
            for task in self._idle:
                task.cancel()
            await server.wait_closed()
            # Let the open streams write the ``end`` line request_stop()
            # woke them for, rather than resetting them.
            if self._connections:
                await asyncio.wait(self._connections, timeout=5)
            self._api_queue.store.close()

    async def _handle_connection(self, reader, writer) -> None:
        """Serve requests on one connection until the client closes it,
        asks to (``Connection: close``), an answer is an error, or the
        server stops."""
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        self.metrics.http_connections.inc()
        try:
            while True:
                self._idle.add(task)
                try:
                    request = await self._read_request(reader)
                finally:
                    self._idle.discard(task)
                if request is None:
                    return
                method, path, query, body, keep_alive = request
                self.metrics.http_requests.inc()
                parts = [p for p in path.split("/") if p]
                if (
                    method == "GET" and len(parts) == 3
                    and parts[0] == "jobs" and parts[2] == "events"
                ):
                    await self._handle_events(writer, parts[1])
                    return
                status, payload = self._route(method, path, query, body)
                keep_alive = (
                    keep_alive and status < 400 and not self._stop.is_set()
                )
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:
            self.metrics.http_errors.inc()
            try:
                await self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, dict, Optional[dict], bool]]:
        """One request, or ``None`` at a clean end of the connection.

        The last field says whether the connection may stay open:
        HTTP/1.1 without ``Connection: close``, and no body framing this
        server does not read (a chunked body would be taken for the next
        request).  A malformed request line also ends the connection; a
        bad length or body raises (a 500 that closes it).
        """
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            return None
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body over {MAX_BODY_BYTES} bytes")
        body = None
        if length:
            raw = await reader.readexactly(length)
            body = json.loads(raw)
        split = urlsplit(target)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
            and "transfer-encoding" not in headers
        )
        return method.upper(), split.path, query, body, keep_alive

    async def _respond(
        self, writer, status: int, payload, keep_alive: bool = False
    ) -> None:
        """Write one response; ``payload`` is a dict, or JSON bytes."""
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 409: "Conflict",
                   500: "Internal Server Error"}
        data = (
            payload if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8")
        )
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    def _route(self, method, path, query, body) -> Tuple[int, object]:
        """Answer one request: ``(status, payload)``."""
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            return 200, self._health()
        if path == "/metrics" and method == "GET":
            return 200, self._metrics_payload()
        if parts and parts[0] == "jobs":
            if len(parts) == 1:
                if method == "POST":
                    return self._handle_submit(body)
                if method == "GET":
                    return self._handle_list(query)
                return 405, {"error": f"{method} not allowed"}
            job_id = parts[1]
            if len(parts) == 2 and method == "GET":
                return self._handle_status(job_id)
            if len(parts) == 3 and parts[2] == "result" and method == "GET":
                return self._handle_result(job_id)
            if len(parts) == 3 and parts[2] == "cancel" and method == "POST":
                return self._handle_cancel(job_id)
        self.metrics.http_errors.inc()
        return 404, {"error": f"no route {method} {path}"}

    # -- handlers -------------------------------------------------------------
    def _health(self) -> dict:
        uptime = (
            time.monotonic() - self._started_mono
            if self._started_mono is not None else 0.0
        )
        return {
            "status": "ok",
            "store": self.store_path,
            "schema_version": STORE_SCHEMA_VERSION,
            "workers": self.workers,
            "uptime_s": round(uptime, 3),
            "queue": self._api_queue.counts(),
        }

    def _metrics_payload(self) -> dict:
        counts = self._api_queue.counts()
        self.metrics.observe_queue(counts)
        uptime = (
            time.monotonic() - self._started_mono
            if self._started_mono is not None else 0.0
        )
        return {
            "queue": counts,
            "derived": self.metrics.derived(self.workers, uptime),
            "instruments": self.metrics.registry.snapshot(),
        }

    def _handle_submit(self, body) -> Tuple[int, dict]:
        started = time.monotonic()
        if not isinstance(body, dict) or not body.get("points"):
            self.metrics.http_errors.inc()
            return 400, {"error": "body must carry a points list"}
        try:
            points = points_from_specs(body["points"])
            priority = int(body.get("priority", 0))
        except (TypeError, ValueError) as exc:
            self.metrics.http_errors.inc()
            return 400, {"error": f"invalid job: {exc}"}
        # Under the lock, so a worker that claims the row at once cannot
        # publish into a buffer this is about to drop.
        with self._state_lock:
            job_id, deduped = self._api_queue.submit(
                points,
                priority=priority,
                tag=body.get("tag"),
                client=body.get("client"),
            )
            if not deduped:
                # A failed/cancelled twin requeued in place starts a new
                # attempt: its stream must not open with the old one's.
                self._events.pop(job_id, None)
                if job_id in self._finished:
                    self._finished.remove(job_id)
        job = self._api_queue.get(job_id)
        if deduped:
            self.metrics.jobs_deduped.inc()
        else:
            self.metrics.jobs_submitted.inc()
            # Only submit writes a row ``done`` without a worker.
            if job["state"] == "done" and job["worker"] is None:
                self._narrate_born_done(job, points, started)
            else:
                self._wake_workers()
        return 200, {
            "job_id": job_id,
            "deduped": deduped,
            "state": job["state"],
            "num_points": job["num_points"],
        }

    def _narrate_born_done(self, job: dict, points, started: float) -> None:
        """Publish the events a worker replaying the job from the store
        would have, for a job submit already finished."""
        job_id = job["job_id"]
        events = [{
            "event": "job_started", "job_id": job_id, "worker": None,
            "num_points": len(points),
        }]
        events.extend(
            {"event": "point", "seq": seq, "label": point.label, "key": key,
             "source": "cached", "error": None}
            for seq, (point, key) in enumerate(zip(points, job["point_keys"]))
        )
        events.append({
            "event": "job_done", "job_id": job_id, "points": len(points),
            "errors": 0,
        })
        with self._state_lock:
            self._events.setdefault(job_id, []).extend(events)
        self._wake_followers()
        self.metrics.point_cache_hits.inc(len(points))
        self.metrics.job_finished("done", time.monotonic() - started)
        self._retire_job(job_id)

    def _handle_list(self, query) -> Tuple[int, dict]:
        state = query.get("state")
        if state is not None and state not in JOB_STATES:
            self.metrics.http_errors.inc()
            return 400, {"error": f"state must be one of {sorted(JOB_STATES)}"}
        limit = min(int(query.get("limit", 100)), 1000)
        return 200, {
            "jobs": self._api_queue.list_jobs(state=state, limit=limit),
        }

    def _handle_status(self, job_id) -> Tuple[int, dict]:
        job = self._api_queue.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id}"}
        return 200, job

    def _handle_result(self, job_id) -> Tuple[int, object]:
        """The job's stored rows in point order (``null`` per missing
        row), each spliced in as the verified text the store holds."""
        job = self._api_queue.get(job_id, include_points=True)
        if job is None:
            return 404, {"error": f"no job {job_id}"}
        if job["state"] not in _TERMINAL:
            return 409, {"error": "job not finished", "state": job["state"]}
        store = self._api_queue.store
        rows = [
            store.get_json(point) or "null"
            for point in points_from_specs(job["points"])
        ]
        head = json.dumps({
            "job_id": job_id, "state": job["state"], "error": job["error"],
        })
        return 200, (
            f'{head[:-1]}, "results": [{", ".join(rows)}]}}'.encode("utf-8")
        )

    def _handle_cancel(self, job_id) -> Tuple[int, dict]:
        job = self._api_queue.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id}"}
        state = self._api_queue.cancel(job_id)  # flips a queued row only
        if state == "running":
            with self._state_lock:
                flag = self._cancel_flags.setdefault(
                    job_id, threading.Event()
                )
            flag.set()
        elif state == "cancelled" and job["state"] == "queued":
            self._publish(job_id, {
                "event": "job_cancelled", "job_id": job_id,
                "after_points": 0,
            })
            self._retire_job(job_id)
        return 200, {"job_id": job_id, "state": state,
                     "cancelling": state in ("running", "cancelled")}

    async def _handle_events(self, writer, job_id) -> None:
        job = self._api_queue.get(job_id)
        if job is None:
            await self._respond(writer, 404, {"error": f"no job {job_id}"})
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()

        async def emit(event: dict) -> None:
            data = (json.dumps(event) + "\n").encode("utf-8")
            writer.write(f"{len(data):x}\r\n".encode("latin-1"))
            writer.write(data + b"\r\n")
            await writer.drain()

        await emit({"event": "snapshot", "job": job})
        cursor = 0
        wake = asyncio.Event()
        self._followers.add(wake)
        try:
            while True:
                # Cleared before looking, so whatever is published while
                # the lines below are written leaves it set.
                wake.clear()
                with self._state_lock:
                    fresh = self._events.get(job_id, [])[cursor:]
                for event in fresh:
                    await emit(event)
                cursor += len(fresh)
                stopping = self._stop.is_set()
                if stopping or (fresh and fresh[-1]["event"] in _JOB_OVER):
                    # A worker moves the row before it publishes
                    # job_<state>.
                    job = self._api_queue.get(job_id)
                if stopping or job["state"] in _TERMINAL:
                    break
                try:
                    await asyncio.wait_for(wake.wait(), KEEPALIVE_S)
                except asyncio.TimeoutError:
                    writer.write(b"1\r\n\n\r\n")
                    await writer.drain()
                    # Silence is also when to look for a transition some
                    # other process on the store made.
                    job = self._api_queue.get(job_id)
        finally:
            self._followers.discard(wake)
        await emit({"event": "end", "state": job["state"]})
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- worker side ----------------------------------------------------------
    def _publish(self, job_id: str, event: dict) -> None:
        with self._state_lock:
            self._events.setdefault(job_id, []).append(event)
        self._wake_followers()

    def _wake_followers(self) -> None:
        """Tell every ``/events`` stream to look again (any thread)."""
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._set_followers)
            except RuntimeError:
                pass  # the loop is already closed: nobody is following

    def _set_followers(self) -> None:
        for wake in self._followers:
            wake.set()

    def _wake_workers(self) -> None:
        with self._wake:
            self._queue_changes += 1
            self._wake.notify_all()

    def _worker_main(self, index: int) -> None:
        queue = JobQueue(self.store_path)
        try:
            while not self._stop.is_set():
                with self._wake:
                    seen = self._queue_changes
                job = queue.claim(f"worker-{index}")
                if job is None:
                    # poll_s only finds rows another process queued.
                    with self._wake:
                        self._wake.wait_for(
                            lambda: self._queue_changes != seen,
                            timeout=self.poll_s,
                        )
                    continue
                busy_start = time.monotonic()
                try:
                    self._run_job(queue, job, index)
                finally:
                    self.metrics.worker_busy(
                        index, time.monotonic() - busy_start
                    )
        finally:
            queue.store.close()

    def _run_job(self, queue: JobQueue, job: dict, index: int) -> None:
        job_id = job["job_id"]
        points = points_from_specs(job["points"])
        with self._state_lock:
            cancel = self._cancel_flags.setdefault(job_id, threading.Event())
        started = time.monotonic()
        telemetry = _StreamingTelemetry(
            lambda span: self._publish(job_id, span)
        )
        self._publish(job_id, {
            "event": "job_started", "job_id": job_id,
            "worker": f"worker-{index}", "num_points": len(points),
        })
        errors: List[str] = []
        for seq, point in enumerate(points):
            if cancel.is_set():
                queue.finish(job_id, "cancelled")
                self._publish(job_id, {
                    "event": "job_cancelled", "job_id": job_id,
                    "after_points": seq,
                })
                self.metrics.job_finished(
                    "cancelled", time.monotonic() - started
                )
                self._retire_job(job_id)
                return
            if self._stop.is_set():
                # Shutdown mid-job: leave the row 'running' so the next
                # start requeues it -- identical to crash semantics.
                return
            point_start = time.monotonic()
            result, source = self._run_point(queue.store, point, telemetry)
            self.metrics.point_latency.observe(
                time.monotonic() - point_start
            )
            if result.error is not None:
                errors.append(f"{point.label}: {result.error}")
                self.metrics.point_errors.inc()
            else:
                queue.store.mark_committed(job_id, point)
            self._publish(job_id, {
                "event": "point",
                "seq": seq,
                "label": point.label,
                "key": point.key(),
                "source": source,
                "error": result.error,
            })
        state = "failed" if errors else "done"
        queue.finish(
            job_id, state, error="; ".join(errors[:5]) if errors else None
        )
        self._publish(job_id, {
            "event": f"job_{state}", "job_id": job_id,
            "points": len(points), "errors": len(errors),
        })
        self.metrics.job_finished(state, time.monotonic() - started)
        self._retire_job(job_id)

    def _retire_job(self, job_id: str) -> None:
        """A job reached a terminal state: drop its cancel flag, keep its
        event buffer while it is among the most recent."""
        with self._state_lock:
            self._cancel_flags.pop(job_id, None)
            self._finished.append(job_id)
            while len(self._finished) > KEPT_EVENT_BUFFERS:
                self._events.pop(self._finished.popleft(), None)

    def _run_point(
        self, store: ResultStore, point, telemetry
    ) -> Tuple[object, str]:
        """One point: cached row, joined in-flight computation, or run it.

        Returns ``(result, source)`` with ``source`` in ``"cached"`` /
        ``"joined"`` / ``"computed"`` -- never recomputing a point the
        store already holds or another worker is already simulating.
        """
        key = point.key()
        hit = store.get(point)
        if hit is not None:
            hit.from_cache = True
            self.metrics.point_cache_hits.inc()
            return hit, "cached"
        while True:
            with self._inflight_lock:
                leader_done = self._inflight.get(key)
                if leader_done is None:
                    self._inflight[key] = threading.Event()
            if leader_done is None:
                break  # we are the leader
            self.metrics.point_inflight_joins.inc()
            leader_done.wait()
            hit = store.get(point)
            if hit is not None:
                hit.from_cache = True
                return hit, "joined"
            # The leader failed to produce a row; take over.
        try:
            result = run_sweep(
                [point],
                jobs=1,
                backend="serial",
                cache=None,
                progress=None,
                retries=self.retries,
                on_error="capture",
                telemetry=telemetry,
                submit=None,
            )[0]
            self.metrics.points_executed.inc()
            if result.error is None:
                store.put(point, result)
            return result, "computed"
        finally:
            with self._inflight_lock:
                done = self._inflight.pop(key, None)
            if done is not None:
                done.set()
