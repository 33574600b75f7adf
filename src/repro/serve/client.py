"""Stdlib client for the sweep job server.

:class:`ServeClient` speaks the JSON API of
:class:`~repro.serve.server.SweepServer` over ``http.client`` -- no
dependencies, picklable-free, one connection per request (the server
closes connections after each response anyway).

The high-level call is :meth:`ServeClient.run_sweep`: submit, wait,
fetch -- a drop-in for :func:`repro.exec.engine.run_sweep` that returns
:class:`~repro.exec.point.PointResult` objects bit-identical to local
serial execution.  Waiting is pushed, not polled: :meth:`ServeClient.wait`
follows the job's ``/events`` stream, which the server ends the moment
the job does.  :func:`install_submit` wires ``run_sweep`` into the
engine's remote-submission hook, which is how ``run_all --submit <url>``
redirects every harness's sweeps to a shared server.
"""

from __future__ import annotations

import http.client
import json
import math
import time
from typing import Dict, Iterator, List, Optional, Sequence
from urllib.parse import urlsplit

from repro.exec.engine import _failed_result
from repro.exec.point import PointResult, SweepPoint


#: first and longest pause before :meth:`ServeClient.wait` reconnects to
#: an event stream that was cut or ended early (it doubles in between).
RECONNECT_MIN_S, RECONNECT_MAX_S = 0.05, 1.0

_TERMINAL = ("done", "failed", "cancelled")


class ServeError(RuntimeError):
    """The server answered with an error (or not at all)."""


class ServeClient:
    """Client for one sweep server at ``url`` (e.g. ``http://host:8923``)."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        if "//" not in url:
            url = "http://" + url
        split = urlsplit(url)
        if not split.hostname:
            raise ValueError(f"no host in server url {url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout

    # -- transport ------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Dict[str, object]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = json.dumps(body) if body is not None else None
            conn.request(
                method, path, body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            raise ServeError(
                f"{method} {path} failed: {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            conn.close()
        try:
            parsed = json.loads(data)
        except ValueError as exc:
            raise ServeError(
                f"{method} {path}: non-JSON response (HTTP {status})"
            ) from exc
        if status >= 400:
            raise ServeError(
                f"{method} {path}: HTTP {status}: "
                f"{parsed.get('error', parsed)}"
            )
        return parsed

    # -- API ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")

    def submit(
        self,
        points: Sequence[SweepPoint],
        priority: int = 0,
        tag: Optional[str] = None,
        client: Optional[str] = None,
    ) -> Dict[str, object]:
        """Enqueue a sweep; returns ``{"job_id", "deduped", "state", ...}``."""
        return self._request("POST", "/jobs", {
            "points": [point.spec_dict() for point in points],
            "priority": priority,
            "tag": tag,
            "client": client,
        })

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self, state: Optional[str] = None) -> List[dict]:
        path = "/jobs" if state is None else f"/jobs?state={state}"
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def wait(self, job_id: str, timeout: float = 600.0) -> Dict[str, object]:
        """Block until the job reaches a terminal state; returns its dict.

        Follows the job's event stream to its ``end`` line -- the server
        writes it the moment the job finishes, and blank keep-alives
        until then -- and fetches the job once.  A stream that is cut or
        ends early (the server stopping, or killed and restarted) is
        reopened after a short, doubling pause until ``timeout`` runs
        out, which raises :class:`TimeoutError`.
        """
        deadline = time.monotonic() + timeout
        pause = RECONNECT_MIN_S
        while True:
            state = None
            try:
                for event in self._follow(job_id, self.timeout, deadline):
                    if event["event"] == "end":
                        state = event["state"]
            except (OSError, http.client.HTTPException, ValueError):
                pass  # reset, timed out or cut mid-line: reconnect
            if state in _TERMINAL:
                return self.job(job_id)
            left = deadline - time.monotonic()
            if left <= 0:
                job = self.job(job_id)
                if job["state"] in _TERMINAL:
                    return job  # it finished while the stream was down
                raise TimeoutError(
                    f"job {job_id[:12]}... still {job['state']} after "
                    f"{timeout:g}s "
                    f"({job['progress']['committed']}"
                    f"/{job['progress']['total']} committed)"
                )
            time.sleep(min(pause, left))
            pause = min(2 * pause, RECONNECT_MAX_S)

    def results(
        self, job_id: str, points: Optional[Sequence[SweepPoint]] = None
    ) -> List[PointResult]:
        """The job's results in point order.

        Rows the store lacks (points that failed on the server) come
        back as engine-style captured failures -- NaN metrics plus the
        job's error string -- when ``points`` is given, mirroring
        ``run_sweep(on_error="capture")``; without ``points`` a missing
        row raises.
        """
        payload = self._request("GET", f"/jobs/{job_id}/result")
        results: List[PointResult] = []
        for index, row in enumerate(payload["results"]):
            if row is not None:
                results.append(PointResult.from_dict(row))
            elif points is not None:
                results.append(_failed_result(
                    points[index],
                    str(payload.get("error") or f"job {payload['state']}"),
                ))
            else:
                raise ServeError(
                    f"job {job_id[:12]}... has no result for point "
                    f"{index} (state {payload['state']})"
                )
        return results

    def stream_events(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[dict]:
        """Follow the job's chunked NDJSON event feed until it ends.

        The server keeps a quiet stream alive with blank lines (skipped
        here), so ``timeout`` -- per socket read -- bounds how long a
        dead server goes unnoticed, not how long a point may run.
        """
        return self._follow(
            job_id, self.timeout if timeout is None else timeout, math.inf
        )

    def _follow(
        self, job_id: str, timeout: float, deadline: float
    ) -> Iterator[dict]:
        """:meth:`stream_events`, each socket wait also capped by the
        time left to ``deadline`` (a ``time.monotonic()`` value); past
        it the stream is simply abandoned."""

        def budget() -> float:
            return min(timeout, deadline - time.monotonic())

        if budget() <= 0:
            return
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=budget()
        )
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            # "Connection: close" hands the socket to the response and
            # clears conn.sock; keep it to re-arm the timeout per read.
            sock = conn.sock
            response = conn.getresponse()
            if response.status >= 400:
                raise ServeError(
                    f"events for {job_id[:12]}...: HTTP {response.status}"
                )
            while True:
                left = budget()
                if left <= 0:
                    return
                sock.settimeout(left)
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def run_sweep(
        self,
        points: Sequence[SweepPoint],
        priority: int = 0,
        tag: Optional[str] = None,
        client: Optional[str] = None,
        timeout: float = 3600.0,
    ) -> List[PointResult]:
        """Submit, wait, fetch: the remote twin of engine ``run_sweep``.

        Four requests and no timer: a sweep the store already holds
        costs its round trips.  A ``failed`` job still returns per-point
        results (captured failures included), matching
        ``on_error="capture"`` locally; a ``cancelled`` job raises.
        """
        points = list(points)
        submitted = self.submit(
            points, priority=priority, tag=tag, client=client
        )
        job = self.wait(submitted["job_id"], timeout=timeout)
        if job["state"] == "cancelled":
            raise ServeError(f"job {submitted['job_id'][:12]}... cancelled")
        return self.results(submitted["job_id"], points=points)


def install_submit(url: str, client: Optional[str] = None) -> ServeClient:
    """Route every engine sweep in this process through the server.

    Installs a remote-submission hook via
    :func:`repro.exec.engine.configure`; the engine then ships whole
    sweeps (with its current sweep tag) to the server instead of
    executing locally.  Returns the client; undo with
    ``configure(submit=None)``.
    """
    serve_client = ServeClient(url)

    def _submit(points, tag=None):
        return serve_client.run_sweep(points, tag=tag, client=client)

    from repro.exec.engine import configure

    configure(submit=_submit)
    return serve_client
