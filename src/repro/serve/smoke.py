"""serve-smoke: the end-to-end crash/resume scenario for the job server.

The contract under test is the PR 2 invariant carried across a process
boundary *and* a machine crash: a sweep submitted through
:class:`~repro.serve.client.ServeClient` must return results
byte-identical to a serial local :func:`~repro.exec.engine.run_sweep`
of the same points -- including when the server is SIGKILLed mid-sweep
and restarted on the same store.

Steps (all deterministic; the kill is a one-shot
:mod:`repro.chaos.kill` plan, so it fires exactly once):

1. compute the serial baseline locally;
2. start a real server subprocess with a kill plan armed for the third
   point, submit the sweep, and watch the server die by SIGKILL;
3. restart the server on the same store: the orphaned job requeues, the
   two committed points replay from the store, the rest compute;
4. fetch the results through the client and compare to the baseline
   byte for byte;
5. resubmit the identical sweep: it must dedup onto the finished job
   (zero recomputation) and return the same bytes again;
6. push: a three-point subset under a new tag goes through
   ``run_sweep`` -- stored rows, one ``job()`` fetch, an event stream
   that closes with a clean ``end`` line -- and the final SIGTERM ends
   the open ``/events`` stream of a job still running with an ``end``
   line rather than a reset.

Used by the CI ``serve-smoke`` job (``python -m repro.serve.smoke``)
and by ``tests/test_serve_chaos.py``.
"""

from __future__ import annotations

import http.client
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

import repro
from repro.chaos.kill import write_kill_plan
from repro.exec.engine import run_sweep, sweep_points
from repro.serve.client import ServeClient, ServeError


class SmokeFailure(AssertionError):
    """The serve-smoke scenario violated the crash-safety contract."""


def _comparable(results) -> List[dict]:
    rows = []
    for result in results:
        row = result.to_dict()
        row.pop("from_cache", None)
        rows.append(row)
    return rows


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_server(
    store: pathlib.Path, port: int, env: Dict[str, str]
) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--store", str(store),
            "--host", "127.0.0.1",
            "--port", str(port),
            "--workers", "1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_healthy(
    client: ServeClient, proc: subprocess.Popen, timeout: float = 30.0
) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SmokeFailure(
                f"server exited early (rc={proc.returncode})"
            )
        try:
            client.health()
            return
        except ServeError:
            time.sleep(0.1)
    raise SmokeFailure(f"server not healthy within {timeout:g}s")


def run_serve_smoke(
    workdir,
    log=print,
    seed: int = 7,
    warmup_packets: int = 10,
    measure_packets: int = 30,
    kill_point_index: int = 2,
) -> Dict[str, str]:
    """Run the scenario under ``workdir``; returns a step report.

    Raises :class:`SmokeFailure` on any contract violation, so a
    non-zero exit from the CLI means a real crash-safety regression.
    """
    workdir = pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report: Dict[str, str] = {}
    points = sweep_points(
        ["baseline", "center+BL"],
        "uniform_random",
        [0.05, 0.1],
        seed=seed,
        warmup_packets=warmup_packets,
        measure_packets=measure_packets,
        mesh_size=4,
    )

    log(f"serve-smoke: serial baseline ({len(points)} points)")
    baseline = _comparable(
        run_sweep(points, jobs=1, backend="serial", cache=None,
                  progress=None, telemetry=None, submit=None)
    )
    report["baseline"] = "ok"

    store = workdir / "serve.sqlite"
    port = _free_port()
    client = ServeClient(f"http://127.0.0.1:{port}")
    # Kill plan: the server process SIGKILLs *itself* when its worker
    # starts executing the chosen point.  This smoke process is the
    # protected parent; the one-shot token makes the kill fire exactly
    # once, so the restarted server runs the point normally.
    plan = write_kill_plan(
        workdir / "kill.json",
        [points[kill_point_index]],
        workdir / "kill-tokens",
    )
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["REPRO_CHAOS_KILL"] = str(plan)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # The server must not inherit ambient engine defaults.
    env.pop("REPRO_SWEEP_CACHE", None)
    env.pop("REPRO_JOBS", None)

    log(f"serve-smoke: starting server on :{port} (kill plan armed)")
    proc = _spawn_server(store, port, env)
    try:
        _wait_healthy(client, proc)
        submitted = client.submit(points, tag="serve-smoke")
        job_id = submitted["job_id"]
        log(f"serve-smoke: submitted job {job_id[:12]}..., awaiting SIGKILL")
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            raise SmokeFailure("kill plan never fired; server still alive")
        if proc.returncode != -signal.SIGKILL:
            raise SmokeFailure(
                f"server exited rc={proc.returncode}, expected SIGKILL"
            )
        report["sigkill"] = "ok"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    log("serve-smoke: restarting server on the same store")
    proc = _spawn_server(store, port, env)
    try:
        _wait_healthy(client, proc)
        job = client.wait(job_id, timeout=300)
        if job["state"] != "done":
            raise SmokeFailure(
                f"resumed job finished {job['state']}: {job['error']}"
            )
        progress = job["progress"]
        if progress["committed"] != len(points):
            raise SmokeFailure(
                f"journal shows {progress['committed']}/{len(points)} "
                "committed after resume"
            )
        served = _comparable(client.results(job_id))
        if served != baseline:
            raise SmokeFailure(
                "served results differ from the serial baseline"
            )
        report["resume_bit_identical"] = "ok"
        log("serve-smoke: resumed results byte-identical to baseline")

        resubmit = client.submit(points, tag="serve-smoke")
        if not resubmit["deduped"] or resubmit["job_id"] != job_id:
            raise SmokeFailure("resubmission did not dedup onto the job")
        if _comparable(client.results(job_id)) != baseline:
            raise SmokeFailure("deduped results differ from baseline")
        report["dedup"] = "ok"
        log("serve-smoke: resubmission deduped, zero recomputation")

        fetches = []
        fetch_job = client.job
        client.job = lambda job_id: fetches.append(job_id) or fetch_job(job_id)
        try:
            replayed = client.run_sweep(points[:3], tag="serve-smoke-push")
        finally:
            client.job = fetch_job
        if _comparable(replayed) != baseline[:3]:
            raise SmokeFailure("replayed subset differs from the baseline")
        if len(fetches) != 1:
            raise SmokeFailure(
                f"run_sweep fetched the job {len(fetches)} times, not once"
            )
        narrated = list(client.stream_events(fetches[0]))
        if narrated[-1] != {"event": "end", "state": "done"}:
            raise SmokeFailure(f"event stream ended with {narrated[-1]}")
        sources = [e["source"] for e in narrated if e["event"] == "point"]
        if sources != ["cached"] * 3:
            raise SmokeFailure(f"replayed subset was not served from "
                               f"stored rows: {sources}")

        # A job long enough to still be running at SIGTERM: its stream
        # must be told the server is going, not cut.
        long_job = client.submit(
            [replace(point, mesh_size=8, measure_packets=400, seed=seed + i)
             for i, point in enumerate(points * 4)],
            tag="serve-smoke-sigterm",
        )
        last = None
        try:
            for event in client.stream_events(long_job["job_id"]):
                if event["event"] == "job_started":
                    proc.terminate()
                last = event
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise SmokeFailure(
                f"SIGTERM cut the event stream: {type(exc).__name__}: {exc}"
            )
        if last != {"event": "end", "state": "running"}:
            raise SmokeFailure(f"stream at SIGTERM ended with {last}")
        report["push"] = "ok"
        log("serve-smoke: one fetch per pushed wait, SIGTERM ends streams")
    finally:
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    report["shutdown"] = "ok"
    return report


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke",
        description="SIGKILL/resume smoke test for the sweep job server.",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="scratch directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)
    if args.workdir:
        report = run_serve_smoke(args.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
            report = run_serve_smoke(tmp)
    for step, status in report.items():
        print(f"  {step}: {status}")
    print("serve-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
