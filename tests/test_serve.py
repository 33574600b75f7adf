"""The sweep job server: queue semantics, HTTP API, dedup, bit-identity.

What must hold:

* results fetched through the server are bit-identical to a serial
  local ``run_sweep`` of the same points -- the engine invariant carried
  across the HTTP boundary, for one client or several at once;
* submission is content-addressed: an equivalent sweep joins the
  existing job (queued, running or done) instead of recomputing, and
  points any earlier job committed serve from the store;
* the queue claims by priority then FIFO, one worker per job, and
  crash recovery requeues ``running`` rows without duplicating work;
* failures are captured per point (job ``failed``, error recorded) and
  the client reconstructs engine-style NaN results;
* the engine's server-facing hook works standalone: a ``submit`` hook
  reroutes whole sweeps;
* nothing on the served-job path waits on a timer: a submission wakes
  the workers, ``/events`` is pushed (with keep-alives through silence)
  and ``ServeClient.wait`` follows it -- one ``job()`` fetch, no sleep.

The SIGKILL/restart scenario lives in ``tests/test_serve_chaos.py``
(driving ``repro.serve.smoke``); this file stays in-process.
"""

import statistics
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro.serve.client as client_mod
import repro.serve.server as server_mod

from repro.exec.engine import run_sweep, sweep_points
from repro.exec.store import ResultStore
from repro.serve import (
    JobQueue,
    ServeClient,
    ServeError,
    SweepServer,
    install_submit,
    job_id_for,
)
from repro.serve.smoke import _free_port


def _points(n=2, seed=7):
    rates = [0.04 + 0.02 * i for i in range(n)]
    return sweep_points(
        ["baseline"],
        "uniform_random",
        rates,
        seed=seed,
        warmup_packets=10,
        measure_packets=30,
        mesh_size=4,
    )


def _comparable(results):
    rows = []
    for result in results:
        row = result.to_dict()
        row.pop("from_cache", None)
        rows.append(row)
    return rows


@pytest.fixture(autouse=True)
def _no_ambient_defaults(monkeypatch):
    """Pin engine defaults so the environment can't leak into tests."""
    monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_KILL", raising=False)
    import repro.exec.engine as engine_mod

    saved = engine_mod._defaults
    engine_mod._defaults = engine_mod.ExecDefaults()
    yield
    engine_mod._defaults = saved


class TestJobQueue:
    def test_submit_is_content_addressed(self, tmp_path):
        queue = JobQueue(tmp_path / "s.sqlite")
        points = _points(2)
        job_id, deduped = queue.submit(points, tag="fig07")
        assert job_id == job_id_for(points, "fig07")
        assert not deduped
        again, deduped = queue.submit(points, tag="fig07")
        assert again == job_id and deduped
        # A different tag is a different job.
        other, deduped = queue.submit(points, tag="fig09")
        assert other != job_id and not deduped
        assert queue.counts() == {"queued": 2}

    def test_submit_journals_points(self, tmp_path):
        queue = JobQueue(tmp_path / "s.sqlite")
        points = _points(2)
        job_id, _ = queue.submit(points, tag="fig07")
        job = queue.get(job_id)
        assert job["progress"] == {"total": 2, "committed": 0, "pending": 2}
        assert job["num_points"] == 2
        assert job["point_keys"] == [p.key() for p in points]

    def test_empty_job_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one point"):
            JobQueue(tmp_path / "s.sqlite").submit([])

    def test_claim_priority_then_fifo(self, tmp_path):
        queue = JobQueue(tmp_path / "s.sqlite")
        low_a, _ = queue.submit(_points(1, seed=1), priority=0)
        high, _ = queue.submit(_points(1, seed=2), priority=5)
        low_b, _ = queue.submit(_points(1, seed=3), priority=0)
        claimed = [queue.claim("w")["job_id"] for _ in range(3)]
        assert claimed == [high, low_a, low_b]
        assert queue.claim("w") is None

    def test_claim_marks_running_and_finish_guards(self, tmp_path):
        queue = JobQueue(tmp_path / "s.sqlite")
        job_id, _ = queue.submit(_points(1))
        job = queue.claim("worker-0")
        assert job["job_id"] == job_id
        assert job["state"] == "running" and job["worker"] == "worker-0"
        assert job["points"] == [p.spec_dict() for p in _points(1)]
        queue.finish(job_id, "done")
        assert queue.get(job_id)["state"] == "done"
        # finish() only transitions running rows: a done job stays done.
        queue.finish(job_id, "failed", error="late")
        assert queue.get(job_id)["state"] == "done"
        with pytest.raises(ValueError, match="terminal"):
            queue.finish(job_id, "queued")

    def test_failed_job_requeues_in_place(self, tmp_path):
        queue = JobQueue(tmp_path / "s.sqlite")
        job_id, _ = queue.submit(_points(1))
        queue.claim("w")
        queue.finish(job_id, "failed", error="boom")
        again, deduped = queue.submit(_points(1))
        assert again == job_id and not deduped
        job = queue.get(job_id)
        assert job["state"] == "queued"
        assert job["error"] is None and job["worker"] is None

    def test_requeue_running_recovers_orphans(self, tmp_path):
        queue = JobQueue(tmp_path / "s.sqlite")
        job_id, _ = queue.submit(_points(1))
        queue.claim("w")
        assert queue.get(job_id)["state"] == "running"
        # Simulate the post-SIGKILL startup path.
        assert queue.requeue_running() == 1
        job = queue.get(job_id)
        assert job["state"] == "queued" and job["worker"] is None
        assert queue.requeue_running() == 0

    def test_cancel_only_flips_queued(self, tmp_path):
        queue = JobQueue(tmp_path / "s.sqlite")
        job_id, _ = queue.submit(_points(1))
        assert queue.cancel(job_id) == "cancelled"
        other, _ = queue.submit(_points(1, seed=9))
        queue.claim("w")
        assert queue.cancel(other) == "running"
        assert queue.cancel("no-such-job") is None

    def test_list_jobs_recent_first_with_state_filter(self, tmp_path):
        queue = JobQueue(tmp_path / "s.sqlite")
        first, _ = queue.submit(_points(1, seed=1))
        second, _ = queue.submit(_points(1, seed=2))
        assert [j["job_id"] for j in queue.list_jobs()] == [second, first]
        queue.claim("w")
        assert [j["job_id"] for j in queue.list_jobs(state="running")] == [
            first
        ]

    def test_results_for_reports_missing_rows(self, tmp_path):
        queue = JobQueue(tmp_path / "s.sqlite")
        points = _points(2)
        job_id, _ = queue.submit(points)
        [result] = run_sweep(points[:1], cache=None)
        queue.store.put(points[0], result)
        rows = queue.results_for(job_id)
        assert rows[0].to_dict() == result.to_dict()
        assert rows[1] is None
        assert queue.results_for("no-such-job") is None


@pytest.fixture
def server(tmp_path):
    instance = SweepServer(tmp_path / "serve.sqlite", port=0, workers=2)
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture
def client(server):
    return ServeClient(f"http://127.0.0.1:{server.port}")


def _count_calls(monkeypatch, obj, name):
    """Wrap ``obj.name`` so the returned list grows by one per call."""
    calls, real = [], getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


@pytest.fixture
def gate(monkeypatch):
    """Block every ``execute_point`` until ``gate.release`` is set;
    ``gate.entered`` says a worker is inside one."""
    import repro.exec.engine as engine_mod

    state = types.SimpleNamespace(
        entered=threading.Event(), release=threading.Event()
    )
    real = engine_mod.execute_point

    def gated(point, *args, **kwargs):
        state.entered.set()
        state.release.wait(timeout=60)
        return real(point, *args, **kwargs)

    monkeypatch.setattr(engine_mod, "execute_point", gated)
    yield state
    state.release.set()


class TestServerAPI:
    def test_health_and_metrics(self, server, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema_version"] == 2
        assert health["workers"] == 2
        metrics = client.metrics()
        assert set(metrics) == {"queue", "derived", "instruments"}
        assert "worker_utilization" in metrics["derived"]

    def test_served_results_bit_identical_to_serial(self, server, client):
        points = _points(2)
        expected = _comparable(run_sweep(points, cache=None))
        submitted = client.submit(points, tag="fig07")
        assert not submitted["deduped"]
        job = client.wait(submitted["job_id"], timeout=120)
        assert job["state"] == "done"
        assert job["progress"] == {"total": 2, "committed": 2, "pending": 0}
        assert _comparable(client.results(submitted["job_id"])) == expected

    @pytest.mark.parametrize("kernel", ["event", "c"])
    def test_concurrent_jobs_bit_identical_to_local(self, server, kernel):
        """Four clients at once keep both worker threads busy: every
        served result is still the local one (``c`` without a compiler
        degrades to event on both sides)."""
        jobs = [
            [replace(p, kernel=kernel, measure_packets=120)
             for p in _points(3, seed=seed)]
            for seed in range(4)
        ]
        local = [_comparable(run_sweep(job, cache=None)) for job in jobs]
        url = f"http://127.0.0.1:{server.port}"
        with ThreadPoolExecutor(max_workers=4) as pool:
            served = pool.map(lambda job: ServeClient(url).run_sweep(job), jobs)
        assert [_comparable(results) for results in served] == local

    def test_resubmission_joins_finished_job(self, server, client):
        points = _points(1)
        first = client.submit(points, tag="t")
        client.wait(first["job_id"], timeout=120)
        second = client.submit(points, tag="t")
        assert second["deduped"] and second["job_id"] == first["job_id"]
        instruments = {
            row["name"]: row for row in client.metrics()["instruments"]
            if not row["labels"]
        }
        assert instruments["serve.jobs_deduped"]["value"] == 1
        assert instruments["serve.points_executed"]["value"] == 1

    def test_overlapping_points_serve_from_store(self, server, client):
        points = _points(3)
        first = client.submit(points[:2], tag="a")
        client.wait(first["job_id"], timeout=120)
        # The second job shares points[1]; only points[2] may compute.
        second = client.submit(points[1:], tag="b")
        assert not second["deduped"]
        client.wait(second["job_id"], timeout=120)
        expected = _comparable(run_sweep(points[1:], cache=None))
        assert _comparable(client.results(second["job_id"])) == expected
        instruments = {
            row["name"]: row for row in client.metrics()["instruments"]
            if not row["labels"]
        }
        assert instruments["serve.points_executed"]["value"] == 3
        assert instruments["serve.point_cache_hits"]["value"] >= 1

    def test_event_stream_narrates_the_job(self, server, client):
        points = _points(2)
        submitted = client.submit(points)
        client.wait(submitted["job_id"], timeout=120)
        events = list(client.stream_events(submitted["job_id"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "snapshot"
        assert kinds[-1] == "end"
        assert "job_started" in kinds and "job_done" in kinds
        point_events = [e for e in events if e["event"] == "point"]
        assert [e["seq"] for e in point_events] == [0, 1]
        assert all(e["source"] == "computed" for e in point_events)
        assert all(e["error"] is None for e in point_events)
        spans = [e for e in events if e["event"] == "span"]
        assert len(spans) == 2

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError, match="404"):
            client.job("deadbeef")
        with pytest.raises(ServeError, match="404"):
            client.cancel("deadbeef")

    def test_bad_submission_is_400(self, client):
        with pytest.raises(ServeError, match="400"):
            client._request("POST", "/jobs", {"points": []})
        with pytest.raises(ServeError, match="400"):
            client._request(
                "POST", "/jobs", {"points": [{"no_such_field": 1}]}
            )
        with pytest.raises(ServeError, match="400.*unknown kernel 'soa'"):
            client._request(
                "POST", "/jobs", {"points": [{"kernel": "soa"}]}
            )

    def test_result_before_terminal_is_409(self, server, client):
        # Stall the queue with an artificial running job so a queued
        # job's result can be asked for deterministically.
        queue = JobQueue(server.store_path)
        points = _points(1)
        job_id, _ = queue.submit(points)
        queue.store.close()
        # The workers may have claimed it already; either way the job is
        # not terminal until waited on, so poll the error path quickly.
        try:
            client._request("GET", f"/jobs/{job_id}/result")
        except ServeError as exc:
            assert "409" in str(exc)
        client.wait(job_id, timeout=120)
        assert client.results(job_id)

    def test_cancel_queued_job(self, tmp_path, monkeypatch):
        # Pin the single worker inside the blocker's point so the victim
        # is deterministically still queued when cancelled.
        import repro.exec.engine as engine_mod

        release = threading.Event()
        real = engine_mod.execute_point

        def gated(point, *args, **kwargs):
            if point.seed == 11:
                release.wait(timeout=60)
            return real(point, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "execute_point", gated)
        server = SweepServer(tmp_path / "c.sqlite", port=0, workers=1)
        server.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}")
            blocker = client.submit(_points(1, seed=11), priority=5)
            victim = client.submit(_points(1, seed=12), priority=0)
            cancelled = client.cancel(victim["job_id"])
            assert cancelled["state"] == "cancelled"
            release.set()
            job = client.wait(victim["job_id"], timeout=120)
            assert job["state"] == "cancelled"
            assert client.wait(blocker["job_id"], timeout=120)[
                "state"
            ] == "done"
        finally:
            release.set()
            server.stop()

    def test_failed_points_captured_not_lost(
        self, server, client, monkeypatch
    ):
        import repro.exec.engine as engine_mod

        real = engine_mod.execute_point

        def explode(point, *args, **kwargs):
            if point.rate == 0.04:
                raise RuntimeError("injected fault")
            return real(point, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "execute_point", explode)
        points = _points(2)  # rates 0.04 (fails) and 0.06 (succeeds)
        submitted = client.submit(points, tag="faulty")
        job = client.wait(submitted["job_id"], timeout=120)
        assert job["state"] == "failed"
        assert "injected fault" in job["error"]
        assert job["progress"]["committed"] == 1
        results = client.results(submitted["job_id"], points=points)
        assert results[0].error is not None
        assert results[0].latency_cycles != results[0].latency_cycles  # NaN
        assert results[1].error is None
        # Without the points the missing row is an explicit error.
        with pytest.raises(ServeError, match="no result"):
            client.results(submitted["job_id"])
        # Store only holds the good row; the journal shows the gap.
        store = ResultStore(server.store_path)
        assert store.get(points[0]) is None
        assert store.get(points[1]) is not None

    def test_inflight_point_joined_not_raced(self, server, client, gate):
        """Two jobs (different tags) sharing one point, two workers:
        the second worker joins the first's in-flight simulation
        instead of racing it -- the point executes exactly once."""
        points = _points(1)
        first = client.submit(points, tag="a")
        # The leader registers the in-flight key before execute_point
        # runs, so once we are inside it the follower can only join.
        assert gate.entered.wait(timeout=60)
        second = client.submit(points, tag="b")
        assert second["job_id"] != first["job_id"]
        deadline = time.monotonic() + 60
        while server.metrics.point_inflight_joins.value < 1:
            assert time.monotonic() < deadline, "follower never joined"
            time.sleep(0.02)
        gate.release.set()
        assert client.wait(first["job_id"], timeout=120)["state"] == "done"
        assert client.wait(second["job_id"], timeout=120)["state"] == "done"
        assert server.metrics.points_executed.value == 1
        assert server.metrics.point_inflight_joins.value == 1
        assert _comparable(client.results(first["job_id"])) == _comparable(
            client.results(second["job_id"])
        )

    def test_client_run_sweep_is_drop_in(self, server, client):
        points = _points(2)
        expected = _comparable(run_sweep(points, cache=None))
        assert _comparable(client.run_sweep(points)) == expected


class TestPushedWait:
    """The served-job path is driven by notifications, not timers."""

    def test_wait_is_one_fetch_and_no_sleep(self, server, client, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"wait slept {seconds}s on the success path")

        monkeypatch.setattr(client_mod, "time", types.SimpleNamespace(
            monotonic=time.monotonic, sleep=no_sleep,
        ))
        fetches = _count_calls(monkeypatch, client, "job")
        submitted = client.submit(_points(2))
        job = client.wait(submitted["job_id"], timeout=120)
        assert job["state"] == "done"
        assert job["progress"]["committed"] == 2
        assert len(fetches) == 1
        # An already-finished job costs the same: one stream, one fetch.
        assert client.wait(submitted["job_id"])["state"] == "done"
        assert len(fetches) == 2

    def test_submission_wakes_idle_workers(self, tmp_path):
        """``poll_s`` only finds rows other processes queued: with it at
        30 s, a job submitted to idle workers still starts at once."""
        server = SweepServer(
            tmp_path / "idle.sqlite", port=0, workers=2, poll_s=30.0
        )
        server.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}")
            # After the first job both workers have found the queue empty
            # and are waiting; the second can only start by being woken.
            for seed in (1, 2):
                submitted = client.submit(_points(1, seed=seed))
                assert client.wait(
                    submitted["job_id"], timeout=5
                )["state"] == "done"
        finally:
            server.stop()

    def test_no_wakeup_is_lost_under_contention(self, tmp_path):
        """More workers and clients than cores, a tiny switch interval,
        and a fallback poll far beyond the timeout: a wake-up lost
        between a worker's claim and its wait would strand a job."""
        server = SweepServer(
            tmp_path / "stress.sqlite", port=0, workers=4, poll_s=300.0
        )
        server.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            url = f"http://127.0.0.1:{server.port}"
            points = _points(1)
            ServeClient(url).run_sweep(points, tag="seed-the-store")

            def replay(index):
                results = ServeClient(url).run_sweep(
                    points, tag=f"replay-{index}", timeout=30
                )
                return results[0].to_dict()["latency_cycles"]

            with ThreadPoolExecutor(max_workers=6) as pool:
                latencies = set(pool.map(replay, range(36)))
            assert len(latencies) == 1
            assert server.metrics.points_executed.value == 1
        finally:
            sys.setswitchinterval(interval)
            server.stop()

    def test_keepalives_outlast_the_socket_timeout(
        self, server, gate, monkeypatch
    ):
        """A point blocked four socket timeouts long does not cut the
        stream: the blank keep-alive lines carry it, on one connection."""
        monkeypatch.setattr(server_mod, "KEEPALIVE_S", 0.1)
        client = ServeClient(f"http://127.0.0.1:{server.port}", timeout=0.5)
        streams = _count_calls(monkeypatch, client, "_follow")
        submitted = client.submit(_points(1))
        assert gate.entered.wait(timeout=60)
        threading.Timer(2.0, gate.release.set).start()
        job = client.wait(submitted["job_id"], timeout=120)
        assert job["state"] == "done"
        assert len(streams) == 1

    def test_wait_timeout_names_progress(self, server, client, gate):
        submitted = client.submit(_points(1))
        assert gate.entered.wait(timeout=60)
        with pytest.raises(TimeoutError, match=r"still running.*0/1 committed"):
            client.wait(submitted["job_id"], timeout=0.5)
        # A stop ends the open stream with an `end` line for the state
        # the job is left in, instead of resetting it.
        events = client.stream_events(submitted["job_id"])
        assert next(events)["event"] == "snapshot"
        server.request_stop()
        assert list(events)[-1] == {"event": "end", "state": "running"}

    def test_follower_sees_queued_job_cancelled(self, tmp_path, gate):
        server = SweepServer(tmp_path / "c.sqlite", port=0, workers=1)
        server.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}")
            client.submit(_points(1, seed=11), priority=5)
            assert gate.entered.wait(timeout=60)  # the one worker is pinned
            victim = client.submit(_points(1, seed=12))["job_id"]
            events = client.stream_events(victim)
            assert next(events)["job"]["state"] == "queued"
            assert client.cancel(victim)["state"] == "cancelled"
            assert [event["event"] for event in events] == [
                "job_cancelled", "end",
            ]
            assert client.wait(victim)["state"] == "cancelled"
        finally:
            gate.release.set()
            server.stop()

    def test_requeued_job_streams_only_its_new_attempt(
        self, server, client, monkeypatch
    ):
        import repro.exec.engine as engine_mod

        def explode(point, *args, **kwargs):
            raise RuntimeError("injected fault")

        points = _points(1)
        with monkeypatch.context() as patch:
            patch.setattr(engine_mod, "execute_point", explode)
            first = client.submit(points)
            assert client.wait(first["job_id"], timeout=120)["state"] == "failed"
        again = client.submit(points)
        assert again["job_id"] == first["job_id"] and not again["deduped"]
        assert client.wait(again["job_id"], timeout=120)["state"] == "done"
        kinds = [e["event"] for e in client.stream_events(again["job_id"])]
        assert kinds.count("job_started") == 1
        assert "job_failed" not in kinds and "job_done" in kinds

    def test_event_buffers_of_old_jobs_are_dropped(
        self, server, client, monkeypatch
    ):
        monkeypatch.setattr(server_mod, "KEPT_EVENT_BUFFERS", 3)
        points = _points(1)
        for index in range(3 + 5):
            client.run_sweep(points, tag=f"job-{index}")
        assert len(server._events) <= 3
        # The most recent job is still narrated in full.
        last = job_id_for(points, "job-7")
        kinds = [e["event"] for e in client.stream_events(last)]
        assert kinds[0] == "snapshot" and kinds[-1] == "end"
        assert "job_started" in kinds and "job_done" in kinds

    def test_replayed_sweep_costs_milliseconds(self, server, client):
        """The floor under the claim: three stored 4x4 points through
        ``run_sweep`` took a fixed 0.2 s sleep when ``wait`` polled;
        pushed, they take four round trips (~10 ms)."""
        points = _points(3)
        client.run_sweep(points, tag="compute")
        elapsed = []
        for index in range(5):
            started = time.perf_counter()
            results = client.run_sweep(points, tag=f"replay-{index}")
            elapsed.append(time.perf_counter() - started)
            assert all(result.error is None for result in results)
        assert statistics.median(elapsed) < 0.1


class TestCrashRecovery:
    def test_restart_requeues_and_completes(self, tmp_path):
        """An in-process rehearsal of the smoke scenario: stop() leaves
        the claimed job ``running`` (crash semantics), the next start
        requeues it and completes without recomputing committed points.
        """
        store_path = tmp_path / "crash.sqlite"
        points = _points(3)
        expected = _comparable(run_sweep(points, cache=None))
        # Pre-commit the first point, as if a crash followed it.
        queue = JobQueue(store_path)
        job_id, _ = queue.submit(points, tag="crash")
        queue.claim("w0")
        [first] = run_sweep(points[:1], cache=None)
        queue.store.put(points[0], first)
        queue.store.mark_committed(job_id, points[0])
        queue.store.close()

        server = SweepServer(store_path, port=0, workers=1)
        server.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{server.port}")
            job = client.wait(job_id, timeout=120)
            assert job["state"] == "done"
            assert job["progress"]["committed"] == 3
            assert _comparable(client.results(job_id)) == expected
            instruments = {
                row["name"]: row
                for row in client.metrics()["instruments"]
                if not row["labels"]
            }
            # The pre-crash point replayed from the store.
            assert instruments["serve.points_executed"]["value"] == 2
            assert instruments["serve.point_cache_hits"]["value"] == 1
        finally:
            server.stop()

    def test_wait_survives_stop_and_restart(self, tmp_path, gate):
        """A client already waiting when the server stops mid-job keeps
        waiting: its stream ends, it reconnects with a back-off, and the
        restarted server on the same store finishes the job for it."""
        store_path = tmp_path / "restart.sqlite"
        port = _free_port()
        points = _points(3)
        first = SweepServer(store_path, port=port, workers=1).start()
        client = ServeClient(f"http://127.0.0.1:{port}")
        job_id = client.submit(points, tag="restart")["job_id"]
        assert gate.entered.wait(timeout=60)
        box = {}
        waiter = threading.Thread(
            target=lambda: box.update(job=client.wait(job_id, timeout=120))
        )
        waiter.start()
        # Stop joins the worker, which is inside the gated point: let it
        # finish that point and find the stop flag before the next one.
        first.request_stop()
        gate.release.set()
        first.stop()
        assert JobQueue(store_path).get(job_id)["state"] == "running"
        second = SweepServer(store_path, port=port, workers=1).start()
        try:
            waiter.join(timeout=120)
            assert not waiter.is_alive()
            assert box["job"]["state"] == "done"
            assert box["job"]["progress"]["committed"] == 3
            assert _comparable(client.results(job_id)) == _comparable(
                run_sweep(points, cache=None)
            )
            # Only what the first server had not committed was computed.
            assert second.metrics.point_cache_hits.value == 1
            assert second.metrics.points_executed.value == 2
        finally:
            second.stop()


class TestRunAllFlags:
    def test_list_enumerates_harnesses_and_tags(self, capsys, monkeypatch):
        from repro.experiments.run_all import HARNESSES, main
        from repro.noc.config import NetworkConfig

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "sweep tag" in out
        for name in HARNESSES:
            assert name in out
        # The kernel line reports the config default, not a copy of it...
        assert out.splitlines()[-1] == f"cycle kernel: {NetworkConfig.kernel}"
        # ...and REPRO_KERNEL when that overrides it.
        monkeypatch.setenv("REPRO_KERNEL", "c")
        assert main(["--list"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "cycle kernel: c"

    def test_submit_requires_reachable_server(self, capsys):
        from repro.experiments.run_all import main

        assert main(["--submit", "http://127.0.0.1:1", "table1"]) == 2
        assert "--submit" in capsys.readouterr().out

    def test_submit_flag_needs_a_value(self, capsys):
        from repro.experiments.run_all import main

        assert main(["--submit"]) == 2
        assert "needs a value" in capsys.readouterr().out


class TestEngineHooks:
    def test_submit_hook_reroutes_whole_sweep(self):
        points = _points(2)
        expected = run_sweep(points, cache=None)
        calls = []

        def fake_submit(submitted_points, tag=None):
            calls.append((list(submitted_points), tag))
            return list(expected)

        results = run_sweep(points, cache=None, submit=fake_submit)
        assert _comparable(results) == _comparable(expected)
        assert calls == [(points, None)]

    def test_install_submit_configures_engine(self, monkeypatch):
        points = _points(1)
        expected = run_sweep(points, cache=None)
        captured = {}

        def fake_run_sweep(self, pts, tag=None, client=None, **kwargs):
            captured["tag"] = tag
            captured["client"] = client
            return list(expected)

        monkeypatch.setattr(ServeClient, "run_sweep", fake_run_sweep)
        from repro.exec.engine import configure

        install_submit("http://127.0.0.1:1", client="test")
        try:
            results = run_sweep(points, cache=None)
        finally:
            configure(submit=None)
        assert _comparable(results) == _comparable(expected)
        assert captured == {"tag": None, "client": "test"}
