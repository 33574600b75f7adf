"""Engine hardening: per-point timeouts, bounded retries, error capture.

One bad point must not abort a long parallel sweep: with
``on_error="capture"`` (the process backend's default) a failing point
comes back as a placeholder result carrying the error string and NaN
metrics, is never written to the store, and every other point completes
normally.
"""

import math
import time

import pytest

import repro.exec.engine as engine_mod
from repro.exec import ResultStore, SweepPoint, run_sweep


def _tiny_point(**overrides) -> SweepPoint:
    params = dict(
        layout="baseline", mesh_size=4, pattern="uniform_random",
        rate=0.05, seed=7, warmup_packets=10, measure_packets=30,
    )
    params.update(overrides)
    return SweepPoint(**params)


class TestSerialHardening:
    def test_capture_returns_placeholder_with_error(self, monkeypatch):
        def _boom(point):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(engine_mod, "execute_point", _boom)
        point = _tiny_point()
        result = run_sweep([point], cache=None, on_error="capture")[0]
        assert result.error == "RuntimeError: synthetic failure"
        assert math.isnan(result.latency_cycles)
        assert result.key == point.key()
        assert result.label == point.label

    def test_serial_default_still_raises(self, monkeypatch):
        def _boom(point):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(engine_mod, "execute_point", _boom)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            run_sweep([_tiny_point()], cache=None)

    def test_bounded_retry_recovers_flaky_point(self, monkeypatch):
        calls = {"n": 0}
        real = engine_mod.execute_point

        def _flaky(point):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient failure")
            return real(point)

        monkeypatch.setattr(engine_mod, "execute_point", _flaky)
        result = run_sweep(
            [_tiny_point()], cache=None, retries=1, retry_backoff_s=0
        )[0]
        assert result.error is None
        assert calls["n"] == 2
        assert result.measured_packets == 30

    def test_per_point_timeout_enforced(self, monkeypatch):
        def _hang(point):
            time.sleep(5)

        monkeypatch.setattr(engine_mod, "execute_point", _hang)
        result = run_sweep(
            [_tiny_point()], cache=None, timeout=0.2, on_error="capture"
        )[0]
        assert result.error is not None
        assert "PointTimeout" in result.error

    def test_failed_points_never_cached(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = engine_mod.execute_point

        def _fail_once(point):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first run fails")
            return real(point)

        monkeypatch.setattr(engine_mod, "execute_point", _fail_once)
        point = _tiny_point()
        cache = ResultStore(tmp_path / "sweeps.sqlite")
        failed = run_sweep([point], cache=cache, on_error="capture")[0]
        assert failed.error is not None
        assert cache.get(point) is None
        recovered = run_sweep([point], cache=cache, on_error="capture")[0]
        assert recovered.error is None
        assert not recovered.from_cache
        assert cache.get(point) is not None

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([_tiny_point()], cache=None, retries=-1)
        with pytest.raises(ValueError):
            run_sweep([_tiny_point()], cache=None, on_error="shrug")


class TestProcessHardening:
    def test_one_bad_point_does_not_sink_the_sweep(self):
        # The bad point only fails at execution time (pattern lookup),
        # so it pickles fine and dies inside the worker.
        good = _tiny_point()
        bad = _tiny_point(pattern="no_such_pattern")
        results = run_sweep(
            [good, bad, good], jobs=2, backend="process", cache=None
        )
        assert results[0].error is None
        assert results[2].error is None
        assert results[0].measured_packets == 30
        assert results[1].error is not None
        assert "no_such_pattern" in results[1].error

    def test_process_backend_on_error_raise(self):
        bad = _tiny_point(pattern="no_such_pattern")
        with pytest.raises(RuntimeError, match="no_such_pattern"):
            run_sweep(
                [bad, bad], jobs=2, backend="process", cache=None,
                on_error="raise",
            )


class TestNestedAlarms:
    """The SIGALRM guard must save/restore the *timer*, not just the
    handler: an outer deadline keeps counting down across a guarded
    inner call instead of being silently cancelled."""

    def test_outer_itimer_survives_guarded_call(self):
        import signal

        fired = []
        previous_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: fired.append(signum)
        )
        try:
            signal.setitimer(signal.ITIMER_REAL, 5.0)
            engine_mod._execute_point_guarded(_tiny_point(), timeout_s=0.5)
            remaining, _ = signal.getitimer(signal.ITIMER_REAL)
            # The outer timer is re-armed with (roughly) its remaining
            # budget -- not cancelled, not reset to the full 5 s.
            assert 0 < remaining < 5.0
            assert not fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous_handler)

    def test_expired_outer_timer_fires_after_inner_call(self):
        import signal
        import time as time_mod

        fired = []
        previous_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: fired.append(signum)
        )
        try:
            # Outer deadline shorter than the inner call's runtime: the
            # guard must re-arm it so it fires (late), not swallow it.
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            engine_mod._execute_point_guarded(_tiny_point(), timeout_s=30.0)
            deadline = time_mod.monotonic() + 2.0
            while not fired and time_mod.monotonic() < deadline:
                time_mod.sleep(0.01)
            assert fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous_handler)

    def test_nested_guarded_calls_inner_times_out(self, monkeypatch):
        from repro.exec.engine import PointTimeout, _execute_point_guarded

        point = _tiny_point()
        real = engine_mod.execute_point
        depth = {"n": 0}

        def _nesting(inner_point):
            # First (outer) call: run a *nested* guarded point with a
            # tiny budget, then finish the outer point normally.
            depth["n"] += 1
            if depth["n"] == 1:
                with pytest.raises(PointTimeout):
                    _execute_point_guarded(inner_point, timeout_s=0.1)
                return real(inner_point)
            time.sleep(5)  # the nested call: must hit its 0.1 s budget

        monkeypatch.setattr(engine_mod, "execute_point", _nesting)
        result, _ = _execute_point_guarded(point, timeout_s=30.0)
        assert result.error is None
        assert result.measured_packets == 30


class TestWorkerSigkillChaos:
    def test_sigkilled_worker_retry_bit_identical_to_serial(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL a pool worker mid-point; the retry round must finish
        the sweep with results bit-identical to an undisturbed serial
        run, and the store journal must show every point committed."""
        from repro.chaos.kill import write_kill_plan
        from repro.exec.store import ResultStore, sweep_id_for

        points = [_tiny_point(), _tiny_point(rate=0.08)]
        expected = []
        for result in run_sweep(points, cache=None, backend="serial"):
            row = result.to_dict()
            row.pop("from_cache", None)
            expected.append(row)

        store_path = tmp_path / "sweeps.sqlite"
        plan = write_kill_plan(
            tmp_path / "kill.json", [points[0]], tmp_path / "tokens"
        )
        monkeypatch.setenv("REPRO_CHAOS_KILL", str(plan))
        survived = run_sweep(
            points,
            cache=str(store_path),
            jobs=2,
            backend="process",
            retries=2,
            retry_backoff_s=0,
        )
        got = []
        for result in survived:
            row = result.to_dict()
            row.pop("from_cache", None)
            got.append(row)
        assert got == expected
        assert all(result.error is None for result in survived)
        # The kill really happened: its one-shot token was claimed.
        assert not (tmp_path / "tokens" / f"{points[0].key()}.token").exists()
        progress = ResultStore(store_path).sweep_progress(
            sweep_id_for(points)
        )
        assert progress == {"total": 2, "committed": 2, "pending": 0}
