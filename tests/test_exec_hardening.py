"""Engine hardening: bounded retries, error capture, worker crashes.

One bad point must not abort a long parallel sweep: with
``on_error="capture"`` (the process backend's default) a failing point
comes back as a placeholder result carrying the error string and NaN
metrics, is never written to the store, and every other point completes
normally.
"""

import math

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
        monkeypatch.setattr(engine_mod, "_RETRY_BACKOFF_S", 0)
        result = run_sweep([_tiny_point()], cache=None, retries=1)[0]
        assert result.error is None
        assert calls["n"] == 2
        assert result.measured_packets == 30

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
        monkeypatch.setattr(engine_mod, "_RETRY_BACKOFF_S", 0)
        survived = run_sweep(
            points,
            cache=str(store_path),
            jobs=2,
            backend="process",
            retries=2,
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
