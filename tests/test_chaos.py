"""The chaos harness itself: plans, tokens, fault sites, corruption.

The end-to-end scenario (worker SIGKILL, store corruption, checkpoint
interruption, injected I/O faults -> bit-identical results throughout)
runs as ``TestScenario``; the rest pins the machinery the scenario
relies on -- deterministic one-shot firing, plan gating, seeded damage.
"""

import json
import os
import signal

import pytest

from repro.chaos.corrupt import corrupt_store_rows, flip_bits, truncate_file
from repro.chaos.kill import maybe_kill_self, write_kill_plan
from repro.chaos.sites import (
    chaos_site,
    reset_chaos_sites,
    token_path,
    write_site_plan,
)
from repro.exec.engine import sweep_points


@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS_PLAN", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_KILL", raising=False)
    reset_chaos_sites()
    yield
    reset_chaos_sites()


def _point():
    return sweep_points(
        ["baseline"],
        "uniform_random",
        [0.05],
        seed=7,
        warmup_packets=10,
        measure_packets=30,
        mesh_size=4,
    )[0]


class TestSites:
    def test_no_plan_is_a_no_op(self):
        chaos_site("store.put")  # must not raise

    def test_planned_site_fires_on_planned_calls_only(
        self, tmp_path, monkeypatch
    ):
        plan = write_site_plan(
            tmp_path / "plan.json",
            {"store.put": {"exc": "OSError", "calls": [1, 3]}},
        )
        monkeypatch.setenv("REPRO_CHAOS_PLAN", str(plan))
        chaos_site("store.put")  # call 0: passes
        with pytest.raises(OSError):
            chaos_site("store.put")  # call 1: fires
        chaos_site("store.put")  # call 2: passes
        with pytest.raises(OSError):
            chaos_site("store.put")  # call 3: fires
        chaos_site("store.put")  # call 4: passes
        chaos_site("store.get")  # other sites untouched

    def test_exception_type_and_message_come_from_plan(
        self, tmp_path, monkeypatch
    ):
        plan = write_site_plan(
            tmp_path / "plan.json",
            {"store.get": {"exc": "MemoryError", "calls": [0],
                           "message": "chaos says no"}},
        )
        monkeypatch.setenv("REPRO_CHAOS_PLAN", str(plan))
        with pytest.raises(MemoryError, match="chaos says no"):
            chaos_site("store.get")

    def test_once_tokens_fire_exactly_once(self, tmp_path, monkeypatch):
        tokens = tmp_path / "tokens"
        plan = write_site_plan(
            tmp_path / "plan.json",
            {"runner.checkpoint": {"exc": "OSError",
                                   "once_dir": str(tokens)}},
        )
        monkeypatch.setenv("REPRO_CHAOS_PLAN", str(plan))
        assert token_path(tokens, "runner.checkpoint", 0).exists()
        with pytest.raises(OSError):
            chaos_site("runner.checkpoint")
        assert not token_path(tokens, "runner.checkpoint", 0).exists()
        # Token claimed: every later call passes, even after a "restart"
        # (fresh per-process counters, same plan on disk).
        chaos_site("runner.checkpoint")
        reset_chaos_sites()
        monkeypatch.setenv("REPRO_CHAOS_PLAN", str(plan))
        chaos_site("runner.checkpoint")

    def test_torn_plan_never_fires(self, tmp_path, monkeypatch):
        plan = tmp_path / "plan.json"
        plan.write_text('{"sites": {"store.put"')
        monkeypatch.setenv("REPRO_CHAOS_PLAN", str(plan))
        chaos_site("store.put")  # must not raise


class TestKill:
    def test_no_plan_no_kill(self):
        maybe_kill_self(_point())  # must not raise or kill

    def test_parent_pid_interlock(self, tmp_path, monkeypatch):
        point = _point()
        plan = write_kill_plan(
            tmp_path / "kill.json", [point], tmp_path / "tokens"
        )
        monkeypatch.setenv("REPRO_CHAOS_KILL", str(plan))
        # parent_pid defaults to this process, so this must NOT kill us.
        maybe_kill_self(point)
        # And the token is still armed for an actual worker.
        assert (tmp_path / "tokens" / f"{point.key()}.token").exists()

    def test_unplanned_point_not_killed(self, tmp_path, monkeypatch):
        points = sweep_points(
            ["baseline"],
            "uniform_random",
            [0.05, 0.1],
            seed=7,
            warmup_packets=10,
            measure_packets=30,
            mesh_size=4,
        )
        plan = write_kill_plan(
            tmp_path / "kill.json",
            [points[0]],
            tmp_path / "tokens",
            parent_pid=1,  # not us: the kill path is live
        )
        monkeypatch.setenv("REPRO_CHAOS_KILL", str(plan))
        maybe_kill_self(points[1])  # unplanned: survives

    def test_claimed_token_prevents_second_kill(self, tmp_path, monkeypatch):
        point = _point()
        plan = write_kill_plan(
            tmp_path / "kill.json", [point], tmp_path / "tokens",
            parent_pid=1,
        )
        (tmp_path / "tokens" / f"{point.key()}.token").unlink()
        monkeypatch.setenv("REPRO_CHAOS_KILL", str(plan))
        maybe_kill_self(point)  # token gone: survives

    def test_kill_plan_shape(self, tmp_path):
        point = _point()
        plan_path = write_kill_plan(
            tmp_path / "kill.json", [point], tmp_path / "tokens"
        )
        plan = json.loads(plan_path.read_text())
        assert plan["keys"] == [point.key()]
        assert plan["parent_pid"] == os.getpid()
        assert plan["signal"] == signal.SIGKILL


class TestCorrupt:
    def test_truncate_file(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(bytes(range(100)))
        assert truncate_file(path, 0.5) == 50
        assert path.stat().st_size == 50
        with pytest.raises(ValueError):
            truncate_file(path, 1.5)

    def test_flip_bits_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        payload = bytes(range(256)) * 4
        a.write_bytes(payload)
        b.write_bytes(payload)
        assert flip_bits(a, seed=9, flips=5) == flip_bits(b, seed=9, flips=5)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != payload

    def test_corrupt_store_rows_seeded(self, tmp_path):
        from repro.exec.engine import run_sweep
        from repro.exec.store import ResultStore

        points = sweep_points(
            ["baseline"],
            "uniform_random",
            [0.04, 0.06, 0.08],
            seed=7,
            warmup_packets=10,
            measure_packets=30,
            mesh_size=4,
        )
        path = tmp_path / "s.sqlite"
        run_sweep(points, cache=str(path))
        mangled = corrupt_store_rows(path, count=2, seed=5)
        assert len(mangled) == 2
        assert corrupt_store_rows(path, count=2, seed=5) == mangled
        store = ResultStore(path)
        for point in points:
            if point.key() in mangled:
                with pytest.warns(UserWarning, match="quarantined"):
                    assert store.get(point) is None
            else:
                assert store.get(point) is not None


class TestScenario:
    def test_end_to_end_chaos_scenario(self, tmp_path):
        from repro.chaos.harness import run_chaos_scenario

        report = run_chaos_scenario(tmp_path, log=lambda *a, **k: None)
        assert report == {
            "baseline": "ok",
            "worker-sigkill": "ok",
            "journal": "ok",
            "store-corruption": "ok",
            "checkpoint-resume": "ok",
            "checkpoint-corruption": "ok",
            "checkpoint-resume-c": "ok",
            "checkpoint-corruption-c": "ok",
            "store-io-faults": "ok",
        }

    def test_cli_reports_success(self, capsys, monkeypatch):
        # The real scenario already ran above; here only the CLI shell
        # is under test (CI's chaos-smoke job runs the CLI for real).
        import repro.chaos.__main__ as cli

        monkeypatch.setattr(
            cli, "run_chaos_scenario", lambda *a, **k: {"baseline": "ok"}
        )
        assert cli.main(["--smoke"]) == 0
        assert "chaos scenario passed" in capsys.readouterr().out

    def test_cli_reports_failure(self, capsys, monkeypatch):
        import repro.chaos.__main__ as cli
        from repro.chaos.harness import ChaosMismatch

        def explode(*args, **kwargs):
            raise ChaosMismatch("results differ")

        monkeypatch.setattr(cli, "run_chaos_scenario", explode)
        assert cli.main(["--smoke"]) == 1
        assert "CHAOS FAILURE" in capsys.readouterr().err
