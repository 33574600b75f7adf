"""Bench trajectory tracking: history entries and regression flags.

``python -m repro.noc.bench`` appends one JSON line per run to
``BENCH_history.jsonl`` (timestamp injected for reproducibility) and
flags cases that regressed past the tolerance against the committed
``BENCH_kernel.json``.  The unit tests pin the entry shape and the flag
arithmetic; the integration test runs the real CLI on the cheapest case.
"""

import json

import pytest

from repro.noc.bench import (
    append_history,
    flag_regressions,
    history_entry,
    main,
)
from repro.noc.ckernel import ckernel_available

REPORT = {
    "meta": {"tool": "repro.noc.bench", "repeat": 2, "scale": {}},
    "event": {
        "empty-4x4": {"cycles": 30000, "wall_s": 0.3, "cycles_per_s": 100000.0},
        "ur-4x4-r0.05": {"cycles": 5000, "wall_s": 0.5, "cycles_per_s": 10000.0},
    },
    "groups": {
        "fig07_low": {"cases": [], "wall_s": 1.25},
        "saturation": {"cases": [], "wall_s": 0.75},
    },
}


class TestHistoryEntry:
    def test_shape(self):
        entry = history_entry(REPORT, "2026-08-08T00:00:00Z", "a" * 40)
        assert entry == {
            "timestamp": "2026-08-08T00:00:00Z",
            "git_sha": "a" * 40,
            "repeat": 2,
            "event": {"empty-4x4": 100000.0, "ur-4x4-r0.05": 10000.0},
            "groups": {"fig07_low": 1.25, "saturation": 0.75},
        }

    def test_missing_sha_is_none(self):
        assert history_entry(REPORT, "t")["git_sha"] is None

    def test_append_accumulates_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(history_entry(REPORT, "t1"), path)
        append_history(history_entry(REPORT, "t2"), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["timestamp"] for line in lines] == [
            "t1", "t2",
        ]


class TestFlagRegressions:
    BASE = {
        "a": {"cycles_per_s": 1000.0},
        "b": {"cycles_per_s": 1000.0},
    }

    def test_within_tolerance_passes(self):
        current = {
            "a": {"cycles_per_s": 800.0},   # 1.25x slower
            "b": {"cycles_per_s": 1100.0},  # faster
        }
        assert flag_regressions(current, self.BASE, tolerance=1.5) == []

    def test_slow_case_flagged(self):
        current = {
            "a": {"cycles_per_s": 500.0},   # 2x slower
            "b": {"cycles_per_s": 1000.0},
        }
        assert flag_regressions(current, self.BASE, tolerance=1.5) == ["a"]

    def test_zero_rate_counts_as_regression(self):
        assert flag_regressions(
            {"a": {"cycles_per_s": 0}}, self.BASE
        ) == ["a"]

    def test_unknown_cases_ignored(self):
        assert flag_regressions(
            {"new-case": {"cycles_per_s": 1.0}}, self.BASE
        ) == []


class TestCliIntegration:
    @pytest.fixture()
    def run(self, tmp_path, capsys):
        def _run(*extra):
            argv = [
                "--kernel", "event", "--repeat", "1",
                "--only", "empty-4x4",
                "--history", str(tmp_path / "hist.jsonl"),
                "--baseline", str(tmp_path / "absent.json"),
                *extra,
            ]
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out + captured.err, tmp_path / "hist.jsonl"
        return _run

    def test_appends_timestamped_entry(self, run):
        code, out, history = run("--timestamp", "2026-08-08T00:00:00Z")
        assert code == 0
        assert "appended history entry" in out
        entry = json.loads(history.read_text())
        assert entry["timestamp"] == "2026-08-08T00:00:00Z"
        assert entry["event"].keys() == {"empty-4x4"}
        assert entry["event"]["empty-4x4"] > 0

    def test_no_history_skips_the_file(self, run):
        code, out, history = run("--no-history")
        assert code == 0
        assert not history.exists()
        assert "appended history entry" not in out

    def test_regression_flags_against_baseline_and_fails(self, run, tmp_path):
        """A flagged case exits 1 (CI-visible), after the artifacts land."""
        fast = {"event": {"empty-4x4": {"cycles_per_s": 1e12}}}
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(fast))
        code, out, history = run("--baseline", str(baseline))
        assert code == 1
        assert "REGRESSION" in out and "empty-4x4" in out
        # The history entry was still appended: the regression run is
        # itself evidence, not something to discard.
        assert history.exists()
        assert "appended history entry" in out

    def test_clean_run_reports_no_regressions(self, run, tmp_path):
        slow = {"event": {"empty-4x4": {"cycles_per_s": 0.001}}}
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(slow))
        code, out, _ = run("--no-history", "--baseline", str(baseline))
        assert code == 0
        assert "no regressions" in out

    def test_unknown_only_case_exits_nonzero(self, run):
        """A typoed --only must not silently time nothing (exit 2,
        naming the unknown case)."""
        code, out, history = run("--only", "empty-16x16")
        assert code == 2
        assert "empty-16x16" in out
        assert "unknown bench case" in out
        assert not history.exists(), "a failed run must not append history"

    def test_run_suite_rejects_unknown_case(self):
        from repro.noc.bench import run_suite

        with pytest.raises(ValueError, match="no-such-case"):
            run_suite(repeat=1, only=["no-such-case"])

    @pytest.mark.skipif(
        not ckernel_available(), reason="compiled kernel unavailable"
    )
    def test_c_kernel_runs_and_reports(self, run):
        """--kernel c adds a c section to the history entry."""
        code, out, history = run(
            "--kernel", "c", "--timestamp", "2026-08-08T00:00:00Z"
        )
        assert code == 0
        assert "[c] empty-4x4" in out
        entry = json.loads(history.read_text())
        assert entry["c"]["empty-4x4"] > 0
        assert entry.keys() == {
            "timestamp", "git_sha", "repeat", "event", "groups", "c",
        }


class TestReadHistory:
    def test_round_trip(self, tmp_path):
        from repro.noc.bench import read_history

        path = tmp_path / "hist.jsonl"
        append_history(history_entry(REPORT, "t1"), path)
        append_history(history_entry(REPORT, "t2"), path)
        entries = read_history(path)
        assert [entry["timestamp"] for entry in entries] == ["t1", "t2"]

    def test_committed_history_with_soa_sections_still_reads(self):
        """The history is append-only: lines recorded while the ``soa``
        kernel existed keep their ``soa`` section and must keep parsing
        next to the entries this build writes."""
        import pathlib
        import warnings

        from repro.noc.bench import read_history

        committed = pathlib.Path(__file__).parents[1] / "BENCH_history.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = read_history(committed)
        assert len(entries) == len(committed.read_text().splitlines())
        legacy = [entry for entry in entries if "soa" in entry]
        assert legacy, "the committed soa-era lines must not be rewritten"
        for entry in legacy:
            assert entry["soa"].keys() == entry["event"].keys()
            assert "fig07_low_soa" in entry["groups"]

    def test_damaged_lines_skipped_with_warning(self, tmp_path):
        from repro.noc.bench import read_history

        path = tmp_path / "hist.jsonl"
        append_history(history_entry(REPORT, "t1"), path)
        # A torn line (crash mid-append on a pre-O_APPEND writer) and a
        # stray blank: each costs one entry, never the trajectory.
        with open(path, "a") as fh:
            fh.write('{"timestamp": "t2", "ev')
            fh.write("\n\n")
        append_history(history_entry(REPORT, "t3"), path)
        with pytest.warns(UserWarning, match="unparsable history line"):
            entries = read_history(path)
        assert [entry["timestamp"] for entry in entries] == ["t1", "t3"]

    def test_append_is_a_single_atomic_write(self, tmp_path, monkeypatch):
        import os as os_mod

        import repro.noc.bench as bench_mod

        writes = []
        real_write = os_mod.write

        def spy(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(bench_mod.os, "write", spy)
        path = tmp_path / "hist.jsonl"
        append_history(history_entry(REPORT, "t1"), path)
        assert len(writes) == 1
        assert writes[0].endswith(b"\n")
        assert json.loads(writes[0]) == history_entry(REPORT, "t1")
