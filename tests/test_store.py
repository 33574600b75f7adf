"""The durable SQLite result store: parity, atomicity, quarantine, journal.

What must hold:

* caching changes nothing -- computed, stored and replayed results are
  the same bit for bit; one path rule (an existing directory means
  ``<dir>/sweeps.sqlite``, anything else is the database file);
* corrupt rows are quarantined and recomputed, never served and never a
  crash; a corrupt *file* is moved aside and the store starts fresh;
* the sweep journal tracks committed/pending points across interrupted
  sweeps, keyed deterministically so a relaunch re-attaches;
* the ``python -m repro.exec`` CLI reports rows, journal and quarantine.
"""

import sqlite3
import warnings

import pytest

from repro.exec.engine import configure, run_sweep, sweep_points
from repro.exec.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    StoreSchemaError,
    sweep_id_for,
)


def _points(n=2):
    rates = [0.04 + 0.02 * i for i in range(n)]
    return sweep_points(
        ["baseline"],
        "uniform_random",
        rates,
        seed=7,
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
    import repro.exec.engine as engine_mod

    saved = engine_mod._defaults
    engine_mod._defaults = engine_mod.ExecDefaults()
    yield
    engine_mod._defaults = saved


class TestStorePath:
    def test_path_is_the_database_file(self, tmp_path):
        # No suffix table: whatever the name, a non-directory path is
        # the database itself.
        points = _points(1)
        run_sweep(points, cache=str(tmp_path / "s.results"))
        assert (tmp_path / "s.results").is_file()
        assert len(ResultStore(tmp_path / "s.results")) == 1

    def test_directory_means_sweeps_sqlite_inside_it(self, tmp_path):
        # A directory of legacy loose-file entries stays the cache
        # location: the store opens inside it and touches nothing else.
        loose = tmp_path / "loose"
        loose.mkdir()
        (loose / "abc.json").write_text("{}")
        points = _points(1)
        [result] = run_sweep(points, cache=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = ResultStore(loose)
            assert len(store) == 0
            store.put(points[0], result)
        assert store.path == loose / "sweeps.sqlite"
        assert (loose / "abc.json").read_text() == "{}"
        assert not (tmp_path / "loose.corrupt").exists()
        assert len(ResultStore(loose / "sweeps.sqlite")) == 1

    def test_only_a_regular_file_is_ever_moved_aside(self, tmp_path):
        # The path turns into a directory after the store was built (so
        # the directory rule did not apply): opening fails, and the
        # failure must not be "recovered" by renaming the directory.
        store = ResultStore(tmp_path / "late")
        (tmp_path / "late").mkdir()
        (tmp_path / "late" / "abc.json").write_text("{}")
        points = _points(1)
        with pytest.raises(sqlite3.OperationalError):
            store.get(points[0])
        assert (tmp_path / "late" / "abc.json").exists()
        assert not (tmp_path / "late.corrupt").exists()


class TestParityWithCache:
    def test_store_and_cache_results_identical(self, tmp_path):
        points = _points(2)
        expected = _comparable(run_sweep(points, cache=None))
        via_store = _comparable(
            run_sweep(points, cache=str(tmp_path / "s.sqlite"))
        )
        assert via_store == expected

    def test_hits_are_bit_identical_and_flagged(self, tmp_path):
        points = _points(2)
        first = run_sweep(points, cache=str(tmp_path / "s.sqlite"))
        second = run_sweep(points, cache=str(tmp_path / "s.sqlite"))
        assert all(r.from_cache for r in second)
        assert not any(r.from_cache for r in first)
        assert _comparable(first) == _comparable(second)

    def test_get_put_round_trip(self, tmp_path):
        points = _points(1)
        [result] = run_sweep(points, cache=None)
        store = ResultStore(tmp_path / "s.sqlite")
        assert store.get(points[0]) is None
        store.put(points[0], result)
        assert len(store) == 1
        assert store.get(points[0]).to_dict() == result.to_dict()


class TestCorruption:
    def _seeded_store(self, tmp_path):
        points = _points(2)
        run_sweep(points, cache=str(tmp_path / "s.sqlite"))
        return points, tmp_path / "s.sqlite"

    def test_checksum_mismatch_quarantines_and_recomputes(self, tmp_path):
        points, path = self._seeded_store(tmp_path)
        expected = _comparable(run_sweep(points, cache=None))
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE results SET result = '{\"torn\":' WHERE key = ?",
                (points[0].key(),),
            )
        conn.close()
        with pytest.warns(UserWarning, match="quarantined"):
            recomputed = run_sweep(points, cache=str(path))
        assert _comparable(recomputed) == expected
        quarantined = ResultStore(path).quarantined()
        assert [row["key"] for row in quarantined] == [points[0].key()]
        # The quarantined row was removed from results and recomputed.
        assert len(ResultStore(path)) == 2

    def test_spec_version_skew_quarantines(self, tmp_path):
        points, path = self._seeded_store(tmp_path)
        store = ResultStore(path)
        conn = store._connect()
        row = conn.execute(
            "SELECT spec, result FROM results WHERE key = ?",
            (points[0].key(),),
        ).fetchone()
        from repro.exec.store import _checksum

        with conn:
            conn.execute(
                "UPDATE results SET version = 999, checksum = ? "
                "WHERE key = ?",
                (_checksum(999, row[0], row[1]), points[0].key()),
            )
        with pytest.warns(UserWarning, match="spec version"):
            assert store.get(points[0]) is None

    def test_wal_survives_main_file_damage(self, tmp_path):
        # Damage only the main database file while the WAL sidecar (all
        # recent commits) is intact: SQLite serves every row from the
        # WAL.  This is the crash window the store's WAL mode exists
        # for, so pin it.
        points, path = self._seeded_store(tmp_path)
        assert path.with_name(path.name + "-wal").exists()
        path.write_bytes(b"this is not a sqlite database, sorry")
        store = ResultStore(path)
        assert store.get(points[0]) is not None

    def test_corrupt_database_file_moved_aside(self, tmp_path):
        points, path = self._seeded_store(tmp_path)
        path.write_bytes(b"this is not a sqlite database, sorry")
        # Kill the WAL sidecars too: nothing left to recover from.
        for suffix in ("-wal", "-shm"):
            sidecar = path.with_name(path.name + suffix)
            if sidecar.exists():
                sidecar.unlink()
        with pytest.warns(UserWarning, match="moved aside"):
            store = ResultStore(path)
            assert store.get(points[0]) is None
        assert path.with_name(path.name + ".corrupt").exists()
        # And the fresh store works.
        expected = _comparable(run_sweep(points, cache=None))
        assert _comparable(run_sweep(points, cache=str(path))) == expected

    def test_newer_schema_refused(self, tmp_path):
        _, path = self._seeded_store(tmp_path)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION + 1),),
            )
        conn.close()
        with pytest.raises(StoreSchemaError):
            len(ResultStore(path))


class TestJournal:
    def test_sweep_id_deterministic_and_tag_sensitive(self):
        points = _points(2)
        assert sweep_id_for(points) == sweep_id_for(list(points))
        assert sweep_id_for(points) != sweep_id_for(points[::-1])
        assert sweep_id_for(points, tag="fig07") != sweep_id_for(points)

    def test_run_sweep_journals_progress(self, tmp_path):
        points = _points(2)
        path = tmp_path / "s.sqlite"
        run_sweep(points, cache=str(path))
        store = ResultStore(path)
        progress = store.sweep_progress(sweep_id_for(points))
        assert progress == {"total": 2, "committed": 2, "pending": 0}

    def test_interrupted_sweep_reports_pending(self, tmp_path):
        points = _points(3)
        path = tmp_path / "s.sqlite"
        store = ResultStore(path)
        sweep_id = store.begin_sweep(points, tag="fig07")
        # Simulate a crash after one commit.
        [result] = run_sweep(points[:1], cache=None)
        store.put(points[0], result)
        store.mark_committed(sweep_id, points[0])
        progress = store.sweep_progress(sweep_id)
        assert progress == {"total": 3, "committed": 1, "pending": 2}
        [summary] = store.journal_summary()
        assert summary["tag"] == "fig07"
        assert summary["pending"] == 2
        # The relaunched sweep re-derives the same id and completes the
        # journal; the committed point replays from the store.
        configure(sweep_tag="fig07")
        try:
            results = run_sweep(points, cache=str(path))
        finally:
            configure(sweep_tag=None)
        assert results[0].from_cache
        assert not results[1].from_cache and not results[2].from_cache
        assert store.sweep_progress(sweep_id)["pending"] == 0

    def test_cache_hits_mark_committed(self, tmp_path):
        points = _points(2)
        path = tmp_path / "s.sqlite"
        run_sweep(points, cache=str(path))
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE sweep_journal SET status = 'pending'")
        conn.close()
        results = run_sweep(points, cache=str(path))
        assert all(r.from_cache for r in results)
        store = ResultStore(path)
        assert store.sweep_progress(sweep_id_for(points))["pending"] == 0


class TestMigration:
    def test_cli_info_and_import(self, tmp_path, capsys):
        """``info`` and ``quarantine`` are the whole CLI: the loose-file
        ``import`` is gone, so pre-store results cannot be replayed as
        current ones."""
        from repro.exec.store import main

        store_path = tmp_path / "s.sqlite"
        run_sweep(_points(1), cache=str(store_path))
        with pytest.raises(SystemExit):
            main([str(store_path), "import", str(tmp_path)])
        assert "invalid choice: 'import'" in capsys.readouterr().err
        # A directory argument names the store inside it.
        loose = tmp_path / "loose"
        loose.mkdir()
        assert main([str(loose), "info"]) == 0
        assert f"store: {loose / 'sweeps.sqlite'}" in capsys.readouterr().out
        assert main([str(store_path), "info"]) == 0
        out = capsys.readouterr().out
        assert "results: 1" in out
        assert main([str(store_path), "quarantine"]) == 0
        assert "quarantine is empty" in capsys.readouterr().out


class TestSchemaV2:
    def test_v1_store_migrates_in_place(self, tmp_path):
        points = _points(2)
        path = tmp_path / "s.sqlite"
        run_sweep(points, cache=str(path))
        # Rewind the file to schema v1: no jobs table, version stamp 1.
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("DROP TABLE jobs")
            conn.execute(
                "UPDATE meta SET value = '1' WHERE key = 'schema_version'"
            )
        conn.close()
        store = ResultStore(path)
        # The migration is additive: results survive, the jobs table is
        # back, and the version stamp is current.
        assert store.get(points[0]) is not None
        assert store.job_counts() == {}
        stamped = store._connect().execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()[0]
        assert stamped == str(STORE_SCHEMA_VERSION)

    def test_migrated_store_serves_the_job_queue(self, tmp_path):
        from repro.serve import JobQueue

        points = _points(1)
        path = tmp_path / "s.sqlite"
        run_sweep(points, cache=str(path))
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("DROP TABLE jobs")
            conn.execute(
                "UPDATE meta SET value = '1' WHERE key = 'schema_version'"
            )
        conn.close()
        queue = JobQueue(path)
        job_id, deduped = queue.submit(points, tag="fig07")
        assert not deduped
        assert queue.store.job_counts() == {"queued": 1}
        # The point is already in the store (the pre-migration sweep),
        # but the job's own journal starts pending: a worker commits it
        # by replaying the row, never by recomputing.
        assert queue.get(job_id)["progress"] == {
            "total": 1, "committed": 0, "pending": 1,
        }

    def test_tag_progress_aggregates_across_sweeps(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        first, second, third = _points(3)
        # Two sweeps under one tag, one untagged sweep.
        sweep_a = store.begin_sweep([first, second], tag="fig07")
        store.begin_sweep([third], tag="fig07")
        store.begin_sweep([first])
        [result] = run_sweep([first], cache=None)
        store.put(first, result)
        store.mark_committed(sweep_a, first)
        rows = {row["tag"]: row for row in store.tag_progress()}
        assert rows["fig07"] == {
            "tag": "fig07", "total": 3, "committed": 1, "pending": 2,
        }
        assert rows[None]["total"] == 1 and rows[None]["committed"] == 0

    def test_info_cli_reports_tags_and_jobs(self, tmp_path, capsys):
        from repro.exec.store import main
        from repro.serve import JobQueue

        points = _points(2)
        path = tmp_path / "s.sqlite"
        configure(sweep_tag="fig07")
        try:
            run_sweep(points, cache=str(path))
        finally:
            configure(sweep_tag=None)
        queue = JobQueue(path)
        queue.submit(points, tag="fig07")
        done_id, _ = queue.submit(_points(1), tag="other")
        queue.claim("w")
        assert main([str(path), "info"]) == 0
        out = capsys.readouterr().out
        assert "progress by tag:" in out
        assert "fig07  2/2 committed, 0 pending" in out
        assert "jobs: 1 queued, 1 running" in out


def _stress_writer(store_path, rates):
    """Child-process body for the concurrent-writer stress test."""
    points = sweep_points(
        ["baseline"],
        "uniform_random",
        rates,
        seed=7,
        warmup_packets=10,
        measure_packets=30,
        mesh_size=4,
    )
    run_sweep(points, cache=store_path)


class TestConcurrentWriters:
    def test_two_processes_share_one_store(self, tmp_path):
        """Two writer processes, one store file, overlapping points.

        WAL mode plus the 30 s busy timeout must serialize the commits:
        no corruption, no quarantined rows, every stored result
        bit-identical to a serial recompute, both journals complete --
        and the shared point (rate 0.06) lands exactly once.
        """
        import multiprocessing

        path = tmp_path / "s.sqlite"
        rates_a = [0.04, 0.05, 0.06]
        rates_b = [0.06, 0.07, 0.08]  # overlaps rates_a at 0.06
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_stress_writer, args=(str(path), rates))
            for rates in (rates_a, rates_b)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        all_points = sweep_points(
            ["baseline"],
            "uniform_random",
            [0.04, 0.05, 0.06, 0.07, 0.08],
            seed=7,
            warmup_packets=10,
            measure_packets=30,
            mesh_size=4,
        )
        store = ResultStore(path)
        assert len(store) == len(all_points)
        assert store.quarantined() == []
        expected = _comparable(run_sweep(all_points, cache=None))
        stored = _comparable(
            [store.get(point) for point in all_points]
        )
        assert stored == expected
        for row in store.journal_summary():
            assert row["pending"] == 0


class TestDurability:
    def test_put_never_raises(self, tmp_path, monkeypatch):
        points = _points(1)
        [result] = run_sweep(points, cache=None)
        store = ResultStore(tmp_path / "s.sqlite")

        def boom(*args, **kwargs):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(store, "_connect", boom)
        with pytest.warns(UserWarning, match="write failed"):
            store.put(points[0], result)

    def test_wal_mode_active(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        mode = store._connect().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
