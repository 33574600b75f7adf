"""Durable SQLite result store: the sweep engine's one result backend.

Completed :class:`~repro.exec.point.PointResult` payloads live in a
single SQLite database, content-addressed by the point's spec hash, with
the durability features a long-running sweep needs:

* **WAL mode, single-writer transactions** -- every ``put`` is one
  atomic transaction, so a SIGKILL at any instant leaves either the old
  row or the complete new one.  Readers (``get``) never block the
  writer and vice versa.
* **A sweep journal** -- :meth:`begin_sweep` records every point of a
  sweep as ``pending`` and :meth:`mark_committed` flips them to ``done``
  as results land, so an interrupted ``run_all --full`` can *report*
  exactly which points survive (``run_all --resume``) and resumes with
  zero recomputation of committed points.
* **Corrupt-row quarantine** -- a row that fails its sha256 checksum,
  schema version or spec match is moved to the ``quarantine`` table
  inside one transaction and the point recomputes; corruption is never
  an exception and never silently served.  Whole-file corruption (the
  database itself no longer parses) moves the file aside to
  ``<path>.corrupt`` and starts fresh.
* **Schema versioning** -- ``meta.schema_version`` is checked on every
  open; an unknown (newer) schema refuses loudly instead of guessing.

Wherever a store path is accepted (``cache=`` in
:func:`repro.exec.engine.run_sweep`, ``REPRO_SWEEP_CACHE``, this
module's CLI) one rule applies, in :class:`ResultStore`'s constructor: an
existing directory means ``<dir>/sweeps.sqlite``, anything else is the
database file itself.  ``run_all`` defaults to
:func:`default_store_path`.

Inspect a store with::

    python -m repro.exec sweeps.sqlite info        # rows, journal, jobs
    python -m repro.exec sweeps.sqlite quarantine  # quarantined rows
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sqlite3
import time
import warnings
from typing import Dict, List, Optional, Sequence, Union

from repro.exec.point import SPEC_VERSION, PointResult, SweepPoint

#: bump when the table layout changes; opening a database with a newer
#: schema than this build understands raises rather than corrupting it.
#: v1 -> v2 added the ``jobs`` table (the :mod:`repro.serve` priority
#: queue); the change is purely additive, so v1 files migrate in place.
STORE_SCHEMA_VERSION = 2

#: schema versions this build can upgrade in place on open.
_MIGRATABLE_VERSIONS = (1,)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    version INTEGER NOT NULL,
    spec TEXT NOT NULL,
    result TEXT NOT NULL,
    checksum TEXT NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    key TEXT,
    payload TEXT,
    reason TEXT NOT NULL,
    quarantined_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweep_journal (
    sweep_id TEXT NOT NULL,
    point_key TEXT NOT NULL,
    seq INTEGER NOT NULL,
    label TEXT NOT NULL,
    tag TEXT,
    status TEXT NOT NULL DEFAULT 'pending',
    committed_at TEXT,
    PRIMARY KEY (sweep_id, point_key)
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    state TEXT NOT NULL DEFAULT 'queued',
    priority INTEGER NOT NULL DEFAULT 0,
    tag TEXT,
    client TEXT,
    points TEXT NOT NULL,
    point_keys TEXT NOT NULL,
    submitted_at TEXT NOT NULL,
    started_at TEXT,
    finished_at TEXT,
    worker TEXT,
    error TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, priority DESC);
"""


class StoreSchemaError(RuntimeError):
    """The database carries a schema this build does not understand."""


def default_store_path() -> pathlib.Path:
    """Where ``run_all`` keeps results unless ``REPRO_SWEEP_CACHE`` says
    otherwise: ``sweeps/sweeps.sqlite`` under the XDG cache directory."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join("~", ".cache")
    return (
        pathlib.Path(base).expanduser()
        / "repro-heteronoc" / "sweeps" / "sweeps.sqlite"
    )


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _checksum(version: int, spec_json: str, result_json: str) -> str:
    digest = hashlib.sha256()
    digest.update(str(version).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(spec_json.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(result_json.encode("utf-8"))
    return digest.hexdigest()


def sweep_id_for(
    points: Sequence[SweepPoint], tag: Optional[str] = None
) -> str:
    """Deterministic identity of a sweep: its tag plus its point keys in
    order.  A crashed sweep relaunched with the same points re-derives
    the same id and therefore the same journal rows."""
    digest = hashlib.sha256()
    digest.update((tag or "").encode("utf-8"))
    for point in points:
        digest.update(b"\x00")
        digest.update(point.key().encode("ascii"))
    return digest.hexdigest()


class ResultStore:
    """Content-addressed, crash-safe store of :class:`PointResult` rows.

    The cache contract (``get`` / ``put`` / ``__len__``) plus the
    journal and quarantine API.  Every method is defensive:
    database-level corruption recovers by moving the file aside,
    row-level corruption quarantines the row -- neither ever raises out
    of ``get``/``put``.

    ``path`` is the database file, or an existing directory holding it
    as ``sweeps.sqlite``.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path).expanduser()
        if self.path.is_dir():
            self.path = self.path / "sweeps.sqlite"
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection management ------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        if self._conn is not None:
            return self._conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = self._open()
        except sqlite3.DatabaseError:
            # The file exists but is not (or no longer) a SQLite
            # database: move it aside and start a fresh one.
            self._quarantine_database("database file does not parse")
            self._conn = self._open()
        return self._conn

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        stored_version = None
        with conn:
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES "
                    "('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
            else:
                stored_version = row[0]
            if (
                stored_version is not None
                and int(stored_version) in _MIGRATABLE_VERSIONS
            ):
                # Additive migration: executescript above already created
                # any table the old schema lacked, so upgrading is just
                # recording the new version (same transaction).
                conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                    (str(STORE_SCHEMA_VERSION),),
                )
                stored_version = STORE_SCHEMA_VERSION
        if (
            stored_version is not None
            and int(stored_version) != STORE_SCHEMA_VERSION
        ):
            conn.close()
            raise StoreSchemaError(
                f"{self.path} has store schema v{stored_version}, this "
                f"build understands v{STORE_SCHEMA_VERSION}"
            )
        return conn

    def _quarantine_database(self, reason: str) -> None:
        """Move a hopelessly corrupt database file aside and warn.

        Only ever a regular file: when the path is anything else (a
        directory, a missing or unreadable location) the database error
        being handled is not corruption and propagates instead.
        """
        if not self.path.is_file():
            raise
        self.close()
        target = self.path.with_name(self.path.name + ".corrupt")
        try:
            os.replace(self.path, target)
        except OSError:
            try:
                self.path.unlink()
            except OSError:
                pass
        # WAL sidecar files belong to the dead database.
        for suffix in ("-wal", "-shm"):
            try:
                pathlib.Path(f"{self.path}{suffix}").unlink()
            except OSError:
                pass
        warnings.warn(
            f"result store {self.path} is corrupt ({reason}); moved aside "
            f"to {target.name} and starting fresh",
            stacklevel=3,
        )

    def _recover(self, reason: str) -> None:
        self._quarantine_database(reason)
        try:
            self._conn = self._open()
        except sqlite3.DatabaseError:
            self._conn = None

    def connection(self) -> sqlite3.Connection:
        """The live SQLite connection (opening/recovering as needed).

        For layers that extend the store's schema with their own queries
        -- :class:`repro.serve.jobs.JobQueue` runs its claim/finish
        transactions through this.  The connection is bound to the thread
        that first uses this store instance; give each thread its own
        :class:`ResultStore` instead of sharing one.
        """
        return self._connect()

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the cache contract ---------------------------------------------------
    def get(self, point: SweepPoint) -> Optional[PointResult]:
        """The stored result for ``point``, or ``None`` on any miss.

        A row that fails validation -- checksum, schema version, spec
        match, JSON shape -- is moved to the quarantine table (one
        transaction) and reported as a miss, so the engine recomputes it.
        """
        if os.environ.get("REPRO_CHAOS_PLAN"):
            from repro.chaos.sites import chaos_site

            try:
                chaos_site("store.get")
            except (OSError, MemoryError) as exc:
                warnings.warn(f"result store read failed: {exc}")
                return None
        key = point.key()
        try:
            conn = self._connect()
            row = conn.execute(
                "SELECT version, spec, result, checksum FROM results "
                "WHERE key = ?",
                (key,),
            ).fetchone()
        except StoreSchemaError:
            raise
        except sqlite3.DatabaseError as exc:
            self._recover(f"read failed: {exc}")
            return None
        if row is None:
            return None
        version, spec_json, result_json, checksum = row
        try:
            if _checksum(version, spec_json, result_json) != checksum:
                raise ValueError("row checksum mismatch")
            if version != SPEC_VERSION:
                raise ValueError(f"spec version {version} != {SPEC_VERSION}")
            if json.loads(spec_json) != point.spec_dict():
                raise ValueError("stored spec does not match the point")
            return PointResult.from_dict(json.loads(result_json))
        except (ValueError, KeyError, TypeError) as exc:
            self.quarantine_row(key, str(exc))
            return None

    def put(self, point: SweepPoint, result: PointResult) -> None:
        """Commit ``result`` in one atomic transaction.

        Never raises: a failed write (disk full, injected chaos fault,
        concurrent corruption) is reported as a warning and the result
        simply stays uncached -- losing a cache write must never lose a
        computed result.
        """
        key = point.key()
        spec_json = json.dumps(point.spec_dict(), sort_keys=True)
        result_json = json.dumps(result.to_dict(), sort_keys=True)
        try:
            if os.environ.get("REPRO_CHAOS_PLAN"):
                from repro.chaos.sites import chaos_site

                chaos_site("store.put")
            conn = self._connect()
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(key, version, spec, result, checksum, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        key,
                        SPEC_VERSION,
                        spec_json,
                        result_json,
                        _checksum(SPEC_VERSION, spec_json, result_json),
                        _now(),
                    ),
                )
        except StoreSchemaError:
            raise
        except (sqlite3.Error, OSError, MemoryError) as exc:
            warnings.warn(
                f"result store write failed for {point.label}: "
                f"{type(exc).__name__}: {exc}; result stays uncached"
            )

    def __len__(self) -> int:
        try:
            conn = self._connect()
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        except sqlite3.DatabaseError:
            return 0

    # -- quarantine -----------------------------------------------------------
    def quarantine_row(self, key: str, reason: str) -> None:
        """Move one results row into the quarantine table (atomic)."""
        try:
            conn = self._connect()
            with conn:
                row = conn.execute(
                    "SELECT version, spec, result, checksum FROM results "
                    "WHERE key = ?",
                    (key,),
                ).fetchone()
                if row is not None:
                    conn.execute(
                        "INSERT INTO quarantine "
                        "(key, payload, reason, quarantined_at) "
                        "VALUES (?, ?, ?, ?)",
                        (key, json.dumps(list(row)), reason, _now()),
                    )
                    conn.execute(
                        "DELETE FROM results WHERE key = ?", (key,)
                    )
        except sqlite3.DatabaseError as exc:
            self._recover(f"quarantine failed: {exc}")
        warnings.warn(
            f"result store row {key[:12]}... quarantined: {reason}; "
            "the point will recompute"
        )

    def quarantined(self) -> List[Dict[str, str]]:
        """The quarantine table: key, reason and timestamp per row."""
        try:
            conn = self._connect()
            rows = conn.execute(
                "SELECT key, reason, quarantined_at FROM quarantine "
                "ORDER BY quarantined_at, key"
            ).fetchall()
        except sqlite3.DatabaseError:
            return []
        return [
            {"key": key, "reason": reason, "quarantined_at": at}
            for key, reason, at in rows
        ]

    # -- sweep journal --------------------------------------------------------
    def begin_sweep(
        self, points: Sequence[SweepPoint], tag: Optional[str] = None
    ) -> Optional[str]:
        """Register a sweep's points as journal rows; returns the sweep id.

        Idempotent: rows already present (a resumed sweep) keep their
        status, so committed points stay committed across a crash.
        Journal failures degrade to ``None`` (no journal) rather than
        blocking the sweep -- the journal is bookkeeping, not the data.
        """
        sweep_id = sweep_id_for(points, tag)
        try:
            conn = self._connect()
            with conn:
                conn.executemany(
                    "INSERT OR IGNORE INTO sweep_journal "
                    "(sweep_id, point_key, seq, label, tag, status) "
                    "VALUES (?, ?, ?, ?, ?, 'pending')",
                    [
                        (sweep_id, point.key(), seq, point.label, tag)
                        for seq, point in enumerate(points)
                    ],
                )
        except sqlite3.DatabaseError as exc:
            self._recover(f"journal write failed: {exc}")
            return None
        return sweep_id

    def mark_committed(self, sweep_id: str, point: SweepPoint) -> None:
        """Flip one journal row to ``done`` (atomic with its own commit;
        the result row itself was committed by :meth:`put` just before)."""
        try:
            conn = self._connect()
            with conn:
                conn.execute(
                    "UPDATE sweep_journal SET status = 'done', "
                    "committed_at = ? "
                    "WHERE sweep_id = ? AND point_key = ? "
                    "AND status != 'done'",
                    (_now(), sweep_id, point.key()),
                )
        except sqlite3.DatabaseError as exc:
            self._recover(f"journal update failed: {exc}")

    def sweep_progress(self, sweep_id: str) -> Dict[str, int]:
        """Committed/pending counts for one sweep."""
        try:
            conn = self._connect()
            rows = conn.execute(
                "SELECT status, COUNT(*) FROM sweep_journal "
                "WHERE sweep_id = ? GROUP BY status",
                (sweep_id,),
            ).fetchall()
        except sqlite3.DatabaseError:
            rows = []
        counts = dict(rows)
        done = counts.get("done", 0)
        total = sum(counts.values())
        return {"total": total, "committed": done, "pending": total - done}

    def journal_summary(self) -> List[Dict[str, object]]:
        """Per-sweep progress for every journalled sweep, grouped by tag.

        This is what ``run_all --resume`` prints before continuing: one
        row per (tag, sweep id) with total/committed/pending counts and
        the latest commit timestamp.
        """
        try:
            conn = self._connect()
            rows = conn.execute(
                "SELECT tag, sweep_id, COUNT(*), "
                "SUM(CASE WHEN status = 'done' THEN 1 ELSE 0 END), "
                "MAX(committed_at) "
                "FROM sweep_journal GROUP BY tag, sweep_id "
                "ORDER BY tag, sweep_id"
            ).fetchall()
        except sqlite3.DatabaseError:
            return []
        return [
            {
                "tag": tag,
                "sweep_id": sweep_id,
                "total": total,
                "committed": committed or 0,
                "pending": total - (committed or 0),
                "last_commit": last,
            }
            for tag, sweep_id, total, committed, last in rows
        ]

    def tag_progress(self) -> List[Dict[str, object]]:
        """Journal progress aggregated per sweep tag.

        One row per tag (``run_all`` tags sweeps with the harness name),
        summing committed/total across every journalled sweep carrying
        that tag -- the ``info`` CLI's per-figure progress report.
        """
        try:
            conn = self._connect()
            rows = conn.execute(
                "SELECT tag, COUNT(*), "
                "SUM(CASE WHEN status = 'done' THEN 1 ELSE 0 END) "
                "FROM sweep_journal GROUP BY tag ORDER BY tag"
            ).fetchall()
        except sqlite3.DatabaseError:
            return []
        return [
            {
                "tag": tag,
                "total": total,
                "committed": committed or 0,
                "pending": total - (committed or 0),
            }
            for tag, total, committed in rows
        ]

    def job_counts(self) -> Dict[str, int]:
        """Jobs-table row counts per state (empty when no jobs exist)."""
        try:
            conn = self._connect()
            rows = conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        except sqlite3.DatabaseError:
            return {}
        return dict(rows)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.exec`` -- inspect a store."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="Inspect a sweep result store.",
    )
    parser.add_argument("store", help="path to the SQLite store (created "
                        "when missing), or a directory holding it as "
                        "sweeps.sqlite")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="row counts and journal progress")
    sub.add_parser("quarantine", help="list quarantined rows")
    args = parser.parse_args(argv)

    store = ResultStore(args.store)
    if args.command == "quarantine":
        rows = store.quarantined()
        if not rows:
            print("quarantine is empty")
        for row in rows:
            print(
                f"{row['key']}  {row['quarantined_at']}  {row['reason']}"
            )
        return 0
    # info
    print(f"store: {store.path}")
    print(f"schema: v{STORE_SCHEMA_VERSION}")
    print(f"results: {len(store)}")
    print(f"quarantined: {len(store.quarantined())}")
    by_tag = store.tag_progress()
    if by_tag:
        print("progress by tag:")
        for row in by_tag:
            print(
                f"  {row['tag'] or '(untagged)'}  "
                f"{row['committed']}/{row['total']} committed, "
                f"{row['pending']} pending"
            )
    summary = store.journal_summary()
    if summary:
        print("sweeps:")
        for row in summary:
            print(
                f"  {row['tag'] or '(untagged)'}  "
                f"{row['sweep_id'][:12]}...  "
                f"{row['committed']}/{row['total']} committed, "
                f"{row['pending']} pending"
            )
    else:
        print("sweeps: none journalled")
    jobs = store.job_counts()
    if jobs:
        states = ", ".join(
            f"{count} {state}" for state, count in sorted(jobs.items())
        )
        print(f"jobs: {states}")
    return 0

