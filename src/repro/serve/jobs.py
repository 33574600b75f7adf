"""The persistent priority job queue (store schema v2 ``jobs`` table).

A *job* is one sweep: an ordered list of
:class:`~repro.exec.point.SweepPoint` specs plus queue metadata
(priority, tag, submitting client).  Jobs live in the same SQLite file
as the results they produce, so the queue inherits every durability
property of :class:`~repro.exec.store.ResultStore`: WAL mode, atomic
single-statement transitions, and a 30 s busy timeout that lets many
connections (server loop, worker threads, concurrent processes) share
one file.

Identity is content-addressed: the job id is
:func:`~repro.exec.store.sweep_id_for` over the points and tag, which is
also the id of the job's journal rows.  Submitting the same points twice
therefore *joins* the existing job -- queued, running or done -- instead
of creating a duplicate; only ``failed``/``cancelled`` jobs requeue.

State machine::

    submit --------------------------------------> done  (born done)
    queued --claim--> running --finish--> done | failed
      ^                  |
      |                  +--cancel (cooperative) --> cancelled
      +--requeue_running-- (crash recovery at server startup)

A job whose points the store already holds is born done: no worker
claims or replays it.

``claim`` is a single ``BEGIN IMMEDIATE`` transaction (highest priority
first, FIFO within a priority), so two workers -- even in different
processes -- can never run the same job.
"""

from __future__ import annotations

import json
import sqlite3
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exec.point import SweepPoint
from repro.exec.store import ResultStore, journal_points, sweep_id_for

#: every state a jobs-table row can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
#: states that a resubmission joins rather than requeues.
JOINABLE_STATES = ("queued", "running", "done")

_JOB_COLUMNS = (
    "job_id", "state", "priority", "tag", "client", "submitted_at",
    "started_at", "finished_at", "worker", "error",
)


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def job_id_for(points: Sequence[SweepPoint], tag: Optional[str] = None) -> str:
    """Content-addressed job identity (same digest as the sweep journal)."""
    return sweep_id_for(points, tag)


def points_from_specs(specs: Sequence[dict]) -> List[SweepPoint]:
    """Rebuild the sweep from its serialized spec dicts (validating)."""
    return [SweepPoint(**spec) for spec in specs]


class JobQueue:
    """Priority queue over the ``jobs`` table of a result store.

    Each instance owns (or wraps) one :class:`ResultStore` and therefore
    one SQLite connection; like the store itself, an instance belongs to
    the thread that uses it.
    """

    def __init__(self, store: Union[str, ResultStore]) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)

    # -- submission -----------------------------------------------------------
    def submit(
        self,
        points: Sequence[SweepPoint],
        priority: int = 0,
        tag: Optional[str] = None,
        client: Optional[str] = None,
    ) -> Tuple[str, bool]:
        """Enqueue a sweep; returns ``(job_id, deduped)``.

        ``deduped`` is true when an equivalent job already exists in a
        joinable state (queued/running/done) -- the caller simply
        observes that job instead of a new one.  A ``failed`` or
        ``cancelled`` twin is requeued in place (same id, fresh attempt).

        A job whose every point the store already holds is *born done*:
        its row is written ``done`` (with no worker) and its journal rows
        committed in the submit transaction, so no worker ever sees it
        queued.  The check stops at the first point the store lacks.
        """
        points = list(points)
        if not points:
            raise ValueError("a job needs at least one point")
        job_id = job_id_for(points, tag)
        conn = self.store.connection()
        row = conn.execute(
            "SELECT state FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        if row is not None and row[0] in JOINABLE_STATES:
            return job_id, True
        stored = all(self.store.get_json(point) is not None for point in points)
        state, now = ("done" if stored else "queued"), _now()
        finished = now if stored else None
        with conn:
            if row is not None:
                conn.execute(
                    "UPDATE jobs SET state = ?, priority = ?, client = ?, "
                    "submitted_at = ?, started_at = NULL, finished_at = ?, "
                    "worker = NULL, error = NULL WHERE job_id = ?",
                    (state, priority, client, now, finished, job_id),
                )
            else:
                conn.execute(
                    "INSERT INTO jobs (job_id, state, priority, tag, "
                    "client, points, point_keys, submitted_at, finished_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (job_id, state, priority, tag, client,
                     json.dumps([p.spec_dict() for p in points],
                                sort_keys=True),
                     json.dumps([p.key() for p in points]), now, finished),
                )
            # The job's journal, in the same transaction: progress is
            # reportable before a worker ever touches the job, and
            # committed points survive any crash.
            journal_points(conn, job_id, points, tag)
            if stored:
                conn.execute(
                    "UPDATE sweep_journal SET status = 'done', "
                    "committed_at = ? WHERE sweep_id = ? AND status != 'done'",
                    (now, job_id),
                )
        return job_id, False

    # -- worker side ----------------------------------------------------------
    def claim(self, worker: str) -> Optional[Dict[str, object]]:
        """Atomically take the best queued job (or ``None`` when idle).

        Best = highest ``priority``, then submission order.  The
        claimed row flips to ``running`` inside one immediate
        transaction, so concurrent claimers get distinct jobs.
        """
        conn = self.store.connection()
        try:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT job_id FROM jobs WHERE state = 'queued' "
                "ORDER BY priority DESC, rowid ASC LIMIT 1"
            ).fetchone()
            if row is None:
                conn.execute("ROLLBACK")
                return None
            conn.execute(
                "UPDATE jobs SET state = 'running', started_at = ?, "
                "worker = ? WHERE job_id = ?",
                (_now(), worker, row[0]),
            )
            conn.execute("COMMIT")
        except sqlite3.DatabaseError:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.DatabaseError:
                pass
            return None
        return self.get(row[0], include_points=True)

    def finish(
        self, job_id: str, state: str, error: Optional[str] = None
    ) -> None:
        """Move a running job to a terminal state."""
        if state not in ("done", "failed", "cancelled"):
            raise ValueError(f"not a terminal state: {state!r}")
        conn = self.store.connection()
        with conn:
            conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, error = ? "
                "WHERE job_id = ? AND state = 'running'",
                (state, _now(), error, job_id),
            )

    def requeue_running(self) -> int:
        """Crash recovery: put every ``running`` job back in the queue.

        Called once at server startup -- a job can only be ``running``
        then if the previous server was killed mid-sweep.  Points that
        committed before the crash replay from the store, so requeueing
        never recomputes or duplicates work.
        """
        conn = self.store.connection()
        with conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'queued', worker = NULL, "
                "started_at = NULL WHERE state = 'running'"
            )
        return cursor.rowcount

    # -- queries --------------------------------------------------------------
    def get(
        self, job_id: str, include_points: bool = False
    ) -> Optional[Dict[str, object]]:
        """One job as a dict (with journal progress), or ``None``."""
        conn = self.store.connection()
        row = conn.execute(
            "SELECT job_id, state, priority, tag, client, submitted_at, "
            "started_at, finished_at, worker, error, points, point_keys "
            "FROM jobs WHERE job_id = ?",
            (job_id,),
        ).fetchone()
        if row is None:
            return None
        job = dict(zip(_JOB_COLUMNS, row[:10]))
        keys = json.loads(row[11])
        job["num_points"] = len(keys)
        job["point_keys"] = keys
        job["progress"] = self.store.sweep_progress(job_id)
        if include_points:
            job["points"] = json.loads(row[10])
        return job

    def list_jobs(
        self, state: Optional[str] = None, limit: int = 100
    ) -> List[Dict[str, object]]:
        """Most-recent-first job summaries, optionally one state only."""
        conn = self.store.connection()
        if state is None:
            rows = conn.execute(
                "SELECT job_id, state, priority, tag, client, "
                "submitted_at, started_at, finished_at, worker, error "
                "FROM jobs ORDER BY rowid DESC LIMIT ?",
                (limit,),
            ).fetchall()
        else:
            rows = conn.execute(
                "SELECT job_id, state, priority, tag, client, "
                "submitted_at, started_at, finished_at, worker, error "
                "FROM jobs WHERE state = ? ORDER BY rowid DESC LIMIT ?",
                (state, limit),
            ).fetchall()
        return [dict(zip(_JOB_COLUMNS, row)) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Row counts per state (the queue-depth metric)."""
        return self.store.job_counts()

    # -- lifecycle ------------------------------------------------------------
    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a queued job; returns the job's (new) state.

        A ``running`` job is *not* flipped here -- the server signals its
        worker instead (cooperative cancellation between points) -- so
        the return value ``"running"`` means "asked, in progress".
        """
        conn = self.store.connection()
        with conn:
            conn.execute(
                "UPDATE jobs SET state = 'cancelled', finished_at = ? "
                "WHERE job_id = ? AND state = 'queued'",
                (_now(), job_id),
            )
            row = conn.execute(
                "SELECT state FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        return row[0] if row else None
