"""Run provenance: sweep spans, search telemetry, and run manifests.

Three pieces, all engine-side (wall-clock) rather than kernel-side
(simulated cycles):

* :class:`SweepTelemetry` -- per-:class:`~repro.exec.point.SweepPoint`
  structured spans recorded by :func:`repro.exec.engine.run_sweep` when a
  telemetry object is passed (or configured): queue wait, simulation wall
  time, worker pid, cache hit/miss, attempt count, config digest.  Spans
  are ``type: "span"`` records: :func:`repro.obs.replay.write_events`
  writes them as JSONL, and the replay module renders them as Chrome
  ``trace_event`` complete ("X") events and summarizes them.
* :class:`SearchTrace` -- per-step / per-generation best-score telemetry
  from :mod:`repro.search.optimize`.  Purely additive: the optimizers
  never let telemetry touch their RNG, so traced and untraced runs are
  bit-identical.
* :class:`RunManifest` -- the who/what/when of a run: git sha, python and
  platform versions, config digests, point labels, span summary.

Timestamps come from ``time.perf_counter()`` -- CLOCK_MONOTONIC on Linux,
so parent-side submit times and worker-side start times are directly
comparable, which is what makes the queue-wait measurement valid across
processes on one machine.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import platform as _platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.replay import spans_to_chrome, summarize_spans, write_json

__all__ = [
    "SweepTelemetry",
    "SearchTrace",
    "RunManifest",
    "git_sha",
    "config_digest",
]


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current commit sha, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


def config_digest(config: object) -> str:
    """Stable sha256 of any JSON-serializable configuration object."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SweepTelemetry:
    """Collects one span per executed (or cache-hit) sweep point.

    Pass to :func:`repro.exec.engine.run_sweep` (``telemetry=``) or
    install process-wide with ``repro.exec.engine.configure(telemetry=t)``.
    Points run through the same code with or without telemetry; when none
    is installed the engine simply records nothing.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []

    def record_point(
        self,
        point,
        *,
        queue_wait_s: float,
        sim_s: float,
        worker: int,
        start_s: Optional[float] = None,
        cache_hit: bool = False,
        attempts: int = 1,
        error: Optional[str] = None,
    ) -> dict:
        span = {
            "type": "span",
            "kind": "sweep_point",
            "name": point.label,
            "config_digest": point.key(),
            "queue_wait_s": round(queue_wait_s, 6),
            "sim_s": round(sim_s, 6),
            "worker": worker,
            "start_s": start_s,
            "cache_hit": cache_hit,
            "attempts": attempts,
            "error": error,
        }
        self.spans.append(span)
        return span

    # -- views ----------------------------------------------------------------
    def summary(self) -> dict:
        """See :func:`repro.obs.replay.summarize_spans`."""
        return summarize_spans(self.spans)

    def chrome_trace_events(self) -> List[dict]:
        """See :func:`repro.obs.replay.spans_to_chrome`."""
        return spans_to_chrome(self.spans)


class SearchTrace:
    """Best-score telemetry from the metaheuristic searches.

    The optimizers call :meth:`sa_step` / :meth:`generation`; both are
    pure appends -- no RNG access, no effect on the search trajectory.
    """

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = every
        self.records: List[dict] = []

    def sa_step(
        self,
        chain: int,
        step: int,
        temperature: float,
        current: float,
        best: float,
    ) -> None:
        if step % self.every:
            return
        self.records.append({
            "type": "span",
            "kind": "search_step",
            "algorithm": "simulated_annealing",
            "chain": chain,
            "step": step,
            "temperature": round(temperature, 8),
            "current": current,
            "best": best,
        })

    def generation(
        self, generation: int, best: float, population_best: float
    ) -> None:
        self.records.append({
            "type": "span",
            "kind": "search_generation",
            "algorithm": "evolutionary",
            "generation": generation,
            "best": best,
            "population_best": population_best,
        })

    def best_curve(self) -> List[float]:
        """The best-so-far trajectory across all records, in order."""
        return [r["best"] for r in self.records]


@dataclass
class RunManifest:
    """Provenance record for one experiment run."""

    name: str
    created_at: str
    git_sha: Optional[str] = None
    python: str = ""
    platform: str = ""
    argv: List[str] = field(default_factory=list)
    config: Dict[str, object] = field(default_factory=dict)
    config_sha256: Optional[str] = None
    points: List[dict] = field(default_factory=list)
    sweep_summary: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        name: str,
        created_at: str,
        config: Optional[dict] = None,
        points=None,
        telemetry: Optional[SweepTelemetry] = None,
        argv: Optional[List[str]] = None,
        extra: Optional[dict] = None,
    ) -> "RunManifest":
        """Build a manifest from the ambient environment.

        ``created_at`` is injected (an ISO-8601 string from the caller)
        rather than read from the clock here, so tests and resumable
        drivers control it.
        """
        config = dict(config or {})
        manifest = cls(
            name=name,
            created_at=created_at,
            git_sha=git_sha(),
            python=sys.version.split()[0],
            platform=_platform.platform(),
            argv=list(sys.argv if argv is None else argv),
            config=config,
            config_sha256=config_digest(config) if config else None,
            extra=dict(extra or {}),
        )
        for point in points or []:
            manifest.points.append(
                {"label": point.label, "config_digest": point.key()}
            )
        if telemetry is not None:
            manifest.sweep_summary = telemetry.summary()
        return manifest

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "created_at": self.created_at,
            "git_sha": self.git_sha,
            "python": self.python,
            "platform": self.platform,
            "argv": self.argv,
            "config": self.config,
            "config_sha256": self.config_sha256,
            "points": self.points,
            "sweep_summary": self.sweep_summary,
            "extra": self.extra,
        }

    def write_json(self, path) -> pathlib.Path:
        return write_json(path, self.to_json_dict(), indent=1)

    @classmethod
    def read_json(cls, path) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(**payload)
