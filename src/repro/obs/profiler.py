"""Wall-clock profiling and progress reporting for simulation runs.

:class:`RunProfiler` answers "where does the wall-clock go?" from the
runner's side: pass one to :func:`repro.traffic.runner.run_synthetic` as
``profiler=`` (or create it via :func:`repro.obs.observe`) and the runner
records the run's wall-clock time, the simulated cycles, their rate and
the warmup / measure / drain split, on whichever kernel steps the run.
The profiler attaches nothing to the network and the runner switches its
phases where it opens and closes the measurement window, on both loops,
so a profiled ``"c"`` run keeps its spans.

:class:`Progress` is the payload handed to the ``progress`` callback of
:func:`repro.traffic.runner.run_synthetic`; :func:`make_progress_printer`
builds a ready-made callback that prints ETA lines at a bounded rate.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional


class RunProfiler:
    """Accumulates wall-clock timings for a simulation run."""

    def __init__(self) -> None:
        #: simulated cycles the runner stepped while profiling
        self.cycles = 0
        self.wall_seconds = 0.0
        self.run_phase_seconds: Dict[str, float] = {}
        self._started_at: Optional[float] = None
        self._run_phase: Optional[str] = None
        self._run_phase_started = 0.0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "RunProfiler":
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> "RunProfiler":
        if self._started_at is not None:
            self.wall_seconds += time.perf_counter() - self._started_at
            self._started_at = None
        self.enter_run_phase(None)
        return self

    def enter_run_phase(self, name: Optional[str]) -> None:
        """Close the current run-level phase (warmup/measure/drain/...) and
        open ``name`` (``None`` just closes)."""
        now = time.perf_counter()
        if self._run_phase is not None:
            self.run_phase_seconds[self._run_phase] = (
                self.run_phase_seconds.get(self._run_phase, 0.0)
                + now
                - self._run_phase_started
            )
        self._run_phase = name
        self._run_phase_started = now

    # -- reporting ----------------------------------------------------------
    def cycles_per_second(self) -> float:
        """Simulated cycles per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cycles / self.wall_seconds

    def report(self) -> Dict[str, object]:
        """Everything as a plain JSON-serializable dict."""
        return {
            "wall_seconds": self.wall_seconds,
            "cycles": self.cycles,
            "cycles_per_second": self.cycles_per_second(),
            "run_phase_seconds": dict(self.run_phase_seconds),
        }

    def format_report(self) -> str:
        """Human-readable multi-line timing summary."""
        lines = [
            f"cycles            {self.cycles}",
            f"wall clock        {self.wall_seconds:.3f} s",
            f"cycles/second     {self.cycles_per_second():.0f}",
        ]
        if self.run_phase_seconds:
            lines.append("run-phase breakdown:")
            for name, seconds in self.run_phase_seconds.items():
                lines.append(f"  {name:<10} {seconds:8.3f} s")
        return "\n".join(lines)


@dataclass
class Progress:
    """One progress heartbeat from a run driver."""

    phase: str  # "warmup" | "measure" | "drain"
    cycle: int
    done: int  # packets created (warmup/measure) or recorded (drain)
    target: int
    elapsed_s: float

    @property
    def fraction(self) -> float:
        if self.target <= 0:
            return math.nan
        return min(1.0, self.done / self.target)

    @property
    def eta_s(self) -> float:
        """Estimated seconds to completion; ``nan`` until progress exists."""
        if self.done <= 0 or self.target <= 0 or self.elapsed_s <= 0:
            return math.nan
        remaining = max(0, self.target - self.done)
        return self.elapsed_s * remaining / self.done

    def __str__(self) -> str:
        eta = self.eta_s
        eta_text = f"{eta:.1f}s" if not math.isnan(eta) else "?"
        return (
            f"[{self.phase}] cycle {self.cycle}: {self.done}/{self.target} "
            f"({100 * self.fraction:.0f}%), elapsed {self.elapsed_s:.1f}s, "
            f"ETA {eta_text}"
        )


def make_progress_printer(
    stream=None, min_interval_s: float = 1.0
) -> Callable[[Progress], None]:
    """A ``progress`` callback printing at most one line per interval.

    With ``stream=None`` the *current* ``sys.stderr`` is resolved at
    every print: these printers get installed as long-lived engine
    defaults (``repro.exec.configure``), and a stream captured at
    construction time can be redirected or closed long before the next
    sweep runs.  A closed stream never kills the sweep it narrates --
    the heartbeat is dropped instead.
    """
    last = [0.0]

    def _print(progress: Progress) -> None:
        now = time.perf_counter()
        if now - last[0] < min_interval_s:
            return
        last[0] = now
        out = stream if stream is not None else sys.stderr
        try:
            print(progress, file=out)
        except ValueError:
            pass  # stream closed between sweeps; progress is best-effort

    return _print
