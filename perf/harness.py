"""What the timed run and the traced run share: a clean environment, the
round loop, the end-to-end arithmetic and the result lines."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from perf.workloads import SRC, Op

ROOT = SRC.parent
OUT = Path(__file__).resolve().parent / "out"


def load_spec() -> dict:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def prepare_environment() -> Path:
    """Scrub ambient ``REPRO_*`` settings and keep every file the run
    writes -- stores, the compiled kernel, compiler temporaries -- in a
    work directory of this process under ``perf/out``."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perf: the simulator source is missing ({SRC}/repro)")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    work = OUT / f"work-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["REPRO_CKERNEL_CACHE"] = str(work / "ckernel")
    os.environ["TMPDIR"] = str(work / "tmp")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return work


@dataclass
class Round:
    wall_s: float
    ops: List[Op]


def run_rounds(workload, seed: int, seconds: float,
               rounds: Optional[int] = None,
               first_round: int = 0) -> List[Round]:
    """Whole rounds until ``seconds`` have passed (or exactly ``rounds``),
    numbered from ``first_round``."""
    done: List[Round] = []
    deadline = perf_counter() + seconds
    while True:
        round_no = first_round + len(done)
        specs = workload.round_ops(seed, round_no)
        started = perf_counter()
        ops = workload.run_round(specs, round_no)
        done.append(Round(perf_counter() - started, ops))
        workload.clock.calibrate(ops)
        if len(done) == rounds or (rounds is None and perf_counter() >= deadline):
            return done


def digest(ops: List[Op]) -> str:
    """sha256 over the sorted simulated payloads: exact across commits."""
    lines = sorted(json.dumps(op.payload, sort_keys=True) for op in ops)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def end_to_end(rounds: List[Round], clock: str) -> Dict[str, float]:
    """Throughput and latency of the ops that passed their checks, on the
    ``calibrated_s`` clock (what the benchmark reports) or the raw
    ``latency_s`` one.  The time between ops is the harness's own."""
    good = [op for r in rounds for op in r.ops if op.error is None]
    if not good:
        raise SystemExit("perf: every op failed; nothing to time")
    latencies = [getattr(op, clock) for op in good]
    return {
        "ops_per_s": len(good) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "sim_cycles_per_s": sum(op.sim_cycles for op in good) / sum(latencies),
    }


def host_facts() -> Dict[str, object]:
    def first_line(command: List[str]) -> str:
        try:
            out = subprocess.run(
                command, capture_output=True, text=True, cwd=ROOT, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        lines = out.stdout.splitlines()
        return lines[0] if out.returncode == 0 and lines else "unknown"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cc": first_line(["cc", "--version"]),
        "git_sha": (
            first_line(["git", "rev-parse", "HEAD"])
            if (ROOT / ".git").exists() else "unknown"
        ),
    }


def describe(name: str, seed: int, trace: int, rounds: int,
             ops: List[Op]) -> dict:
    """The part of the detail document both kinds of run share."""
    failed = [op for op in ops if op.error is not None]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "rounds": rounds,
        "ops_attempted": len(ops),
        "ops_failed": len(failed),
        "first_failures": [f"{op.kind}: {op.error}" for op in failed[:5]],
        "checks_failed": [],
    }


def emit(detail: dict, values: Dict[str, float], section: str,
         out: Optional[str], per_op: Optional[list] = None) -> None:
    """Print the detail document, then the one-line result the driver
    reads: exactly the ``section`` metrics of ``BENCHMARK.json``."""
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        raise SystemExit(
            f"perf: measured names differ from BENCHMARK.json {section}: "
            f"missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
    result = {
        "correct": detail["ops_failed"] == 0 and detail["checks_failed"] == [],
        "attempted": detail["ops_attempted"],
        "failed": detail["ops_failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    detail = dict(detail, metrics=values, host=host_facts())
    print(json.dumps({"detail": detail}))
    if out:
        with open(out, "a") as handle:
            handle.write(
                json.dumps(dict(detail, **result, per_op=per_op)) + "\n"
            )
    print(json.dumps(result), flush=True)
