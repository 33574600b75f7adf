"""One command for the benchmark.

    python3 -m perf.run --workload sweep_c --seed 1            # timed run
    python3 -m perf.run --workload sweep_c --seed 1 --trace 1  # per-layer run
    python3 -m perf.run --workload all --seed 1
    python3 -m perf.run --smoke

A run is one workload in this fresh process: set up (timed as ``setup_s``),
repeat whole rounds of ops for ``--seconds``, check every output, print a
detail document and, as the last line, the result ``BENCHMARK.json``
describes.  Closed loop, one client; never more than two workers.
"""

from __future__ import annotations

from time import perf_counter

# Set-up is timed from here: before argument parsing and every import of
# the simulator.
PROCESS_START = perf_counter()

import argparse
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from perf import harness
from perf.trace import Tracer
from perf.workloads import WORKLOADS

#: fresh processes that repeat the set-up, so ``setup_s`` is a median.
SETUP_SAMPLES = 3


def set_up(name: str, toy: bool, work: Path):
    workload = WORKLOADS[name](toy, Tracer(enabled=False))
    try:
        workload.setup(work)
    except BaseException:
        workload.close()
        raise
    return workload, perf_counter() - PROCESS_START


def child(arguments: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perf.run", *arguments],
        cwd=harness.ROOT, capture_output=True, text=True,
    )


def more_setup_samples(name: str, seed: int) -> List[float]:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = child(["--workload", name, "--seed", str(seed), "--setup-only"])
        if done.returncode != 0:
            raise SystemExit(f"perf: set-up sample failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def timed_run(name: str, seed: int, seconds: float, toy: bool, work: Path,
              out: Optional[str]) -> int:
    workload, setup_s = set_up(name, toy, work)
    try:
        started = perf_counter()
        rounds = harness.run_rounds(workload, seed, 0.0,
                                    rounds=workload.rss_rounds)
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            + workload.server_peak_rss_mb()
        )
        left = seconds - (perf_counter() - started)
        if left > 0:
            rounds += harness.run_rounds(workload, seed, left,
                                         first_round=len(rounds))
        ops = [op for r in rounds for op in r.ops]
        workload.finalize(ops)
    finally:
        workload.close()
    values = harness.end_to_end(rounds, "calibrated_s")
    values["peak_rss_mb"] = peak_rss_mb
    setups = [setup_s] + ([] if toy else more_setup_samples(name, seed))
    values["setup_s"] = statistics.median(setups)
    detail = harness.describe(name, seed, 0, len(rounds), ops)
    detail.update(
        rss_rounds=workload.rss_rounds,
        latency_samples=detail["ops_attempted"] - detail["ops_failed"],
        result_digest=harness.digest(rounds[0].ops),
        digest_ops=len(rounds[0].ops),
        setup_samples_s=setups,
        uncalibrated=harness.end_to_end(rounds, "latency_s"),
        host_ref_quartiles_s=statistics.quantiles(
            [op.host_ref_s for op in ops], n=4
        ),
    )
    # Only the --out document carries every op: (wall, CPU, reference).
    per_op = [
        [(op.latency_s, op.cpu_s, op.host_ref_s) for op in r.ops]
        for r in rounds
    ]
    harness.emit(detail, values, "end_to_end", out, per_op)
    return 0


def run_all(args) -> int:
    """The four workloads in sequence, each in its own process."""
    status = 0
    for name in WORKLOADS:
        arguments = ["--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            arguments += ["--out", args.out]
        done = child(arguments + (["--toy"] if args.toy else []))
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
    return status


def smoke() -> int:
    """Every workload at toy scale; the output must carry exactly the names
    ``BENCHMARK.json`` declares.  One traced run is enough: whichever
    workload it is asked for, it runs the traced ops of all four."""
    spec = harness.load_spec()
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    sections = (("end_to_end", 16), ("per_layer", 128))
    problems = []
    if len(spec["workloads"]) > 8:
        problems.append("more than 8 workloads")
    for section, limit in sections:
        names = [m["name"] for m in spec[section]]
        if len(names) > limit:
            problems.append(f"{len(names)} {section} metrics, limit {limit}")
        problems += [f"bad name {n!r}" for n in names if not name_ok.match(n)]
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perf.workloads")
    for name, trace in [(name, 0) for name in WORKLOADS] + [("serve_mix", 1)]:
        done = child(["--workload", name, "--seed", "1", "--seconds", "0",
                      "--trace", str(trace), "--toy"])
        if done.returncode != 0:
            problems.append(f"{name} trace={trace}: {done.stderr[-400:]}")
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        declared = {m["name"] for m in spec[sections[trace][0]]}
        if set(result["metrics"]) != declared or not result["correct"]:
            problems.append(f"{name} trace={trace}: wrong names or failed ops")
        print(f"smoke {name} trace={trace}: {result['attempted']} ops, "
              f"{len(result['metrics'])} metrics")
    for problem in problems:
        print(f"smoke FAILED: {problem}", file=sys.stderr)
    print("smoke passed" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf.run",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="1: the per-layer run")
    parser.add_argument("--out", help="append the run's document to this "
                                      "JSON-lines file (for perf.compare)")
    parser.add_argument("--toy", action="store_true",
                        help="tiny ops: checks the plumbing, times nothing "
                             "worth comparing")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(harness.load_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    work = harness.prepare_environment()
    try:
        if args.setup_only:
            workload, setup_s = set_up(args.workload, args.toy, work)
            workload.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            from perf.layers import traced_run

            return traced_run(args.workload, args.seed, args.seconds,
                              args.toy, work, args.out)
        return timed_run(args.workload, args.seed, args.seconds, args.toy,
                         work, args.out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
