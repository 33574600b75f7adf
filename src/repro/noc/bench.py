"""Wall-clock benchmark CLI for the cycle kernels.

Runs a fixed matrix of simulator workloads -- empty meshes, uniform-random
sweeps at low/mid/saturation rates on 4x4 and 8x8, the fig07 operating
points for both the baseline and the HeteroNoC diagonal layout, and one
faulty point -- and reports cycles-per-second for the event-driven
kernel and the compiled C kernel (``repro.noc.ckernel``; timed only when
a C compiler is available).  Each case gets one untimed warmup run
before the timed best-of-N repetitions, so one-time costs (route-table
build, kernel pack, shared-object load, allocator warmup) never pollute
the recorded figures.

Usage::

    PYTHONPATH=src python -m repro.noc.bench --out BENCH_kernel.json
    PYTHONPATH=src python -m repro.noc.bench --kernel event --repeat 1
    PYTHONPATH=src python -m repro.noc.bench --check BENCH_kernel.json
    PYTHONPATH=src python -m repro.noc.bench --kernel c --only empty-4x4

``--check`` is the CI perf-smoke mode: it times a small subset of the
matrix and fails (exit 1) if any point runs more than ``--tolerance``
times slower than the committed baseline's figure for the same kernel
(``--kernel event`` by default; the ckernel-smoke job passes
``--kernel c``).  On a host with no C compiler, ``--kernel c`` prints
a clear skip message and exits 0 instead of timing a silently degraded
kernel.

``--only`` with a name not in the frozen matrix is an error (exit 2,
naming the unknown case): a typo must not silently time nothing.

Every full (non ``--check``) run also *appends* a timestamped entry to
``BENCH_history.jsonl`` (``--history`` to relocate, ``--no-history`` to
skip, ``--timestamp`` to inject a reproducible stamp), so the perf
trajectory accumulates across commits instead of each run overwriting
the last; and when the ``--baseline`` report (default
``BENCH_kernel.json``) exists, cases that regressed past ``--tolerance``
are flagged on stdout and the run exits 1 (history and ``--out``
artifacts are still written first, so the regression evidence lands).

The committed ``BENCH_kernel.json`` additionally embeds a
``seed_baseline`` section: the same matrix measured at the commit *before*
the event-driven kernel landed, recorded on the same machine.  Speedup
figures quoted in the README are current-event vs. that seed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from typing import Dict, List, Optional, Tuple

# Per-case FAST scale: enough traffic for a stable timing signal while the
# full matrix stays under a couple of minutes.
FAST = {"warmup_packets": 100, "measure_packets": 600}

#: (name, kind, params) -- the benchmark matrix.  Names, parameters and
#: seeds are frozen: the recorded seed baseline was measured with exactly
#: these cases, so editing one breaks comparability of the committed
#: numbers.
CASES = [
    ("empty-4x4", "empty", {"mesh_size": 4, "cycles": 30000}),
    ("empty-8x8", "empty", {"mesh_size": 8, "cycles": 10000}),
    ("ur-4x4-r0.05", "synthetic", {"layout": "baseline", "mesh_size": 4, "rate": 0.05}),
    ("ur-4x4-r0.15", "synthetic", {"layout": "baseline", "mesh_size": 4, "rate": 0.15}),
    ("ur-4x4-r0.30", "synthetic", {"layout": "baseline", "mesh_size": 4, "rate": 0.30}),
    ("ur-8x8-r0.05", "synthetic", {"layout": "baseline", "mesh_size": 8, "rate": 0.05}),
    ("ur-8x8-r0.15", "synthetic", {"layout": "baseline", "mesh_size": 8, "rate": 0.15}),
    ("ur-8x8-r0.30", "synthetic", {"layout": "baseline", "mesh_size": 8, "rate": 0.30}),
    ("fig07-base-8x8-r0.01", "synthetic", {"layout": "baseline", "mesh_size": 8, "rate": 0.01}),
    ("fig07-base-8x8-r0.05", "synthetic", {"layout": "baseline", "mesh_size": 8, "rate": 0.05}),
    ("fig07-base-8x8-r0.10", "synthetic", {"layout": "baseline", "mesh_size": 8, "rate": 0.10}),
    ("fig07-base-8x8-r0.15", "synthetic", {"layout": "baseline", "mesh_size": 8, "rate": 0.15}),
    ("fig07-hetero-8x8-r0.01", "synthetic", {"layout": "diagonal+BL", "mesh_size": 8, "rate": 0.01}),
    ("fig07-hetero-8x8-r0.05", "synthetic", {"layout": "diagonal+BL", "mesh_size": 8, "rate": 0.05}),
    ("fig07-hetero-8x8-r0.10", "synthetic", {"layout": "diagonal+BL", "mesh_size": 8, "rate": 0.10}),
    ("fig07-hetero-8x8-r0.15", "synthetic", {"layout": "diagonal+BL", "mesh_size": 8, "rate": 0.15}),
    ("faulty-4x4-r0.05", "faulty", {"layout": "baseline", "mesh_size": 4, "rate": 0.05}),
]

#: The acceptance group: fig07 uniform-random sweep points at rates <= 0.15.
FIG07_GROUP = [name for name, _, _ in CASES if name.startswith("fig07-")]
#: Saturation guard group: no point here may regress > 10% vs. the seed.
SATURATION_GROUP = ["ur-4x4-r0.30", "ur-8x8-r0.30"]
#: Quick subset timed by ``--check`` (the CI perf-smoke job).
CHECK_GROUP = ["empty-4x4", "ur-4x4-r0.05"]


def _build(layout_name: str, mesh_size: int, kernel: str = "event"):
    from repro.core.layouts import build_network, layout_by_name

    network = build_network(layout_by_name(layout_name, mesh_size))
    network.use_kernel(kernel)
    return network


def run_case(
    name: str,
    kind: str,
    params: Dict,
    kernel: str = "event",
) -> Tuple[int, float]:
    """Run one benchmark case; returns ``(simulated_cycles, wall_seconds)``.

    ``kernel`` names the cycle kernel to time.
    """
    from repro.traffic.patterns import pattern_by_name
    from repro.traffic.runner import run_synthetic

    if kind == "empty":
        net = _build("baseline", params["mesh_size"], kernel)
        n = params["cycles"]
        t0 = time.perf_counter()
        net.run_cycles(n)
        return n, time.perf_counter() - t0

    faults = None
    if kind == "faulty":
        from repro.faults.schedule import FaultSchedule, FaultSpec

        faults = FaultSchedule(
            specs=(
                FaultSpec(kind="link", router=5, port=2, mode="transient",
                          at=150, repair_after=200),
            ),
            seed=3,
        )
    net = _build(params["layout"], params["mesh_size"], kernel)
    pattern = pattern_by_name("uniform_random", net.topology)
    t0 = time.perf_counter()
    result = run_synthetic(
        net, pattern, params["rate"], seed=11, faults=faults, **FAST
    )
    return result.total_cycles, time.perf_counter() - t0


def run_suite(
    repeat: int = 3,
    kernel: str = "event",
    only: Optional[list] = None,
    quiet: bool = False,
    warmup: bool = True,
) -> Dict[str, Dict]:
    """Run the matrix (one untimed warmup, then best-of-``repeat`` wall
    clock per case).

    The warmup run absorbs one-time costs -- route-table construction,
    kernel packing, the compiled kernel's shared-object build/load,
    interpreter and allocator warmup -- so the recorded best-of-N
    figures measure steady-state stepping only.  ``warmup=False`` skips
    it for callers that only need a smoke signal.

    Raises :class:`ValueError` when ``only`` names a case that is not in
    the frozen matrix -- a silent empty run would report nothing while
    looking like success.
    """
    if only is not None:
        known = {name for name, _, _ in CASES}
        unknown = sorted(set(only) - known)
        if unknown:
            raise ValueError(
                f"unknown bench case(s): {', '.join(unknown)}; "
                f"known cases: {', '.join(name for name, _, _ in CASES)}"
            )
    out: Dict[str, Dict] = {}
    for name, kind, params in CASES:
        if only is not None and name not in only:
            continue
        best_wall, cycles = None, None
        if warmup:
            run_case(name, kind, params, kernel=kernel)
        for _ in range(repeat):
            c, w = run_case(name, kind, params, kernel=kernel)
            if best_wall is None or w < best_wall:
                best_wall, cycles = w, c
        out[name] = {
            "cycles": cycles,
            "wall_s": round(best_wall, 4),
            "cycles_per_s": round(cycles / best_wall, 1),
        }
        if not quiet:
            print(
                f"  [{kernel}] {name}: {cycles} cycles, {best_wall:.3f}s, "
                f"{cycles / best_wall:,.0f} cyc/s"
            )
    return out


def _group_summary(
    group: list, current: Dict[str, Dict], baseline: Optional[Dict[str, Dict]]
) -> Dict:
    wall = sum(current[n]["wall_s"] for n in group if n in current)
    summary = {"cases": group, "wall_s": round(wall, 4)}
    if baseline and all(n in baseline for n in group):
        base_wall = sum(baseline[n]["wall_s"] for n in group)
        summary["baseline_wall_s"] = round(base_wall, 4)
        if wall > 0:
            summary["speedup_vs_baseline"] = round(base_wall / wall, 3)
    return summary


def build_report(
    event: Dict[str, Dict],
    seed_baseline: Optional[Dict[str, Dict]],
    repeat: int,
    c: Optional[Dict[str, Dict]] = None,
) -> Dict:
    report: Dict = {
        "meta": {
            "tool": "repro.noc.bench",
            "repeat": repeat,
            "scale": FAST,
            "note": (
                "best-of-N wall clock; seed_baseline was measured on the "
                "same machine at the commit preceding the event-driven "
                "kernel"
            ),
        },
        "event": event,
    }
    if c:
        report["c"] = c
        report["speedup_c_vs_event"] = {
            name: round(event[name]["wall_s"] / c[name]["wall_s"], 3)
            for name in event
            if name in c and c[name]["wall_s"] > 0
        }
    if seed_baseline:
        report["seed_baseline"] = seed_baseline
        report["speedup_vs_seed"] = {
            name: round(
                seed_baseline[name]["wall_s"] / event[name]["wall_s"], 3
            )
            for name in event
            if name in seed_baseline and event[name]["wall_s"] > 0
        }
    report["groups"] = {
        "fig07_low": _group_summary(FIG07_GROUP, event, seed_baseline),
        "saturation": _group_summary(SATURATION_GROUP, event, seed_baseline),
    }
    if c:
        # The compiled-kernel acceptance group: same cases, c wall
        # clock, with the current *event* figures as the baseline.
        report["groups"]["fig07_low_c"] = _group_summary(
            FIG07_GROUP, c, event
        )
        summary = report["groups"]["fig07_low_c"]
        if "speedup_vs_baseline" in summary:
            summary["speedup_vs_event"] = summary.pop("speedup_vs_baseline")
            summary["event_wall_s"] = summary.pop("baseline_wall_s")
    return report


def history_entry(
    report: Dict, timestamp: str, git_sha: Optional[str] = None
) -> Dict:
    """One ``BENCH_history.jsonl`` line: the trajectory-tracking digest.

    ``timestamp`` is injected by the caller (an ISO-8601 string) so tests
    and reproducible drivers control it.
    """
    event = report.get("event", {})
    entry = {
        "timestamp": timestamp,
        "git_sha": git_sha,
        "repeat": report.get("meta", {}).get("repeat"),
        "event": {
            name: stats["cycles_per_s"] for name, stats in event.items()
        },
        "groups": {
            group: summary.get("wall_s")
            for group, summary in report.get("groups", {}).items()
        },
    }
    data = report.get("c")
    if data:
        entry["c"] = {
            name: stats["cycles_per_s"] for name, stats in data.items()
        }
    return entry


def append_history(entry: Dict, path: str) -> None:
    """Append one JSON line; creates the file on first use.

    The line is written with a single ``os.write`` on an ``O_APPEND``
    descriptor: POSIX guarantees the append offset and the write are one
    atomic step, so concurrent bench runs (or a crash mid-append) can
    interleave whole lines but never tear one.  Buffered ``fh.write``
    gave no such guarantee -- a signal between flushes could leave half
    a JSON line that poisoned every later read of the file.
    """
    line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def read_history(path: str) -> List[Dict]:
    """Parse a history file, skipping (and warning about) damaged lines.

    A torn line from a pre-fix writer or a crashed machine costs that
    one entry, not the whole trajectory.
    """
    entries: List[Dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                warnings.warn(
                    f"{path}:{lineno}: skipping unparsable history line"
                )
    return entries


def flag_regressions(
    current_event: Dict[str, Dict],
    baseline_event: Dict[str, Dict],
    tolerance: float = 1.5,
) -> List[str]:
    """Names of cases slower than ``tolerance`` x the baseline rate."""
    flagged = []
    for name, stats in current_event.items():
        base = baseline_event.get(name)
        if not base:
            continue
        base_rate = base.get("cycles_per_s", 0)
        cur_rate = stats.get("cycles_per_s", 0)
        if base_rate and (not cur_rate or base_rate / cur_rate > tolerance):
            flagged.append(name)
    return flagged


def run_check(
    baseline_path: str, tolerance: float, repeat: int, kernel: str = "event"
) -> int:
    """CI perf-smoke: fail when ``kernel`` regresses past ``tolerance``
    against the committed baseline's figures for the same kernel."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    reference = baseline.get(kernel, {})
    current = run_suite(
        repeat=repeat, kernel=kernel, only=CHECK_GROUP, quiet=True
    )
    failed = False
    for name in CHECK_GROUP:
        if name not in reference:
            print(f"  {name}: no {kernel} baseline entry, skipping")
            continue
        base_rate = reference[name]["cycles_per_s"]
        cur_rate = current[name]["cycles_per_s"]
        ratio = base_rate / cur_rate if cur_rate else float("inf")
        status = "OK" if ratio <= tolerance else "REGRESSION"
        print(
            f"  [{kernel}] {name}: {cur_rate:,.0f} cyc/s vs baseline "
            f"{base_rate:,.0f} cyc/s ({ratio:.2f}x slower, "
            f"tolerance {tolerance:.2f}x) {status}"
        )
        if ratio > tolerance:
            failed = True
    if failed:
        print("perf check FAILED")
        return 1
    print("perf check passed")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.noc.bench", description=__doc__
    )
    parser.add_argument(
        "--out", default=None,
        help="write the JSON report to this path (default: stdout summary only)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="timing repetitions per case (best-of, default 3)",
    )
    parser.add_argument(
        "--kernel",
        choices=("event", "c", "all"),
        default="all",
        help="which kernel(s) to time: a single kernel or 'all' "
             "(event + c, default; c is skipped when no C compiler is "
             "available); in --check mode a single kernel name selects "
             "which baseline figures to compare",
    )
    parser.add_argument(
        "--seed-baseline", default=None,
        help="JSON file of seed-commit measurements to embed for comparison",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="CI mode: compare a quick subset against a committed report",
    )
    parser.add_argument(
        "--tolerance", type=float, default=1.5,
        help="--check / regression-flag threshold (default 1.5x slower)",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="CASE",
        help="run only this case (repeatable); see CASES for names",
    )
    parser.add_argument(
        "--history", default="BENCH_history.jsonl",
        help="JSONL file to append the run's trajectory entry to "
             "(default BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip appending to the history file",
    )
    parser.add_argument(
        "--timestamp", default=None,
        help="ISO-8601 stamp recorded in the history entry "
             "(default: current UTC time)",
    )
    parser.add_argument(
        "--baseline", default="BENCH_kernel.json",
        help="committed report to flag regressions against "
             "(default BENCH_kernel.json; skipped when absent)",
    )
    args = parser.parse_args(argv)

    # The compiled kernel degrades to event when no compiler exists;
    # timing it would then mislabel event figures as "c".  Decide
    # availability up front and skip loudly instead.
    want_c = args.kernel in ("c", "all")
    c_reason = None
    if want_c or (args.check and args.kernel == "c"):
        from repro.noc.ckernel import ckernel_available, unavailable_reason

        if not ckernel_available():
            c_reason = unavailable_reason()
            if args.kernel == "c":
                print(
                    "skipping compiled-kernel benchmark: "
                    f"{c_reason} (nothing to time; exit 0)"
                )
                return 0
            print(f"note: compiled kernel unavailable ({c_reason}); "
                  "timing event only")
            want_c = False

    if args.check:
        check_kernel = "event" if args.kernel == "all" else args.kernel
        return run_check(
            args.check, args.tolerance, max(1, args.repeat), check_kernel
        )

    try:
        print("benchmarking event-driven kernel:")
        event = run_suite(repeat=args.repeat, kernel="event", only=args.only)
        c = None
        if want_c:
            print("benchmarking compiled (C) kernel:")
            c = run_suite(repeat=args.repeat, kernel="c", only=args.only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    seed_baseline = None
    if args.seed_baseline:
        with open(args.seed_baseline) as fh:
            seed_baseline = json.load(fh)
        # Accept either a bare {case: stats} map or a full report.
        if "event" in seed_baseline and isinstance(
            seed_baseline["event"], dict
        ):
            seed_baseline = seed_baseline["event"]

    report = build_report(event, seed_baseline, args.repeat, c=c)
    fig07 = report["groups"]["fig07_low"]
    if "speedup_vs_baseline" in fig07:
        print(
            f"fig07 group: {fig07['wall_s']:.3f}s vs seed "
            f"{fig07['baseline_wall_s']:.3f}s = "
            f"{fig07['speedup_vs_baseline']:.2f}x"
        )
    summary = report["groups"].get("fig07_low_c")
    if summary and "speedup_vs_event" in summary:
        print(
            f"fig07 group (c): {summary['wall_s']:.3f}s vs event "
            f"{summary['event_wall_s']:.3f}s = "
            f"{summary['speedup_vs_event']:.2f}x"
        )
    # Regression flags against the committed baseline (read before --out
    # can overwrite it).  A flagged case fails the run -- after the
    # history/report artifacts are written, so the evidence survives.
    flagged = []
    if args.baseline and os.path.exists(args.baseline):
        with open(args.baseline) as fh:
            baseline_event = json.load(fh).get("event", {})
        flagged = flag_regressions(event, baseline_event, args.tolerance)
        if flagged:
            print(
                f"REGRESSION vs {args.baseline} "
                f"(> {args.tolerance:.2f}x slower): {', '.join(flagged)}"
            )
        else:
            print(f"no regressions vs {args.baseline}")

    if not args.no_history and args.history:
        from repro.obs.manifest import git_sha

        timestamp = args.timestamp or time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
        append_history(
            history_entry(report, timestamp, git_sha()), args.history
        )
        total = len(read_history(args.history))
        print(f"appended history entry #{total} to {args.history}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
