"""Compare two sets of runs under the bounds of ``BENCHMARK.json``.

    python3 -m perf.compare parent.jsonl change.jsonl [more-change.jsonl ...]

Each file holds the documents ``perf.run --out FILE`` appended, one run a
line; the first file is the parent's set, the others together the change's.
One row per (workload, metric): medians and quartiles over the runs given,
the relative worsening, and a verdict --

* ``regressed``   the change's median is worse by more than the bound;
* ``unresolved``  it is not, but the run-to-run spread (quartile distance
  over median, on either side) is wider than the bound, and not every run
  of the change reads better than every run of the parent;
* ``improved``    better by more than the bound;  ``within`` otherwise.

Per-layer metrics have no bound and get no verdict.  Exit code 1 on any
regression, or when a workload's failed share of ops went up.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from perf.harness import load_spec


def load(paths: List[str]) -> List[dict]:
    runs = []
    for path in paths:
        with open(path) as handle:
            runs += [json.loads(line) for line in handle if line.strip()]
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> Tuple[float, str]:
    sign = 1.0 if better == "lower" else -1.0
    base_q, new_q = quartiles(base), quartiles(new)
    worsening = sign * (new_q[1] - base_q[1]) / abs(base_q[1])
    if worsening > bound:
        return worsening, "regressed"
    spread = max(
        (q[2] - q[0]) / abs(q[1]) for q in (base_q, new_q)
    )
    all_better = (
        max(new) < min(base) if better == "lower" else min(new) > max(base)
    )
    if spread > bound and not all_better:
        return worsening, "unresolved"
    return worsening, "improved" if worsening < -bound else "within"


def compare(base_runs: List[dict], new_runs: List[dict]) -> int:
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def collect(runs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
        table: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        for run in runs:
            for name, entry in run["metrics"].items():
                table[run["workload"], name].append(entry["value"])
        return table

    def failed_share(runs: List[dict], workload: str) -> float:
        mine = [r for r in runs if r["workload"] == workload]
        return sum(r["failed"] for r in mine) / sum(r["attempted"] for r in mine)

    base, new = collect(base_runs), collect(new_runs)
    status = 0
    print(f"{'workload':<12} {'metric':<40} {'unit':<13} "
          f"{'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        metric = metrics.get(name)
        base_q, new_q = quartiles(base[key]), quartiles(new[key])
        if metric is None or base_q[1] == 0:
            # Not declared, or no relative change exists (a count at 0).
            continue
        cells = [
            f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] n={len(values)}"
            for q, values in ((base_q, base[key]), (new_q, new[key]))
        ]
        if "bound" in metric:
            worsening, word = verdict(
                base[key], new[key], metric["better"], metric["bound"]
            )
            bound = f"{metric['bound']:.2f}"
            status = status or int(word == "regressed")
        else:
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worsening = sign * (new_q[1] - base_q[1]) / abs(base_q[1])
            word, bound = "-", "-"
        print(f"{workload:<12} {name:<40} {metric['unit']:<13} "
              f"{cells[0]:<36} {cells[1]:<36} {worsening:>+9.1%} {bound:>6}  "
              f"{word}")
    for workload in sorted({w for w, _ in base} & {w for w, _ in new}):
        before, after = (failed_share(base_runs, workload),
                         failed_share(new_runs, workload))
        note = ""
        if after > before:
            status, note = 1, "  <-- more ops fail"
        print(f"{workload:<12} failed share of ops: parent {before:.4f}, "
              f"change {after:.4f}{note}")
        digests = defaultdict(lambda: (set(), set()))
        for side, runs in enumerate((base_runs, new_runs)):
            for run in runs:
                if run["workload"] == workload and "result_digest" in run:
                    digests[run["seed"]][side].add(run["result_digest"])
        shared = [seed for seed, (a, b) in digests.items() if a and b]
        differing = [seed for seed in shared if digests[seed][0] != digests[seed][1]]
        if shared:
            print(f"{workload:<12} result_digest on {len(shared)} shared seeds: "
                  + ("identical" if not differing
                     else f"DIFFERENT on seeds {sorted(differing)} "
                          "(simulated results changed)"))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[:1]), load(argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
