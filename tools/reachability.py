"""Which functions in ``src/repro`` do the product surfaces reach?

Runs every product surface -- each ``run_all`` harness at fast scale
(resilience through its ``--smoke`` only), the ``--smoke`` harness CLIs,
the ``run_all`` flags, the serve / chaos / perf smokes, the heatmap /
replay / store CLIs and ``examples/*.py`` -- with the profile hook in ``tools/reachability_hook`` loaded into every
Python process they start.  The functions those processes entered are
joined with an ``ast`` inventory of ``src/repro``, and every function no
surface reached must be listed in ``tools/reachability_baseline.txt``
under the reason it stays.

Usage, from the repository root (stdlib only; about 10 minutes)::

    python tools/reachability.py                    # run, check baseline
    python tools/reachability.py --data DIR         # keep the raw hits
    python tools/reachability.py --data DIR --reuse # re-check DIR's hits

Exits 1 when a function no surface reached is missing from the
baseline.  Baseline entries that a surface did reach, or that no longer
exist, are printed as stale but do not fail the check.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
HOOK = ROOT / "tools" / "reachability_hook"
BASELINE = ROOT / "tools" / "reachability_baseline.txt"

#: harness CLIs with a ``--smoke`` mode, each a surface of its own
SMOKE_MODULES = ("repro.experiments.resilience", "repro.experiments.placement_search")
#: the harness that runs only through ``--smoke``: profiled, its fast
#: scale alone takes minutes
SMOKE_ONLY = "resilience"


class Function(NamedTuple):
    path: Path
    first: int
    last: int


def inventory() -> Dict[str, Function]:
    """Every function and method under ``src/repro``, by qualified name.

    Names follow ``__qualname__`` with the module prefixed
    (``repro.noc.network.Network.step``); a property setter is
    ``<name>.setter``.
    """
    functions: Dict[str, Function] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        _collect(ast.parse(path.read_text(), str(path)), module + ".", path, functions)
    return functions


def _collect(node, prefix: str, path: Path, out: Dict[str, Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _collect(child, f"{prefix}{child.name}.", path, out)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            for decorator in child.decorator_list:
                if isinstance(decorator, ast.Attribute) and decorator.attr in (
                    "setter", "deleter",
                ):
                    name += "." + decorator.attr
            # A decorated function's code object starts at its first
            # decorator, and that is the line the hook reports.
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            out[name] = Function(path, first, child.end_lineno)
            _collect(child, f"{name}.<locals>.", path, out)
        else:
            _collect(child, prefix, path, out)


def surfaces(work: Path, harnesses: List[str]) -> List[Tuple[str, List[str]]]:
    """(label, argv) for every product surface, in run order."""
    py = sys.executable
    run_all = [py, "-m", "repro.experiments.run_all"]
    obs = work / "obs"
    store = work / "xdg" / "repro-heteronoc" / "sweeps"
    plain = [name for name in harnesses if name != SMOKE_ONLY]
    runs = [(f"run_all (all but {SMOKE_ONLY})", run_all + plain)]
    runs += [(f"{module} --smoke", [py, "-m", module, "--smoke"])
             for module in SMOKE_MODULES]
    runs += [
        # Every harness --csv exports; the first surface stored their points.
        ("run_all --csv", run_all + ["fig01", "fig07", "fig09", "sensitivity",
                                     "--csv", str(work / "csv")]),
        ("run_all --resume", run_all + ["--resume", "fig01"]),
        ("run_all --kernel c", run_all + ["--kernel", "c", "--no-cache", "fig07"]),
        ("run_all --jobs 2", run_all + ["--jobs", "2", "--no-cache", "fig09"]),
        ("run_all --obs", run_all + ["fig01", "--obs", str(obs)]),
        ("obs.replay spans", [py, "-m", "repro.obs.replay",
                              str(obs / "obs_demo_spans.jsonl")]),
        ("obs.replay trace --chrome", [py, "-m", "repro.obs.replay",
                                       str(obs / "obs_demo_trace.jsonl"),
                                       "--chrome", str(obs / "replayed.json")]),
        ("obs.heatmap --demo", [py, "-m", "repro.obs.heatmap", "--demo"]),
        ("exec info", [py, "-m", "repro.exec", str(store), "info"]),
        ("serve smoke", [py, "-m", "repro.serve.smoke",
                         "--workdir", str(work / "serve")]),
        ("chaos --smoke", [py, "-m", "repro.chaos", "--smoke"]),
        ("perf --smoke", [py, "-m", "perf.run", "--smoke"]),
    ]
    runs += [
        (f"examples/{example.name}", [py, str(example)])
        for example in sorted((ROOT / "examples").glob("*.py"))
    ]
    return runs


def _environment(work: Path, hits: Path) -> Dict[str, str]:
    # Strip REPRO_* knobs so the caller's settings cannot steer a
    # surface; every store, cache and temp file stays inside ``work``.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(HOOK), str(ROOT / "src")]),
        REACHABILITY_OUT=str(hits),
        REACHABILITY_ROOT=str(PACKAGE) + os.sep,
        REPRO_CKERNEL_CACHE=str(work / "ckernel"),
        XDG_CACHE_HOME=str(work / "xdg"),
        TMPDIR=str(work / "tmp"),
    )
    return env


def run_surfaces(work: Path, hits: Path) -> None:
    env = _environment(work, hits)
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    listed = subprocess.run(
        [sys.executable, "-m", "repro.experiments.run_all", "--list"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    harnesses = [line.split()[0] for line in listed.stdout.splitlines()[1:]
                 if line.strip() and not line.startswith("cycle kernel")]
    print(f"{'surface':<44} {'exit':>4} {'wall s':>7}", flush=True)
    for label, argv in surfaces(work, harnesses):
        started = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - started
        print(f"{label:<44} {done.returncode:>4} {wall:>7.1f}", flush=True)
        if done.returncode:
            # A failing surface reaches less, which the check reports;
            # run_all exits 1 while a harness is known to fail.
            for line in done.stderr.strip().splitlines()[-3:]:
                print(f"    {line}")


def reached(hits: Path) -> Set[Tuple[str, int]]:
    """(absolute file, first line) of every function any process entered."""
    found = set()
    for path in hits.glob("*.txt"):
        for line in path.read_text().splitlines():
            file, _, number = line.rpartition(":")
            if number.isdigit():
                found.add((file, int(number)))
    return found


def read_baseline(path: Path) -> Set[str]:
    """The listed functions; a ``## reason`` line heads its entries."""
    entries: Set[str] = set()
    reason = None
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or (line.startswith("#") and not line.startswith("## ")):
            continue
        if line.startswith("## "):
            reason = line[3:].strip()
        elif reason is None:
            raise SystemExit(f"{path}:{number}: entry before any '## reason' line")
        elif line in entries:
            raise SystemExit(f"{path}:{number}: {line} listed twice")
        else:
            entries.add(line)
    return entries


def check(functions: Dict[str, Function], hits: Set[Tuple[str, int]],
          baseline: Set[str]) -> int:
    unreached = {
        name: fn for name, fn in functions.items()
        if (str(fn.path), fn.first) not in hits
    }
    lines = sum(fn.last - fn.first + 1 for fn in unreached.values())
    new = sorted(set(unreached) - baseline)
    stale = sorted(baseline - set(unreached))
    print(
        f"\nsrc/repro: {len(functions)} functions, "
        f"{len(functions) - len(unreached)} reached by a surface, "
        f"{len(unreached)} unreached ({lines} lines); "
        f"baseline {len(baseline)}, new {len(new)}, stale {len(stale)}"
    )
    for name in stale:
        note = "reached" if name in functions else "gone"
        print(f"stale baseline entry ({note}), delete it: {name}")
    if new:
        print("\nunreached and not in tools/reachability_baseline.txt -- call "
              "them from a surface, delete them, or list them under a reason:")
        for name in new:
            fn = unreached[name]
            print(f"{name}    # {fn.path.relative_to(ROOT)}:{fn.first}")
        return 1
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--data", help="keep the run's work files and raw hits in this new directory"
    )
    parser.add_argument("--reuse", action="store_true",
                        help="check the hits already in --data; run nothing")
    args = parser.parse_args(argv)
    if args.reuse and not args.data:
        parser.error("--reuse needs --data")
    if args.data and not args.reuse and os.path.exists(args.data):
        # A warm store would replay points instead of simulating them.
        parser.error(f"--data {args.data} exists; name a new directory")
    work = Path(args.data or tempfile.mkdtemp(prefix="reachability-")).resolve()
    hits = work / "hits"
    try:
        if not args.reuse:
            hits.mkdir(parents=True)
            run_surfaces(work, hits)
        return check(inventory(), reached(hits), read_baseline(BASELINE))
    finally:
        if not args.data:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
