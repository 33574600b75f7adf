"""The end-to-end chaos scenario.

One function, :func:`run_chaos_scenario`, drives a real sweep through
every fault family and asserts the crash-safety contract at each step:
**whatever chaos does, the sweep completes with results byte-identical
to an undisturbed serial run.**

The scenario (all seeded, fully deterministic):

1. *Baseline* -- the sweep runs serially with no cache: the expected
   results.
2. *Worker SIGKILL* -- the sweep runs on the process backend against a
   :class:`~repro.exec.store.ResultStore` while a kill plan SIGKILLs the
   worker executing the first point; the retry round must recover and
   every result must match the baseline.  The store journal must show
   every point committed.
3. *Store corruption* -- seeded rows are mangled on disk; a re-run must
   quarantine them, recompute, and again match the baseline.
4. *Checkpoint interruption* -- a point runs with auto-checkpointing
   while an injected ``OSError`` aborts it mid-run; the resumed
   execution must be bit-identical.  Then the checkpoint is bit-flipped
   and the fall-back-to-scratch path must also be bit-identical.  Both
   again for the point's ``kernel="c"`` twin, whose checkpoints are the
   compiled kernel's arena image: its results must equal the event
   point's.
5. *Store I/O faults* -- injected ``OSError`` / ``MemoryError`` at the
   ``store.put`` / ``store.get`` sites; the sweep must complete with
   correct results anyway (a failed cache write degrades to uncached).

Used by ``python -m repro.chaos --smoke`` (CI) and the chaos tests.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from contextlib import contextmanager
from typing import Dict, List

from repro.chaos.corrupt import corrupt_store_rows, flip_bits
from repro.chaos.kill import write_kill_plan
from repro.chaos.sites import reset_chaos_sites, write_site_plan
from repro.exec.engine import run_sweep, sweep_points
from repro.exec.point import checkpoint_path_for, execute_point
from repro.exec.store import ResultStore, sweep_id_for


class ChaosMismatch(AssertionError):
    """A chaos step produced results that differ from the baseline."""


@contextmanager
def _env(**overrides):
    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = str(value)
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _comparable(results) -> List[dict]:
    rows = []
    for result in results:
        row = result.to_dict()
        row.pop("from_cache", None)
        rows.append(row)
    return rows


def _payload(result) -> dict:
    """A point's result without its spec key (which names the kernel)."""
    row = result.to_dict()
    row.pop("key")
    return row


def _check(step: str, got, expected, report: Dict[str, str]) -> None:
    if got != expected:
        raise ChaosMismatch(f"chaos step '{step}': results differ from baseline")
    report[step] = "ok"


def run_chaos_scenario(
    workdir,
    seed: int = 7,
    jobs: int = 2,
    warmup_packets: int = 10,
    measure_packets: int = 30,
    log=print,
) -> Dict[str, str]:
    """Run the full scenario under ``workdir``; returns a step report.

    Raises :class:`ChaosMismatch` (or the underlying exception) as soon
    as any step violates the contract, so a non-zero exit from the CLI
    means a real crash-safety regression.
    """
    workdir = pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report: Dict[str, str] = {}
    points = sweep_points(
        ["baseline", "center+BL"],
        "uniform_random",
        [0.05, 0.1],
        seed=seed,
        warmup_packets=warmup_packets,
        measure_packets=measure_packets,
        mesh_size=4,
    )

    log(f"chaos: baseline serial run ({len(points)} points)")
    baseline = _comparable(run_sweep(points, cache=None, backend="serial"))
    report["baseline"] = "ok"

    log("chaos: SIGKILL a pool worker mid-sweep")
    store_path = workdir / "sweeps.sqlite"
    kill_plan = write_kill_plan(
        workdir / "kill.json", [points[0]], workdir / "kill-tokens"
    )
    with _env(REPRO_CHAOS_KILL=kill_plan):
        survived = run_sweep(
            points,
            cache=str(store_path),
            jobs=max(2, jobs),
            backend="process",
            retries=2,
        )
    _check("worker-sigkill", _comparable(survived), baseline, report)
    progress = ResultStore(store_path).sweep_progress(sweep_id_for(points))
    if progress["pending"] != 0:
        raise ChaosMismatch(
            f"journal still shows pending points after recovery: {progress}"
        )
    report["journal"] = "ok"

    log("chaos: mangle store rows, expect quarantine + recompute")
    mangled = corrupt_store_rows(store_path, count=2, seed=seed)
    requarantined = run_sweep(points, cache=str(store_path), backend="serial")
    _check("store-corruption", _comparable(requarantined), baseline, report)
    quarantined = {row["key"] for row in ResultStore(store_path).quarantined()}
    if not set(mangled) <= quarantined:
        raise ChaosMismatch(
            f"mangled rows {mangled} not quarantined (got {quarantined})"
        )

    point = points[1]
    expected = _payload(execute_point(point))
    ckpt_dir = workdir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    site_plan = write_site_plan(
        workdir / "sites.json",
        {"runner.checkpoint": {"exc": "OSError", "calls": [1],
                               "message": "chaos: torn write"}},
    )

    def interrupt(twin) -> pathlib.Path:
        with _env(REPRO_CHAOS_PLAN=site_plan):
            reset_chaos_sites()
            try:
                execute_point(twin, checkpoint_every=25, checkpoint_dir=ckpt_dir)
                raise ChaosMismatch("injected checkpoint fault never fired")
            except OSError:
                pass
        checkpoint = checkpoint_path_for(twin, ckpt_dir)
        if not checkpoint.exists():
            raise ChaosMismatch("no checkpoint survived the interruption")
        return checkpoint

    def finish(twin) -> dict:
        return _payload(execute_point(
            twin, checkpoint_every=25, checkpoint_dir=ckpt_dir
        ))

    for twin, suffix in (
        (point, ""), (dataclasses.replace(point, kernel="c"), "-c"),
    ):
        log(f"chaos: interrupt a checkpointed point{suffix}, resume "
            "bit-identically")
        interrupt(twin)
        _check(f"checkpoint-resume{suffix}", finish(twin), expected, report)

        log(f"chaos: bit-flip a checkpoint{suffix}, expect detected + "
            "scratch fallback")
        flip_bits(interrupt(twin), seed=seed, flips=4)
        _check(f"checkpoint-corruption{suffix}", finish(twin), expected,
               report)

    log("chaos: inject store I/O faults, sweep must still complete")
    faulty_store = workdir / "faulty.sqlite"
    io_plan = write_site_plan(
        workdir / "io-sites.json",
        {
            "store.put": {"exc": "OSError", "calls": [0],
                          "message": "chaos: disk full"},
            "store.get": {"exc": "MemoryError", "calls": [0]},
        },
    )
    with _env(REPRO_CHAOS_PLAN=io_plan):
        reset_chaos_sites()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            faulted = run_sweep(
                points, cache=str(faulty_store), backend="serial"
            )
    _check("store-io-faults", _comparable(faulted), baseline, report)

    log("chaos: all steps ok")
    return report
