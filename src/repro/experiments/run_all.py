"""Regenerate every table and figure in one command.

Usage::

    python -m repro.experiments.run_all               # every harness
    python -m repro.experiments.run_all fig07 fig09   # a subset
    python -m repro.experiments.run_all --jobs 4      # parallel sweep points
    python -m repro.experiments.run_all --no-cache    # always resimulate
    python -m repro.experiments.run_all --csv out/    # also export CSVs
    python -m repro.experiments.run_all --resume      # report the store's
                                                      #   journal progress,
                                                      #   then continue
    python -m repro.experiments.run_all --obs out/    # observability demo:
                                                      #   instrumented fig01
                                                      #   run -> time series,
                                                      #   trace, profile
    python -m repro.experiments.run_all --list        # enumerate harnesses
                                                      #   and their sweep tags
    python -m repro.experiments.run_all --kernel c    # force a cycle kernel
                                        # (event or c) for every harness
                                        # via REPRO_KERNEL; the kernels
                                        # are bit-identical, so this
                                        # changes wall-clock only
    python -m repro.experiments.run_all --submit http://host:8923 fig07
                                        # ship sweeps to a repro.serve
                                        # job server instead of running
                                        # them locally

This is the one command line for the harnesses, and an argument it does
not know -- a flag or an experiment name -- exits 2.  Every harness runs
at its ``run()`` defaults (100 warmup + 600 measured packets per sweep
point); another scale is a call with explicit sizes, e.g.
``fig07_ur_traffic.run(warmup_packets=1000, measure_packets=100_000)``
for the paper's.

Sweep-style harnesses submit their points through :mod:`repro.exec`:
``--jobs N`` fans independent points out over N worker processes
(bit-identical output to serial execution) and completed points land in
the durable result store (``REPRO_SWEEP_CACHE``, else
``repro.exec.default_store_path()``), so a re-run -- or a crashed
sweep restarted -- skips simulation for every point it already has.
``--no-cache`` opts out.  Progress heartbeats and cache
configuration go to stderr so stdout stays byte-comparable across
``--jobs`` settings.

Each harness prints the paper-shaped rows/series; EXPERIMENTS.md holds
the recorded measured-vs-paper comparison.  After each harness a progress
line reports elapsed wall-clock and the ETA for the remaining harnesses
(estimated from the mean harness duration so far).  A harness that
raises is reported -- ``[<name> FAILED: <error>]`` and its traceback on
stderr -- and the rest still run; the exit code is then 1, with the
failed harnesses named last.
"""

from __future__ import annotations

import sys
import time
import traceback

from repro.experiments import (
    ablation_mechanisms,
    fig01_utilization,
    fig02_other_topologies,
    fig07_ur_traffic,
    fig08_breakdown,
    fig09_nn_traffic,
    fig10_torus,
    fig11_applications,
    fig12_ipc,
    fig13_memctrl,
    fig14_asymmetric,
    placement_search,
    resilience,
    sensitivity_big_routers,
    table1_router_model,
)

HARNESSES = {
    "table1": table1_router_model.main,
    "fig01": fig01_utilization.main,
    "fig02": fig02_other_topologies.main,
    "fig07": fig07_ur_traffic.main,
    "fig08": fig08_breakdown.main,
    "fig09": fig09_nn_traffic.main,
    "fig10": fig10_torus.main,
    "fig11": fig11_applications.main,
    "fig12": fig12_ipc.main,
    "fig13": fig13_memctrl.main,
    "fig14": fig14_asymmetric.main,
    "ablations": ablation_mechanisms.main,
    "sensitivity": sensitivity_big_routers.main,
    "resilience": resilience.main,
    "search": placement_search.main,
}


# Harnesses whose main() returns run() data export_experiment understands.
_EXPORTABLE = {"fig01", "fig07", "fig09", "sensitivity"}


def _export_observability(directory: str) -> None:
    """Run one instrumented Figure-1-style run and export its artifacts.

    Demonstrates the full observability stack end to end: time-series
    sampling, packet tracing, run-phase profiling, kernel metrics with
    bottleneck attribution (ASCII heatmap printed below), engine span
    telemetry for a tiny sweep, a search-trace sample and a run manifest
    -- the quickest way to get trace/span files for
    ``python -m repro.obs.replay``.
    """
    import pathlib

    from repro.exec import SweepPoint, run_sweep, sweep_points
    from repro.experiments.export import export_observation
    from repro.obs import observe
    from repro.obs.attribution import attribute_metrics
    from repro.obs.heatmap import render_report
    from repro.obs.manifest import RunManifest, SearchTrace, SweepTelemetry
    from repro.obs.replay import write_events, write_json
    from repro.search.objectives import PlacementEvaluator
    from repro.search.optimize import simulated_annealing

    directory = pathlib.Path(directory)
    scale = {"warmup_packets": 100, "measure_packets": 600}
    point = SweepPoint(layout="baseline", rate=0.05, seed=11, **scale)
    network = point.build_network()
    observation = observe(
        network, sample_window=100, trace=True, profile=True, metrics=True
    )
    point.run(
        network, profiler=observation.profiler, sampler=observation.sampler
    )
    # Drain in-flight background packets so the link-flit conservation
    # check (injected == delivered x hops) in the attribution holds.
    network.drain(max_cycles=400_000)
    for path in export_observation("obs_demo", observation, directory):
        print(f"  wrote {path}")
    print(render_report(attribute_metrics(observation.metrics), top_k=5))
    if observation.profiler is not None:
        print(observation.profiler.format_report())

    # Tiny instrumented sweep: engine spans + a merged Chrome trace.
    points = sweep_points(
        ["baseline", "center+BL"], "uniform_random", [0.02, 0.05], **scale
    )
    telemetry = SweepTelemetry()
    run_sweep(points, telemetry=telemetry)

    # Search telemetry sample (trace hooks never touch the RNG, so the
    # traced trajectory matches an untraced run exactly).
    trace = SearchTrace(every=50)
    simulated_annealing(
        PlacementEvaluator(4), num_big=4, steps=200, restarts=1,
        polish_top=1, telemetry=trace,
    )
    spans_path = write_events(
        directory / "obs_demo_spans.jsonl", telemetry.spans + trace.records
    )
    print(f"  wrote {spans_path}")

    # Packet events tick in simulated cycles and span events in wall-clock
    # microseconds: two process-separated tracks, not one shared clock.
    chrome_path = write_json(
        directory / "obs_demo_chrome_merged.json",
        {
            "traceEvents": observation.tracer.chrome_trace_events()
            + telemetry.chrome_trace_events(),
            "otherData": {"time_unit": "mixed"},
        },
    )
    print(f"  wrote {chrome_path}")

    manifest = RunManifest.collect(
        "obs_demo",
        created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        config={"layout": "baseline", "pattern": "uniform_random",
                "rate": 0.05, **scale},
        points=points,
        telemetry=telemetry,
        argv=sys.argv,
    )
    manifest_path = directory / "obs_demo_manifest.json"
    manifest.write_json(manifest_path)
    print(f"  wrote {manifest_path}")


def _pop_flag_with_value(argv: list, flag: str):
    """Remove ``flag VALUE`` from argv; returns (value, argv) or raises."""
    index = argv.index(flag)
    if index + 1 >= len(argv):
        raise ValueError(f"{flag} needs a value argument")
    return argv[index + 1], argv[:index] + argv[index + 2:]


def _configure_exec(argv: list):
    """Apply ``--jobs N`` / ``--no-cache`` / ``--resume`` to the engine.

    Returns ``(argv, resume_store)`` where ``resume_store`` is the store
    path when ``--resume`` was given (else ``None``).  Everything this
    prints goes to stderr: the harness tables on stdout must stay
    byte-identical whatever the execution backend.

    Every mode shares one result store -- ``REPRO_SWEEP_CACHE`` or
    :func:`repro.exec.default_store_path` -- so ``--resume`` only adds the
    journal report: whatever a plain (or killed) run committed is there.
    """
    from repro.exec import (
        ExecDefaults,
        ResultStore,
        configure,
        default_store_path,
    )
    from repro.obs.profiler import make_progress_printer

    jobs = None
    if "--jobs" in argv:
        value, argv = _pop_flag_with_value(argv, "--jobs")
        jobs = int(value)
        if jobs < 1:
            raise ValueError(f"--jobs needs a positive integer, got {value}")
    store_path, cache_label = None, "off"
    if "--no-cache" in argv:
        argv = [a for a in argv if a != "--no-cache"]
    else:
        store_path = ResultStore(
            ExecDefaults.from_env().cache_dir or default_store_path()
        ).path
        cache_label = str(store_path)
    resume = "--resume" in argv
    if resume:
        argv = [a for a in argv if a != "--resume"]
        if store_path is None:
            raise ValueError("--resume needs the cache; drop --no-cache")
    configure(
        jobs=jobs,
        cache_dir=store_path,
        # No captured stream: the printer resolves sys.stderr per print,
        # so the installed default keeps working after redirection.
        progress=make_progress_printer(),
    )
    print(f"[exec] jobs={jobs or 'default'} cache={cache_label}", file=sys.stderr)
    return argv, store_path if resume else None


def _report_resume(store_path, names: list) -> dict:
    """Print per-figure journal progress; returns the report dict.

    Reads the sweep journal an interrupted run left in the store:
    one line per (tag, sweep) with committed/pending point counts, so
    the operator sees exactly how much of the run survives before
    the suite continues (committed points replay from the store at
    zero simulation cost).
    """
    from repro.exec.store import ResultStore

    summary = ResultStore(store_path).journal_summary()
    print(f"[resume] store {store_path}", file=sys.stderr)
    if not summary:
        print("[resume] no journalled sweeps yet", file=sys.stderr)
    for row in summary:
        tag = row["tag"] or "(untagged)"
        print(
            f"[resume] {tag}: {row['committed']}/{row['total']} points "
            f"committed, {row['pending']} pending",
            file=sys.stderr,
        )
    return {
        "store": str(store_path),
        "sweeps": summary,
        "harnesses": list(names),
    }


def _write_resume_manifest(store_path, resume_report: dict) -> None:
    """Record the resume event next to the store (RunManifest JSON)."""
    from repro.obs.manifest import RunManifest

    manifest = RunManifest.collect(
        "run_all_resume",
        created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        config={"store": str(store_path)},
        argv=sys.argv,
        extra={"resume": resume_report},
    )
    path = store_path.with_suffix(".resume.json")
    manifest.write_json(path)
    print(f"[resume] manifest {path}", file=sys.stderr)


def _list_harnesses() -> int:
    """Print the harness table: name, sweep tag, CSV export support.

    Every harness journals its sweeps under a tag equal to its own name
    (that is what ``--resume`` reports against and what shows up in
    ``python -m repro.exec <store> info`` and in job-server tags).
    """
    from repro.noc.config import NetworkConfig

    width = max(len(name) for name in HARNESSES)
    print(f"{'harness':<{width}}  {'sweep tag':<{width}}  csv")
    for name in HARNESSES:
        csv = "yes" if name in _EXPORTABLE else "-"
        print(f"{name:<{width}}  {name:<{width}}  {csv}")
    print(f"cycle kernel: {NetworkConfig().kernel_in_force()}")
    return 0


def _run_harness(name: str, csv_dir) -> None:
    """Run one harness, then export its CSVs when ``csv_dir`` is set."""
    from repro.exec import configure

    # Tag this harness's sweeps in the store journal, so a later
    # --resume reports progress per figure.
    configure(sweep_tag=name)
    try:
        data = HARNESSES[name]()
    finally:
        configure(sweep_tag=None)
    if csv_dir and name in _EXPORTABLE:
        from repro.experiments.export import export_experiment

        written = export_experiment(name, data, csv_dir)
        for path in written:
            print(f"  wrote {path}")


def main(argv: list) -> int:
    if "--kernel" in argv:
        import os

        from repro.noc.config import NetworkConfig

        try:
            value, argv = _pop_flag_with_value(argv, "--kernel")
            NetworkConfig.check_kernel(value)
        except ValueError as exc:
            print(exc)
            return 2
        # REPRO_KERNEL reaches every network the harnesses (and any
        # --jobs worker processes) construct; the harness tables stay
        # byte-identical because the kernels are bit-identical.
        os.environ["REPRO_KERNEL"] = value
    if "--list" in argv:
        return _list_harnesses()
    csv_dir = None
    obs_dir = None
    submit_url = None
    try:
        if "--csv" in argv:
            csv_dir, argv = _pop_flag_with_value(argv, "--csv")
        if "--obs" in argv:
            obs_dir, argv = _pop_flag_with_value(argv, "--obs")
        if "--submit" in argv:
            submit_url, argv = _pop_flag_with_value(argv, "--submit")
        argv, resume_store = _configure_exec(argv)
    except ValueError as exc:
        print(exc)
        return 2
    if submit_url is not None:
        from repro.serve.client import ServeClient, ServeError, install_submit

        try:
            ServeClient(submit_url).health()
        except (ServeError, ValueError) as exc:
            print(f"--submit {submit_url}: {exc}")
            return 2
        install_submit(submit_url, client="run_all")
        print(f"[exec] submitting sweeps to {submit_url}", file=sys.stderr)
    flags = [a for a in argv if a.startswith("-")]
    if flags:
        print(f"unknown flags: {flags}; see repro.experiments.run_all's usage")
        return 2
    names = argv or list(HARNESSES)
    unknown = [n for n in names if n not in HARNESSES]
    if unknown:
        print(f"unknown experiments: {unknown}; choose from {sorted(HARNESSES)}")
        return 2
    if resume_store is not None:
        resume_report = _report_resume(resume_store, names)
        _write_resume_manifest(resume_store, resume_report)
    suite_start = time.time()
    failed = []
    for done, name in enumerate(names):
        print("=" * 72)
        print(name)
        print("=" * 72)
        start = time.time()
        outcome = "done"
        try:
            _run_harness(name, csv_dir)
        except Exception as exc:
            # One harness raising must not cost the rest of the suite.
            failed.append(name)
            outcome = "FAILED"
            sys.stdout.flush()
            print(
                f"[{name} FAILED: {type(exc).__name__}: {exc}]",
                file=sys.stderr,
            )
            traceback.print_exc(file=sys.stderr)
        elapsed = time.time() - suite_start
        remaining = len(names) - (done + 1)
        eta = elapsed / (done + 1) * remaining
        print(
            f"[{name} {outcome} in {time.time() - start:.1f} s; "
            f"{done + 1}/{len(names)} harnesses, {elapsed:.1f} s elapsed, "
            f"ETA {eta:.0f} s]\n"
        )
    if obs_dir:
        print("=" * 72)
        print("observability export")
        print("=" * 72)
        _export_observability(obs_dir)
    if failed:
        print(
            f"[run_all] {len(failed)} of {len(names)} harnesses failed: "
            f"{' '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
