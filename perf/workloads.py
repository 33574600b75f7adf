"""The four workloads: what an op is, how a round of ops is made from the
seed, how a round runs, and how its outputs are checked.

Every workload runs *rounds*.  A round holds each kind of op exactly once
(layout x traffic, application x layout, job kind), so every round does
the same mix of work and only the seeds differ; the harness repeats whole
rounds until its time is up.  The program under test only ever receives
the generated ``SweepPoint`` specs and traces, never the seed argument.

The same ``run_round`` serves the timed run and the traced run: a workload
is built around a :class:`perf.trace.Tracer`, which is disabled in the
timed run.  Each workload names ``rss_rounds``: peak memory is read after that many rounds,
a fixed amount of work, because ``kernel="c"`` points leave memory behind
and a faster program would otherwise be charged for the extra rounds it
fits into the same seconds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional

from perf.clock import HostClock
from perf.trace import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# Ten times what any point here needs to drain (every rate is far below
# saturation).  It bounds the damage when a point wedges: at the default
# 400,000 a single wedged torus point costs minutes.
DRAIN_CYCLE_CAP = 5_000
CMP_MAX_CYCLES = 400_000


@dataclass
class Op:
    """One completed (or failed) operation of a round."""

    kind: str
    latency_s: float
    sim_cycles: int
    #: the simulated output, JSON-able; feeds ``result_digest``.
    payload: object
    #: why the op counts as failed (it then contributes no latency).
    error: Optional[str] = None
    #: serve_mix only: the job's points, for the check against local runs.
    points: Optional[list] = None
    #: CPU seconds of this process inside ``latency_s``.
    cpu_s: float = 0.0
    #: :meth:`HostClock.read` right after the op.
    host_ref_s: float = 0.0
    #: ``latency_s`` on the calibrated clock; ``HostClock.calibrate`` sets it.
    calibrated_s: float = 0.0


def op_seed(seed: int, round_no: int, index: int) -> int:
    return seed * 1_000_000 + round_no * 1_000 + index


def check_point_result(result, point) -> Optional[str]:
    if result.error is not None:
        return f"error: {result.error}"
    if result.saturated:
        return "saturated"
    if result.unfinished_measured_packets != 0:
        return f"{result.unfinished_measured_packets} measured packets unfinished"
    if result.measured_packets != point.measure_packets:
        return (
            f"measured {result.measured_packets} packets, "
            f"asked for {point.measure_packets}"
        )
    return None


class Workload:
    """What the harness calls; the traced run also calls ``install`` and
    ``trace_extras``."""

    name: str
    rss_rounds: int

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.clock = HostClock(tracer)

    def setup(self, work: Path) -> Dict[str, float]:
        """Create stores and servers under ``work`` and run the untimed
        warm-up op; returns the set-up costs that are per-layer metrics."""
        raise NotImplementedError

    def round_ops(self, seed: int, round_no: int) -> list:
        raise NotImplementedError

    def run_round(self, specs: list, round_no: int) -> List[Op]:
        raise NotImplementedError

    def install(self) -> None:
        """Swap timing wrappers over the layer boundaries (traced run)."""

    def finalize(self, ops: List[Op]) -> None:
        """Checks that are too slow to sit between the timed ops."""

    def trace_extras(self) -> Dict[str, float]:
        """Per-layer metrics only the live workload can read."""
        return {}

    def server_peak_rss_mb(self) -> float:
        """Peak memory of processes the workload started, beside this one."""
        return 0.0

    def close(self) -> None:
        pass


# -- sweeps -------------------------------------------------------------------
class SweepWorkload(Workload):
    """``run_sweep(points, jobs=1, cache=<store>, progress=<timestamps>)``;
    an op is one sweep point, timed as the gap between heartbeats."""

    def __init__(self, tracer: Tracer, name: str, kinds: List[dict],
                 warmup: int, measure: int, rss_rounds: int) -> None:
        super().__init__(tracer)
        self.name = name
        self.kinds = kinds
        self.warmup = warmup
        self.measure = measure
        self.rss_rounds = rss_rounds
        self.store = None
        #: networks built during a traced round (to read ``active_kernel``).
        self.networks: List[object] = []

    def setup(self, work: Path) -> Dict[str, float]:
        from repro.exec import ResultStore, run_sweep

        if any(kind.get("kernel") == "c" for kind in self.kinds):
            require_c_kernel(self.name)
        started = perf_counter()
        self.store = ResultStore(work / f"{self.name}.sqlite")
        self.store.connection()
        open_s = perf_counter() - started
        warm = self.point(self.kinds[0], seed=0, warmup=20, measure=40)
        run_sweep([warm], jobs=1, cache=self.store, progress=None)
        return {"exec.store.open_s": open_s}

    def point(self, kind: dict, seed: int, warmup: Optional[int] = None,
              measure: Optional[int] = None):
        from repro.exec import SweepPoint

        return SweepPoint(
            pattern="uniform_random",
            seed=seed,
            warmup_packets=self.warmup if warmup is None else warmup,
            measure_packets=self.measure if measure is None else measure,
            drain_cycle_cap=DRAIN_CYCLE_CAP,
            **kind,
        )

    def round_ops(self, seed: int, round_no: int) -> list:
        return [
            self.point(kind, op_seed(seed, round_no, index))
            for index, kind in enumerate(self.kinds)
        ]

    def install(self) -> None:
        import repro.core.merging
        import repro.core.power
        import repro.exec.engine
        import repro.traffic.runner
        from repro.exec import ResultStore, SweepPoint
        from repro.noc.stats import NetworkStats

        tracer = self.tracer
        tracer.wrap(repro.exec.engine, "execute_point", "exec.execute_point")
        tracer.wrap(SweepPoint, "build_network", "noc.build")
        spanned_build = SweepPoint.build_network
        networks = self.networks

        def build_instrumented(point):
            # Outside the noc.build span: hand out a network whose step
            # and enqueue are timed, and keep it to read active_kernel.
            network = spanned_build(point)
            tracer.wrap(network, "step", "noc.step", aggregate=True,
                        restore=False)
            tracer.wrap(network, "enqueue", "noc.enqueue", aggregate=True,
                        restore=False)
            networks.append((point, network))
            return network

        SweepPoint.build_network = build_instrumented
        tracer.wrap(repro.traffic.runner, "run_synthetic",
                    "traffic.run_synthetic")
        tracer.wrap(repro.core.power, "network_power_breakdown", "core.power")
        tracer.wrap(repro.core.merging, "merge_report", "core.merge_report")
        tracer.wrap(NetworkStats, "summary", "noc.summary")
        for method in ("begin_sweep", "get", "put", "mark_committed"):
            tracer.wrap(ResultStore, method, f"exec.store.{method}")

    def run_round(self, points: list, round_no: int) -> List[Op]:
        from repro.exec import run_sweep

        tracer = self.tracer
        # One row per heartbeat: the op's wall and CPU seconds, then the
        # reference reading, then the clocks the next op starts from.
        rows: List[tuple] = []
        clocks = [perf_counter(), process_time()]

        def heartbeat(progress) -> None:
            wall, cpu = perf_counter() - clocks[0], process_time() - clocks[1]
            rows.append((wall, cpu, self.clock.read()))
            tracer.op = f"{self.name}:{round_no}:{len(rows)}"
            clocks[:] = perf_counter(), process_time()

        tracer.op = f"{self.name}:{round_no}:0"
        with tracer.span("exec.run_sweep"):
            results = run_sweep(
                points, jobs=1, cache=self.store, progress=heartbeat
            )
        return [
            Op(
                kind=point.label,
                latency_s=wall,
                sim_cycles=result.total_cycles,
                payload=result.to_dict(),
                error=check_point_result(result, point),
                cpu_s=cpu,
                host_ref_s=ref,
            )
            for point, result, (wall, cpu, ref) in zip(points, results, rows)
        ]

    def trace_extras(self) -> Dict[str, float]:
        """Share of traced ops whose network ended on the kernel asked for."""
        asked = [(p.kernel, n.active_kernel) for p, n in self.networks
                 if p.kernel is not None]
        self.networks.clear()
        if not asked:
            return {}
        share = sum(want == got for want, got in asked) / len(asked)
        return {f"noc.requested_kernel_share.{self.name}": share}

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


def require_c_kernel(workload: str) -> float:
    """Build (or load) the compiled kernel; returns the seconds it took.

    Refuses to time a workload whose ``kernel="c"`` points would fall back
    to the soa kernel without saying so."""
    from repro.noc.ckernel import unavailable_reason

    started = perf_counter()
    reason = unavailable_reason()
    if reason is not None:
        raise SystemExit(
            f"perf: every op of {workload} fails: the compiled kernel is "
            f"unavailable ({reason})"
        )
    return perf_counter() - started


def transient_link_fault():
    """The ``repro.noc.bench`` faulty schedule (a link that dies and is
    repaired), moved earlier so it fits inside these shorter runs."""
    from repro.faults.schedule import FaultSchedule, FaultSpec

    return FaultSchedule(
        specs=(FaultSpec(kind="link", router=5, port=2, mode="transient",
                         at=50, repair_after=100),),
        seed=3,
    )


def sweep_c(toy: bool, tracer: Tracer) -> SweepWorkload:
    traffic = [
        ("bernoulli", 0.01), ("bernoulli", 0.02), ("self_similar", 0.03),
        ("bernoulli", 0.04), ("bernoulli", 0.05),
    ]
    kinds = [
        {"layout": layout, "mesh_size": 8, "injector": injector,
         "rate": rate, "kernel": "c"}
        for layout in ("baseline", "center+BL", "diagonal+BL")
        for injector, rate in traffic
    ]
    return SweepWorkload(
        tracer, "sweep_c", kinds, *((50, 200, 1) if toy else (300, 3000, 3))
    )


def sweep_event(toy: bool, tracer: Tracer) -> SweepWorkload:
    # Fig 10's torus rates are 0.01-0.03, but torus points wedge (they
    # never drain): about 1 in 50 for diagonal+BL at 0.03, 1 in 250 at
    # 0.02, 1 in 150 for the baseline at 0.03 -- roughly rate**4.  A
    # workload must not fail ops by design, so it stays at 0.01 and below;
    # perf/README.md records the finding.
    torus = [(layout, rate) for layout in ("baseline", "diagonal+BL")
             for rate in (0.005, 0.01)]
    kinds = [
        {"layout": layout, "mesh_size": 8, "topology": "torus", "rate": rate}
        for layout, rate in torus
    ]
    fault = transient_link_fault()
    kinds += [
        {"layout": layout, "mesh_size": size, "rate": rate, "faults": fault}
        for size, rate in ((4, 0.05), (8, 0.03))
        for layout in ("baseline", "diagonal+BL")
    ]
    return SweepWorkload(
        tracer, "sweep_event", kinds,
        *((20, 60, 1) if toy else (60, 300, 4)),
    )


# -- full system --------------------------------------------------------------
class CmpWorkload(Workload):
    """Figure 11/12 through public calls; an op is one full-system run."""

    name = "cmp_apps"
    APPS = ("SAP", "SPECjbb", "TPC-C", "SJAS", "frrt", "fsim", "vips",
            "canl", "ddup", "sclst")
    LAYOUTS = ("baseline", "diagonal+BL")

    def __init__(self, toy: bool, tracer: Tracer) -> None:
        super().__init__(tracer)
        self.apps = self.APPS[:2] if toy else self.APPS
        self.records = 10 if toy else 50
        self.rss_rounds = 1 if toy else 2

    def setup(self, work: Path) -> Dict[str, float]:
        self.run_op(("SAP", "baseline", 0), records=5)
        return {}

    def round_ops(self, seed: int, round_no: int) -> list:
        # Both layouts of an application replay the same traces, so the
        # pair gives the design's IPC gain on identical work.
        trace_seed = op_seed(seed, round_no, 0)
        return [
            (app, layout, trace_seed)
            for app in self.apps for layout in self.LAYOUTS
        ]

    def run_op(self, spec, records: Optional[int] = None) -> Op:
        from repro.cmp import CmpSystem
        from repro.core.layouts import layout_by_name
        from repro.traffic.workloads import WORKLOADS, generate_core_trace

        app, layout_name, seed = spec
        records = self.records if records is None else records
        tracer = self.tracer
        started, cpu_started = perf_counter(), process_time()
        error = None
        with tracer.span("cmp.op"):
            with tracer.span("core.layout"):
                layout = layout_by_name(layout_name)
            with tracer.span("traffic.tracegen"):
                profile = WORKLOADS[app]
                traces = {
                    core: generate_core_trace(profile, core, records, seed=seed)
                    for core in range(layout.mesh_size ** 2)
                }
            with tracer.span("cmp.build"):
                system = CmpSystem(layout, traces)
            tracer.wrap(system.network, "step", "noc.step", aggregate=True,
                        restore=False)
            with tracer.span("cmp.warm"):
                system.warm_caches()
            system.network.begin_measurement()
            with tracer.span("cmp.run"):
                try:
                    system.run(max_cycles=CMP_MAX_CYCLES)
                except RuntimeError as exc:
                    error = str(exc)
        latency, cpu = perf_counter() - started, process_time() - cpu_started
        ipc = system.mean_ipc()
        if error is None and not ipc > 0:
            error = f"mean IPC {ipc!r} is not positive"
        stats = system.network.stats
        return Op(
            kind=f"{app}/{layout_name}",
            latency_s=latency,
            sim_cycles=system.cycle,
            payload={
                "app": app, "layout": layout_name, "seed": seed,
                "cycles": system.cycle, "ipc": ipc,
                "instructions": sum(
                    core.instructions_retired for core in system.cores.values()
                ),
                "packets": stats.packets_delivered,
                "net_latency_cycles": stats.avg_latency_cycles,
            },
            error=error,
            cpu_s=cpu,
            host_ref_s=self.clock.read(),
        )

    def run_round(self, specs: list, round_no: int) -> List[Op]:
        ops = []
        for index, spec in enumerate(specs):
            self.tracer.op = f"{self.name}:{round_no}:{index}"
            ops.append(self.run_op(spec))
        return ops


# -- job server ---------------------------------------------------------------
class ServeWorkload(Workload):
    """One ``python -m repro.serve`` subprocess, one closed-loop client; an
    op is a job from submit to parsed results.  A round is a novel job
    (compute + store writes), its exact resubmission (job-level dedup) and
    a three-point subset under a new tag (replayed from store rows)."""

    name = "serve_mix"

    def __init__(self, toy: bool, tracer: Tracer) -> None:
        super().__init__(tracer)
        self.warmup, self.measure = (20, 60) if toy else (50, 300)
        self.rss_rounds = 1 if toy else 8
        self.server: Optional[subprocess.Popen] = None
        self.client = None
        self.log: Optional[Path] = None

    def setup(self, work: Path) -> Dict[str, float]:
        from repro.serve.client import ServeClient

        require_c_kernel(self.name)
        started = perf_counter()
        self.log = work / "serve.log"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log, "w") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.serve",
                 "--store", str(work / "serve.sqlite"),
                 "--port", "0", "--workers", "2"],
                env=env, stdout=log, stderr=log, cwd=str(work),
            )
        self.client = ServeClient(self._wait_for_url(), timeout=60.0)
        self.client.health()
        start_s = perf_counter() - started
        warm = self._points(0, 0, warmup=10, measure=20)[:1]
        self.client.run_sweep(warm, tag="warm-up")
        return {"serve.start_s": start_s}

    def _wait_for_url(self, timeout: float = 30.0) -> str:
        """``--port 0`` binds an ephemeral port; the server names it in its
        first stderr line."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.server.poll() is not None:
                break
            for line in self.log.read_text().splitlines():
                if "serving on http://" in line:
                    return line.split("serving on ")[1].split()[0]
            time.sleep(0.01)
        raise RuntimeError(
            f"job server did not start:\n{self.log.read_text()}"
        )

    def _points(self, seed: int, round_no: int, warmup=None, measure=None):
        from repro.exec import SweepPoint

        return [
            SweepPoint(
                layout=layout, mesh_size=4, rate=rate, kernel="c",
                seed=op_seed(seed, round_no, index),
                warmup_packets=self.warmup if warmup is None else warmup,
                measure_packets=self.measure if measure is None else measure,
                drain_cycle_cap=DRAIN_CYCLE_CAP,
            )
            for index, (layout, rate) in enumerate((
                ("baseline", 0.02), ("baseline", 0.05),
                ("diagonal+BL", 0.02), ("diagonal+BL", 0.05),
            ))
        ]

    def round_ops(self, seed: int, round_no: int) -> list:
        points = self._points(seed, round_no)
        tag = f"novel-{seed}-{round_no}"
        return [
            ("miss", points, tag),
            ("dedup", points, tag),
            ("replay", points[:3], f"replay-{seed}-{round_no}"),
        ]

    def install(self) -> None:
        tracer = self.tracer
        tracer.wrap(self.client, "submit", "serve.submit")
        tracer.wrap(self.client, "wait", "serve.wait")
        tracer.wrap(self.client, "job", "serve.poll", aggregate=True)
        tracer.wrap(self.client, "results", "serve.results")

    def run_round(self, specs: list, round_no: int) -> List[Op]:
        from repro.serve.client import ServeError

        tracer = self.tracer
        ops = []
        for index, (kind, points, tag) in enumerate(specs):
            tracer.op = f"{self.name}:{round_no}:{index}"
            started, cpu_started = perf_counter(), process_time()
            error = None
            results = []
            try:
                with tracer.span("serve.run_sweep"):
                    results = self.client.run_sweep(points, tag=tag)
            except (ServeError, TimeoutError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            latency, cpu = perf_counter() - started, process_time() - cpu_started
            for point, result in zip(points, results):
                error = error or check_point_result(result, point)
            ops.append(Op(
                kind=kind,
                latency_s=latency,
                sim_cycles=sum(r.total_cycles for r in results),
                payload=[r.to_dict() for r in results],
                error=error,
                points=points,
                cpu_s=cpu,
                host_ref_s=self.clock.read(),
            ))
        return ops

    def finalize(self, ops: List[Op]) -> None:
        """Served results must equal local execution byte for byte."""
        from repro.exec import execute_point

        local: Dict[str, str] = {}
        for op in ops:
            if op.error is not None:
                continue
            for point, served in zip(op.points, op.payload):
                key = point.key()
                if key not in local:
                    local[key] = json.dumps(
                        execute_point(point).to_dict(), sort_keys=True
                    )
                if json.dumps(served, sort_keys=True) != local[key]:
                    op.error = f"served result differs from local for {point.label}"
                    break

    def trace_extras(self) -> Dict[str, float]:
        """A bare HTTP round trip, and the server's own view of its jobs."""
        trips = []
        for _ in range(20):
            started = perf_counter()
            self.client.health()
            trips.append(perf_counter() - started)
        metrics = self.client.metrics()
        instruments = {
            row["name"]: row for row in metrics["instruments"]
            if not row["labels"]
        }
        derived = metrics["derived"]
        return {
            "serve.http_roundtrip_s": statistics.median(trips),
            "serve.server_job_s": instruments["serve.job_latency_s"]["mean"],
            "serve.job_dedup_rate": derived["job_dedup_rate"],
            "serve.point_cache_hit_rate": derived["point_cache_hit_rate"],
            "serve.worker_utilization": derived["worker_utilization"],
            "serve.http_errors": instruments["serve.http_errors"]["value"],
        }

    def server_peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in the server's /proc status")

    def close(self) -> None:
        """Always stop the server."""
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server = None


WORKLOADS = {
    "sweep_c": sweep_c,
    "sweep_event": sweep_event,
    "cmp_apps": CmpWorkload,
    "serve_mix": ServeWorkload,
}
