"""The per-layer run (``--trace 1``): where the time of each kind of op goes.

The timed run measures with tracing off; this separate run

* repeats a slice of the chosen workload twice on the same ops -- plain,
  then with spans on -- which gives the tracing overhead and, per layer
  (= package of ``src/repro``), the share of the workload's wall time;
* runs a short traced pass of each *other* workload, so every per-layer
  metric is measured in every traced run and reads the same way whichever
  workload was asked for: seconds of *self* time per op of that kind;
* probes what no op isolates: the bare kernel walks, the traffic
  generators, the process pool, store replay, an attached observer, the
  cold kernel build, and the c == event / serial == process == replay
  identities.

All spans come from this directory's code (see :mod:`perf.trace`).
"""

from __future__ import annotations

import dataclasses
import random
import statistics
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from perf import harness
from perf.clock import HostClock
from perf.trace import Tracer
from perf.workloads import WORKLOADS, Op, require_c_kernel

SWEEP_SPANS = (
    "exec.run_sweep", "exec.store.begin_sweep", "exec.store.get",
    "exec.store.put", "exec.store.mark_committed", "exec.execute_point",
    "noc.build", "traffic.run_synthetic", "noc.step", "noc.enqueue",
    "noc.summary", "core.power", "core.merge_report",
)
#: span names whose self time per op becomes ``<span>_s.<workload>``.
SPANS = {
    "sweep_c": SWEEP_SPANS,
    "sweep_event": SWEEP_SPANS,
    "cmp_apps": ("core.layout", "traffic.tracegen", "cmp.build", "cmp.warm",
                 "cmp.run", "noc.step"),
    "serve_mix": ("serve.submit", "serve.wait", "serve.poll", "serve.results"),
}
LAYERS = ("noc", "traffic", "core", "exec", "cmp", "serve")
#: rounds of the short traced pass the other workloads get.
SHORT_PASS = {"sweep_c": 1, "sweep_event": 1, "cmp_apps": 1, "serve_mix": 4}


@dataclasses.dataclass
class Pass:
    """One fresh instance of a workload, set up, run and closed."""

    name: str
    rounds: List[harness.Round]
    tracer: Tracer
    info: Dict[str, float]

    @property
    def ops(self) -> List[Op]:
        return [op for r in self.rounds for op in r.ops]

    @property
    def wall(self) -> float:
        return sum(r.wall_s for r in self.rounds)

    @property
    def calibrated(self) -> float:
        return sum(op.calibrated_s for op in self.ops)


def run_pass(name: str, toy: bool, work: Path, seed: int, traced: bool,
             seconds: float = 0.0, rounds: Optional[int] = None) -> Pass:
    tracer = Tracer(traced)
    workload = WORKLOADS[name](toy, tracer)
    directory = work / f"{name}-{'traced' if traced else 'plain'}"
    directory.mkdir()
    try:
        info = workload.setup(directory)
        if traced:
            workload.install()
        done = harness.run_rounds(workload, seed, seconds, rounds=rounds)
        if traced:
            info.update(workload.trace_extras())
        workload.finalize([op for r in done for op in r.ops])
    finally:
        tracer.unwrap_all()
        workload.close()
    return Pass(name, done, tracer, info)


# -- metrics read off a traced pass -------------------------------------------
def pass_metrics(done: Pass) -> Dict[str, float]:
    name, ops = done.name, done.ops
    times = done.tracer.self_times()
    # Span seconds go onto the calibrated clock with the pass's own ratio.
    clock = done.calibrated / sum(op.latency_s for op in ops)
    # A span that never opened is a KeyError: the boundary it wrapped moved.
    values = {
        f"{span}_s.{name}": clock * times[span]["self_s"] / len(ops)
        for span in SPANS[name]
    }
    if name != "serve_mix":
        step = times["noc.step"]
        cycles = sum(op.sim_cycles for op in ops)
        values[f"noc.step_calls.{name}"] = step["calls"] / len(ops)
        values[f"noc.step_us_per_cycle.{name}"] = (
            1e6 * clock * step["busy_s"] / cycles
        )
    if name in ("sweep_c", "sweep_event"):
        values[f"noc.enqueue_calls.{name}"] = (
            times["noc.enqueue"]["calls"] / len(ops)
        )
    if name == "sweep_c":
        power, latency = [], []
        for base, hetero in paired(ops, "baseline/", "diagonal+BL/"):
            power.append(1 - hetero["power_w"] / base["power_w"])
            latency.append(1 - hetero["latency_cycles"] / base["latency_cycles"])
        values["core.model.power_saving_pct"] = 100 * statistics.mean(power)
        values["core.model.latency_reduction_pct"] = (
            100 * statistics.mean(latency)
        )
    if name == "cmp_apps":
        gains = [
            hetero["ipc"] / base["ipc"] - 1
            for base, hetero in paired(ops, "/baseline", "/diagonal+BL")
        ]
        values["core.model.ipc_gain_pct"] = 100 * statistics.mean(gains)
        values["cmp.packets"] = (
            sum(op.payload["packets"] for op in ops) / len(ops)
        )
        values["cmp.sim_instr_per_s"] = (
            sum(op.payload["instructions"] for op in ops)
            / (clock * times["cmp.run"]["busy_s"])
        )
    if name == "serve_mix":
        for kind in ("miss", "dedup", "replay"):
            values[f"serve.{kind}_job_s"] = statistics.median(
                op.calibrated_s for op in ops if op.kind == kind
            )
        values["serve.wait_polls"] = times["serve.poll"]["calls"] / len(ops)
    values.update(done.info)
    return values


def paired(ops: List[Op], base_mark: str, hetero_mark: str):
    """(baseline payload, diagonal+BL payload) of ops alike in all else."""
    by_kind = {op.kind: op.payload for op in ops}
    for kind, payload in by_kind.items():
        if base_mark in kind:
            other = by_kind.get(kind.replace(base_mark, hetero_mark))
            if other is not None:
                yield payload, other


def layer_shares(done: Pass) -> Dict[str, float]:
    """Share of the program's time spent in each layer (self time); the
    harness's own spans (``perf.*``, the reference loop) are left out."""
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, entry in done.tracer.self_times().items():
        layer = span.split(".")[0]
        if layer in by_layer:
            by_layer[layer] += entry["self_s"]
    total = sum(by_layer.values())
    values = {f"share.{layer}": by_layer[layer] / total for layer in LAYERS}
    values["trace.unattributed_share"] = 1 - done.tracer.root_busy() / done.wall
    return values


# -- probes -------------------------------------------------------------------
def simulate(point, observed: bool = False):
    """``execute_point``'s simulation by hand, keeping the network."""
    from repro.noc.flit import reset_packet_ids
    from repro.obs.metrics import KernelMetrics
    from repro.traffic.patterns import pattern_by_name
    from repro.traffic.runner import run_synthetic

    reset_packet_ids()
    network = point.build_network()
    run_synthetic(
        network,
        pattern_by_name(point.pattern, network.topology),
        point.rate,
        warmup_packets=point.warmup_packets,
        measure_packets=point.measure_packets,
        seed=point.seed,
        injector=point.build_injector(network.topology.num_nodes),
        drain_cycle_cap=point.drain_cycle_cap,
        faults=point.faults,
        observer=KernelMetrics(network) if observed else None,
    )
    return network


def probe_walk(clock: HostClock, kernel: str, seed: int,
               packets_per_node: int) -> float:
    """Simulated cycles per second of the bare kernel: queues loaded up
    front through ``enqueue``, then stepped until empty, no injection."""
    from repro.core.layouts import build_network, layout_by_name
    from repro.noc.flit import reset_packet_ids

    reset_packet_ids()
    network = build_network(layout_by_name("baseline", 8))
    network.use_kernel(kernel)
    rng = random.Random(seed)
    nodes = network.topology.num_nodes
    for node in range(nodes):
        for _ in range(packets_per_node):
            other = rng.randrange(nodes - 1)
            network.enqueue(
                network.make_packet(node, other + (other >= node))
            )
    seconds = clock.seconds(network.drain)
    return network.cycle / seconds


def probe_generators(clock: HostClock, seed: int,
                     cycles: int) -> Dict[str, float]:
    """Packets per second of ``fires`` + ``destination`` + ``make_packet``."""
    from repro.core.layouts import build_network, layout_by_name
    from repro.traffic.patterns import pattern_by_name
    from repro.traffic.selfsimilar import BernoulliInjector, SelfSimilarInjector

    network = build_network(layout_by_name("baseline", 8))
    nodes = network.topology.num_nodes
    pattern = pattern_by_name("uniform_random", network.topology)
    values = {}
    for label, injector in (
        ("bernoulli", BernoulliInjector(0.05)),
        ("selfsimilar", SelfSimilarInjector(nodes, 0.05, seed=seed)),
    ):
        rng = random.Random(seed)
        made = []

        def generate() -> None:
            for _ in range(cycles):
                for node in range(nodes):
                    if injector.fires(node, rng):
                        made.append(network.make_packet(
                            node, pattern.destination(node, rng)
                        ))

        seconds = clock.seconds(generate)
        values[f"traffic.gen_{label}_packets_per_s"] = len(made) / seconds
    return values


def probe_engine(points: list, work: Path,
                 checks: List[str]) -> Dict[str, float]:
    """Serial into a store, the two-worker process pool, store replay.

    Raw wall time: the pool's workers are still exiting when it returns,
    so a reference reading taken then measures them, not the host."""
    from repro.exec import ResultStore, run_sweep

    def timed(**kwargs):
        started = perf_counter()
        results = run_sweep(points, progress=None, **kwargs)
        return results, perf_counter() - started

    path = work / "probe.sqlite"
    with ResultStore(path) as store:
        serial, serial_s = timed(jobs=1, cache=store)
        pooled, pool_s = timed(jobs=2, backend="process", cache=None)
        replay, replay_s = timed(jobs=1, cache=store)
        rows = len(store)
    stored = sum(
        Path(f"{path}{suffix}").stat().st_size
        for suffix in ("", "-wal") if Path(f"{path}{suffix}").exists()
    )
    payloads = [[r.to_dict() for r in results]
                for results in (serial, pooled, replay)]
    if not (payloads[0] == payloads[1] == payloads[2]):
        checks.append("serial, process and store-replay results differ")
    if not all(r.from_cache for r in replay):
        checks.append("replay recomputed points the store held")
    return {
        "exec.engine.pool_points_per_s": len(points) / pool_s,
        "exec.engine.pool_efficiency": serial_s / (2 * pool_s),
        "exec.store.replay_points_per_s": len(points) / replay_s,
        "exec.store.bytes_per_point": stored / rows,
    }


def probe_kernels(c_points: list, event_points: list,
                  checks: List[str]) -> Dict[str, float]:
    """c == event on sampled points; and which kernel a ``kernel="c"``
    request really ends on for the points ``sweep_event`` runs."""
    from repro.exec import execute_point

    mismatches = 0
    for point in c_points:
        fast = execute_point(point).to_dict()
        slow = execute_point(
            dataclasses.replace(point, kernel="event")
        ).to_dict()
        fast.pop("key"), slow.pop("key")
        mismatches += fast != slow
    if mismatches:
        checks.append(f"c and event kernels differ on {mismatches} points")
    on_c = [
        simulate(dataclasses.replace(point, kernel="c")).active_kernel == "c"
        for point in event_points
    ]
    return {
        "noc.c_vs_event_mismatches": mismatches,
        "noc.requested_kernel_share.sweep_event": sum(on_c) / len(on_c),
    }


def probe_observer(clock: HostClock, point) -> float:
    """Wall time of one point with a ``KernelMetrics`` observer attached,
    over the same point without."""
    plain = clock.seconds(lambda: simulate(point))
    return clock.seconds(lambda: simulate(point, observed=True)) / plain


def run_probes(seed: int, toy: bool, work: Path,
               checks: List[str]) -> Dict[str, float]:
    untraced = Tracer(enabled=False)
    # Points of the two sweep workloads, from rounds no pass has run.
    sweep_c = WORKLOADS["sweep_c"](toy, untraced)
    clock = sweep_c.clock
    c_points = sweep_c.round_ops(seed, 900) + sweep_c.round_ops(seed, 901)
    event_points = WORKLOADS["sweep_event"](toy, untraced).round_ops(seed, 900)
    packets_per_node = 4 if toy else 30
    values = {
        "noc.walk_c_cycles_per_s":
            probe_walk(clock, "c", seed, packets_per_node),
        "noc.walk_event_cycles_per_s":
            probe_walk(clock, "event", seed, packets_per_node),
        "obs.attach_slowdown": probe_observer(clock, c_points[4]),
    }
    values.update(probe_generators(clock, seed, 100 if toy else 2000))
    values.update(probe_engine(c_points[:6 if toy else 24], work, checks))
    # One torus point and one faulty point stand for what sweep_event runs.
    values.update(probe_kernels(
        c_points[0:15:7], [event_points[0], event_points[5]], checks
    ))
    return values


# -- the run ------------------------------------------------------------------
def traced_run(name: str, seed: int, seconds: float, toy: bool, work: Path,
               out: Optional[str]) -> int:
    checks: List[str] = []
    values = {"noc.ckernel.build_s": require_c_kernel("the traced run")}

    plain = run_pass(name, toy, work, seed, traced=False, seconds=seconds / 4)
    traced = run_pass(name, toy, work, seed, traced=True,
                      rounds=len(plain.rounds))
    if harness.digest(plain.ops) != harness.digest(traced.ops):
        checks.append("traced ops gave other results than untraced ops")
    values["trace.overhead_share"] = traced.calibrated / plain.calibrated - 1
    values.update(layer_shares(traced))

    passes = {name: traced}
    for other in WORKLOADS:
        if other != name:
            passes[other] = run_pass(other, toy, work, seed, traced=True,
                                     rounds=SHORT_PASS[other])
    for done in passes.values():
        values.update(pass_metrics(done))

    values.update(run_probes(seed, toy, work, checks))

    harness.OUT.mkdir(exist_ok=True)
    traced.tracer.dump(harness.OUT / f"trace-{name}.json")
    ops = plain.ops + [op for done in passes.values() for op in done.ops]
    detail = harness.describe(name, seed, 1, len(traced.rounds), ops)
    detail.update(checks_failed=checks, spans=len(traced.tracer.spans))
    harness.emit(detail, values, "per_layer", out)
    return 0
