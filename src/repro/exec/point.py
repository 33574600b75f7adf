"""Self-contained sweep-point specifications and their results.

A :class:`SweepPoint` captures *everything* one load-latency sample needs
-- network construction (layout or raw topology), traffic pattern,
injection process, offered rate, seed and measurement knobs -- as a
frozen, picklable value object.  Because the spec is self-contained, a
point can execute anywhere: in-process, in a worker of a
:class:`concurrent.futures.ProcessPoolExecutor`, or not at all when the
:class:`repro.exec.store.ResultStore` already holds its result.

Determinism contract: a run owns all of its state (the network it builds
issues the packet ids), so the same spec produces the same
:class:`PointResult` -- bit for bit, packet ids included -- regardless of
what else the process simulated before or is simulating on another thread,
and therefore regardless of the backend the engine used.  The golden-run
and determinism tests pin this.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

#: bump when the spec schema or simulator semantics change in a way that
#: invalidates previously cached results.
SPEC_VERSION = 1

_TOPOLOGIES = ("mesh", "torus", "cmesh", "fbfly")
_INJECTORS = ("bernoulli", "self_similar")


@dataclass(frozen=True)
class SweepPoint:
    """One independent sample of a load-latency sweep.

    Network selection (three mutually exclusive shapes):

    * ``layout`` -- a named paper configuration
      (:func:`repro.core.layouts.layout_by_name`) on a ``mesh`` or
      ``torus`` topology;
    * ``big_positions`` (with ``layout=None``) -- a custom heterogeneous
      placement (:func:`repro.core.layouts.custom_layout`);
    * ``topology`` in ``{"cmesh", "fbfly"}`` -- a homogeneous
      generic-router network on a concentrated topology (the Figure 2
      study), ignoring the layout machinery entirely.
    """

    layout: Optional[str] = "baseline"
    big_positions: Optional[Tuple[int, ...]] = None
    redistribute_links: bool = True
    mesh_size: int = 8
    topology: str = "mesh"
    concentration: int = 4
    flit_mode: str = "paper"
    flit_merging: Optional[bool] = None
    pattern: str = "uniform_random"
    injector: str = "bernoulli"
    rate: float = 0.05
    seed: int = 1
    warmup_packets: int = 200
    measure_packets: int = 2000
    drain_cycle_cap: int = 400_000
    #: optional :class:`repro.faults.schedule.FaultSchedule` (or its
    #: dict form); ``None`` -- the default -- is omitted from the spec
    #: serialization entirely, so fault-free specs hash exactly as they
    #: did before the fault subsystem existed (golden-run stability).
    faults: Optional[object] = None
    #: cycle-kernel override (``"event"`` or ``"c"``, the compiled
    #: kernel);
    #: ``None`` -- the default -- leaves the network's own selection
    #: (config / ``REPRO_KERNEL``) in force and is omitted from the spec
    #: serialization, so kernel-free specs hash exactly as before.  All
    #: kernels are bit-identical, so the override changes wall-clock
    #: only -- the golden suite pins this.
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.topology not in _TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {_TOPOLOGIES}, got {self.topology!r}"
            )
        if self.injector not in _INJECTORS:
            raise ValueError(
                f"injector must be one of {_INJECTORS}, got {self.injector!r}"
            )
        if self.layout is not None and self.big_positions is not None:
            raise ValueError("give either a named layout or big_positions, not both")
        if self.topology in ("cmesh", "fbfly") and (
            self.big_positions is not None or self.layout not in (None, "baseline")
        ):
            raise ValueError(
                f"{self.topology} networks are homogeneous; layouts do not apply"
            )
        if self.big_positions is not None:
            positions = tuple(self.big_positions)
            non_int = [
                p for p in positions
                if not isinstance(p, int) or isinstance(p, bool)
            ]
            if non_int:
                raise ValueError(
                    f"big_positions must be plain ints, got {non_int!r}"
                )
            if len(set(positions)) != len(positions):
                raise ValueError(
                    f"duplicate big_positions: {sorted(positions)}"
                )
            bad = [p for p in positions if not 0 <= p < self.mesh_size**2]
            if bad:
                raise ValueError(
                    f"big_positions outside the {self.mesh_size}x"
                    f"{self.mesh_size} mesh: {sorted(bad)}"
                )
            # Canonical order so that equal placements hash equally.
            object.__setattr__(self, "big_positions", tuple(sorted(positions)))
        if self.kernel is not None:
            from repro.noc.config import NetworkConfig

            NetworkConfig.check_kernel(self.kernel)
        if self.faults is not None:
            from repro.faults.schedule import FaultSchedule

            if isinstance(self.faults, dict):
                object.__setattr__(
                    self, "faults", FaultSchedule.from_dict(self.faults)
                )
            elif not isinstance(self.faults, FaultSchedule):
                raise TypeError(
                    "faults must be a FaultSchedule (or its dict form), "
                    f"got {type(self.faults).__name__}"
                )

    # -- identity -------------------------------------------------------------
    def spec_dict(self) -> Dict[str, object]:
        """The spec as a plain JSON-able dict (canonical field order).

        The ``faults`` key appears only when a schedule is set: absent
        and ``None`` must serialize identically or every pre-existing
        cache entry and golden payload would be invalidated.
        """
        spec = {f.name: getattr(self, f.name) for f in fields(self)}
        if spec["big_positions"] is not None:
            spec["big_positions"] = list(spec["big_positions"])
        if spec["faults"] is None:
            del spec["faults"]
        else:
            spec["faults"] = self.faults.to_dict()
        if spec["kernel"] is None:
            del spec["kernel"]
        return spec

    def key(self) -> str:
        """Content hash identifying this spec (stable across processes).

        Any field change -- rate, seed, measurement scale, placement --
        yields a different key; the result store uses it as the row key.
        """
        payload = {"version": SPEC_VERSION, "spec": self.spec_dict()}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        name = self.layout if self.layout is not None else (
            f"custom[{len(self.big_positions or ())}]"
        )
        if self.topology != "mesh":
            name = f"{name}@{self.topology}"
        return f"{name}/{self.pattern}@{self.rate:g}"

    # -- construction ---------------------------------------------------------
    def build_network(self):
        """Instantiate a fresh simulator network for this spec."""
        # Imports stay local so that a SweepPoint pickles cheaply and the
        # worker side pays the import cost once per process.
        from repro.noc.topology import (
            ConcentratedMesh,
            FlattenedButterfly,
            Mesh,
            Torus,
        )

        if self.topology in ("cmesh", "fbfly"):
            from repro.noc.config import RouterConfig
            from repro.noc.network import Network

            topo_cls = ConcentratedMesh if self.topology == "cmesh" else FlattenedButterfly
            topo = topo_cls(self.mesh_size, concentration=self.concentration)
            configs = {rid: RouterConfig() for rid in range(topo.num_routers)}
            return self._apply_kernel(Network(topo, configs))

        from repro.core.layouts import build_network, custom_layout, layout_by_name

        if self.layout is not None:
            layout = layout_by_name(self.layout, self.mesh_size)
        else:
            layout = custom_layout(
                f"custom-{len(self.big_positions)}",
                set(self.big_positions),
                mesh_size=self.mesh_size,
                redistribute_links=self.redistribute_links,
            )
        topology = (Torus if self.topology == "torus" else Mesh)(self.mesh_size)
        overrides = {}
        if self.flit_merging is not None:
            overrides["flit_merging"] = self.flit_merging
        return self._apply_kernel(build_network(
            layout, topology=topology, flit_mode=self.flit_mode, **overrides
        ))

    def _apply_kernel(self, network):
        if self.kernel is not None:
            network.use_kernel(self.kernel)
        return network

    def build_injector(self, num_nodes: int):
        """The injection process, or ``None`` for the Bernoulli default."""
        if self.injector == "self_similar":
            from repro.traffic.selfsimilar import SelfSimilarInjector

            return SelfSimilarInjector(num_nodes, self.rate, seed=self.seed)
        return None

    def run(self, network, **options):
        """Run this spec on ``network`` (made by :meth:`build_network`)
        through :func:`~repro.traffic.runner.run_synthetic`, which takes
        ``options`` (``profiler=``, ``sampler=``, checkpointing, ...).
        :func:`execute_point` runs every point this way, so a point run
        by hand with instruments is the run whose numbers it reports."""
        from repro.traffic.patterns import pattern_by_name
        from repro.traffic.runner import run_synthetic

        return run_synthetic(
            network,
            pattern_by_name(self.pattern, network.topology),
            self.rate,
            warmup_packets=self.warmup_packets,
            measure_packets=self.measure_packets,
            seed=self.seed,
            injector=self.build_injector(network.topology.num_nodes),
            drain_cycle_cap=self.drain_cycle_cap,
            faults=self.faults,
            **options,
        )


@dataclass
class PointResult:
    """Everything a harness needs from one executed point.

    Deliberately *not* the live :class:`~repro.noc.network.Network` or
    :class:`~repro.noc.stats.NetworkStats`: results must cross process
    boundaries and round-trip through JSON store rows, so only plain
    scalars and lists appear here.  The integer checksums
    (``latency_sum_cycles``, ``hops_sum``, ``packet_id_sum``) exist for
    exact golden-run comparisons where float formatting would be lossy.
    """

    key: str
    label: str
    rate: float
    seed: int
    frequency_ghz: float
    latency_cycles: float
    latency_ns: float
    queuing_cycles: float
    blocking_cycles: float
    transfer_cycles: float
    avg_hops: float
    p95_latency_cycles: float
    p99_latency_cycles: float
    latency_sum_cycles: int
    hops_sum: int
    packet_id_sum: int
    throughput: float
    measured_packets: int
    total_cycles: int
    saturated: bool
    unfinished_measured_packets: int
    power_w: float
    power_breakdown: Dict[str, float]
    merge_fraction: float
    buffer_utilization: List[float]
    link_utilization: List[float]
    #: NI/fault-layer counters (``None`` for fault-free points, and then
    #: omitted from serialization so pre-fault cache entries and golden
    #: payloads stay byte-identical).
    resilience: Optional[Dict[str, int]] = None
    #: measured packets the NI declared lost (retries exhausted).
    lost_measured_packets: int = 0
    #: error string when the engine captured a failed execution instead
    #: of aborting the sweep; failed results are never cached.
    error: Optional[str] = None
    #: set by the engine when this result came from the result store rather
    #: than a simulation; never serialized.
    from_cache: bool = field(default=False, compare=False)

    #: fields tolerated absent in (and pruned from) serialized payloads,
    #: for compatibility with results written before they existed.
    _OPTIONAL_FIELDS = frozenset({"resilience", "lost_measured_packets", "error"})

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload.pop("from_cache")
        if payload["resilience"] is None:
            payload.pop("resilience")
        if payload["lost_measured_packets"] == 0:
            payload.pop("lost_measured_packets")
        if payload["error"] is None:
            payload.pop("error")
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PointResult":
        expected = {f.name for f in fields(cls)} - {"from_cache"}
        provided = set(payload)
        if provided - expected or (expected - provided) - cls._OPTIONAL_FIELDS:
            raise ValueError(
                f"result payload fields {sorted(provided)} do not match "
                f"{sorted(expected)}"
            )
        return cls(**payload)


def checkpoint_path_for(point: SweepPoint, checkpoint_dir) -> "pathlib.Path":
    """Where a point's auto-checkpoint lives (content-keyed, like the cache)."""
    import pathlib

    return pathlib.Path(checkpoint_dir) / f"{point.key()}.ckpt"


def execute_point(
    point: SweepPoint,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
) -> PointResult:
    """Run one sweep point and summarize it.

    This is the unit of work the engine ships to pool workers, so it must
    stay a module-level (picklable) function, and re-entrant: the job
    server calls it from several threads of one process at once.

    With ``checkpoint_every`` and ``checkpoint_dir`` set, the run
    auto-checkpoints every N cycles to ``<dir>/<spec-key>.ckpt`` and, if
    such a checkpoint already exists (a previous attempt was killed
    mid-run), *resumes* from it instead of restarting at cycle 0 -- with
    a result bit-identical to an uninterrupted run.  A corrupt, truncated
    or incompatible checkpoint is discarded and the point restarts from
    scratch; the checkpoint is removed once the point completes.  Giving
    only one of the two is a :class:`ValueError`.
    """
    from repro.core.merging import merge_report
    from repro.core.power import network_power_breakdown
    from repro.noc.snapshot import SnapshotError
    from repro.traffic.runner import load_checkpoint

    spec = dict(
        rate=point.rate,
        seed=point.seed,
        warmup_packets=point.warmup_packets,
        measure_packets=point.measure_packets,
    )
    if (checkpoint_every is None) != (checkpoint_dir is None):
        raise ValueError(
            "checkpoint_every and checkpoint_dir go together: give both "
            "or neither"
        )
    checkpoint_path = None
    checkpoint = None
    if checkpoint_every is not None:
        checkpoint_path = checkpoint_path_for(point, checkpoint_dir)
        checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            checkpoint = load_checkpoint(checkpoint_path, **spec)
        except (SnapshotError, OSError):
            # No checkpoint, a damaged one, one of another format or of
            # another run: compute from cycle 0, never crash.
            pass

    # The summary below reads run-time counts from the result's stats and
    # only static configuration from this network, so a resumed run (which
    # carries on with the checkpoint's own network) needs no other.
    network = point.build_network()
    result = point.run(
        network,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume_from=checkpoint,
    )
    if checkpoint_path is not None:
        # The point is done: drop its checkpoint, and the temp files of
        # writers that were killed between ``open`` and ``os.replace``.
        stale = checkpoint_path.parent.glob(f"{checkpoint_path.name}.*.tmp")
        for leftover in (checkpoint_path, *stale):
            try:
                leftover.unlink()
            except OSError:
                pass
    stats = result.stats
    power = network_power_breakdown(network, stats)
    summary = stats.summary(network.config.frequency_ghz)
    records = stats.records
    num_ports = network.topology.num_ports
    return PointResult(
        key=point.key(),
        label=point.label,
        rate=point.rate,
        seed=point.seed,
        frequency_ghz=network.config.frequency_ghz,
        latency_cycles=summary["avg_latency_cycles"],
        latency_ns=summary["avg_latency_ns"],
        queuing_cycles=summary["avg_queuing_cycles"],
        blocking_cycles=summary["avg_blocking_cycles"],
        transfer_cycles=summary["avg_transfer_cycles"],
        avg_hops=summary["avg_hops"],
        p95_latency_cycles=summary["p95_latency_cycles"],
        p99_latency_cycles=summary["p99_latency_cycles"],
        latency_sum_cycles=sum(records.total),
        hops_sum=sum(records.hops),
        packet_id_sum=sum(records.packet_id),
        throughput=summary["throughput_packets_per_node_cycle"],
        measured_packets=len(records),
        total_cycles=result.total_cycles,
        saturated=result.saturated,
        unfinished_measured_packets=result.unfinished_measured_packets,
        power_w=power["total"],
        power_breakdown={k: float(v) for k, v in power.items()},
        merge_fraction=merge_report(network, stats).merge_fraction,
        buffer_utilization=[
            stats.buffer_utilization(rid) for rid in range(network.topology.num_routers)
        ],
        link_utilization=[
            stats.router_link_utilization(rid, num_ports(rid))
            for rid in range(network.topology.num_routers)
        ],
        resilience=dict(result.resilience) if point.faults is not None else None,
        lost_measured_packets=result.lost_measured_packets,
    )
