"""Open-loop synthetic-traffic experiment driver.

Mirrors the paper's methodology (Section 4): warm the network up with
unmeasured packets, then measure a window of packets, then keep the offered
load flowing while the measured packets drain.  Latency statistics cover
exactly the measured packets; throughput (accepted traffic) covers every
delivery inside the measurement window.

The paper warms up with 1,000 packets and measures 100,000; a pure-Python
cycle simulator makes that expensive, so the defaults here are smaller and
every experiment harness exposes the knobs.

Observability (see :mod:`repro.obs`): pass ``observer=`` to attach event
hooks for the duration of the run, ``profiler=`` to record the run's wall
clock, cycles/second and warmup / measure / drain split, ``sampler=`` to
cut the measurement window into time-series windows, and ``progress=``
to receive periodic :class:`~repro.obs.profiler.Progress` heartbeats with
ETA estimates.  The driver owns the measurement window: it opens and
closes it, switches the profiler's phases there and cuts the sampler's
windows, on the per-cycle loop and the span driver alike.  The kernels
only count; every window is the difference of two counter snapshots
(:meth:`Network.counters() <repro.noc.network.Network.counters>`), and
the driver finds its place in one from the cycle.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.noc.ckernel import Span, SpanSource
from repro.noc.network import Network
from repro.noc.snapshot import (
    SnapshotError,
    capture,
    load_snapshot,
    save_snapshot,
)
from repro.noc.stats import NetworkStats
from repro.obs.profiler import Progress, RunProfiler
from repro.obs.sampler import TimeSeriesSampler
from repro.traffic import patterns, selfsimilar
from repro.traffic.patterns import TrafficPattern
from repro.traffic.selfsimilar import BernoulliInjector

#: span length when no checkpoint, heartbeat or deadline bounds it; the
#: packet budget or the drain's own stop condition ends the span long
#: before.
_UNBOUNDED_SPAN = 1 << 40


class DrainAccountingError(RuntimeError):
    """A measured packet fell through the accounting at end of run.

    Every measured packet must finish as a latency record, an explicit
    loss, or (saturated runs only) a reported unfinished in-flight
    packet; anything else means the driver silently truncated its
    sample."""


@dataclass
class SyntheticRunResult:
    """Outcome of one synthetic-traffic run."""

    stats: NetworkStats
    offered_rate: float
    warmup_packets: int
    measured_packets: int
    total_cycles: int
    saturated: bool
    #: measured packets still in flight when the drain hit its cycle cap
    #: (0 unless ``saturated``); their rows are missing from the latency
    #: sample, so the recorded population is survivorship-biased.
    unfinished_measured_packets: int = 0
    #: measured packets declared lost by the NI recovery layer (only
    #: possible under a fault schedule with bounded retries).
    lost_measured_packets: int = 0
    #: NI/fault-layer counters for the run (empty for fault-free runs):
    #: retransmissions, deliveries, losses, fault events.
    resilience: Dict[str, int] = field(default_factory=dict)
    #: simulated cycles by what drove them: ``c_span`` (whole spans inside
    #: the compiled kernel, traffic source included), ``c`` (compiled
    #: kernel, one cycle per call), ``event``.  Sums to
    #: ``total_cycles`` for a run that started at cycle 0; a run that can
    #: use spans at all splits into ``c_span`` and the ``c`` cycles that
    #: create the last packets of the target.
    kernel_cycles: Dict[str, int] = field(default_factory=dict)
    #: why no cycle of the run was driven as a span (the first reason
    #: found); ``None`` when spans were used.
    span_fallback: Optional[str] = None

    @property
    def avg_latency_cycles(self) -> float:
        return self.stats.avg_latency_cycles

    def avg_latency_ns(self, frequency_ghz: float) -> float:
        return self.stats.avg_latency_ns(frequency_ghz)

    @property
    def throughput_packets_per_node_cycle(self) -> float:
        return self.stats.accepted_packets_per_node_per_cycle


def _no_cycles() -> Dict[str, int]:
    return dict.fromkeys(("c_span", "c", "event"), 0)


@dataclass
class RunState:
    """What :func:`run_synthetic` carries from one cycle to the next.

    The load and drain loops read and write these fields in place, so a
    checkpoint is this object pickled whole -- one payload, shared
    references (the NI holds the network, ``network.on_delivery`` points
    back at the NI) intact -- and a resume is the loops continuing from
    the fields they find.  A local that a resumed run needs becomes a
    field here and costs no protocol.  The traffic pattern is not here:
    patterns are stateless and come from the caller on resume too.
    """

    #: rate / seed / warmup_packets / measure_packets; a resume under any
    #: other values is refused.
    spec: Dict[str, object]
    network: Network
    rng: random.Random
    injector: object
    #: NI retransmission layer and its timeout (fault-schedule runs only).
    ni: Optional[object] = None
    retransmit_timeout: Optional[int] = None
    #: the :class:`~repro.faults.watchdog.Watchdog` the loops sample, if
    #: the run is armed (a resumed run stays armed).
    watchdog: Optional[object] = None
    #: packets created so far, i.e. the creation index of the next one.
    created: int = 0
    kernel_cycles: Dict[str, int] = field(default_factory=_no_cycles)
    #: cycle the next checkpoint falls due; ``None`` when not checkpointing.
    next_checkpoint: Optional[int] = None
    #: cycle the drain gives up at; ``None`` until the drain starts.
    drain_deadline: Optional[int] = None


def load_checkpoint(
    source, rate: float, seed: int, warmup_packets: int, measure_packets: int
) -> RunState:
    """The :class:`RunState` in ``source`` (a path, or an already loaded
    checkpoint), checked to belong to the run these knobs describe.

    Raises :class:`~repro.noc.snapshot.SnapshotError` for a damaged file,
    for a payload that is not a run state, and for another run's state;
    ``OSError`` for an unreadable path.
    """
    run = source if isinstance(source, RunState) else load_snapshot(source)
    if not isinstance(run, RunState):
        raise SnapshotError(
            f"snapshot holds a {type(run).__name__}, not a run_synthetic "
            "checkpoint"
        )
    spec = dict(
        rate=rate,
        seed=seed,
        warmup_packets=warmup_packets,
        measure_packets=measure_packets,
    )
    if run.spec != spec:
        raise SnapshotError(
            f"snapshot spec {run.spec} does not match this run's {spec}; "
            "refusing to splice different runs"
        )
    return run


def _offer_load(
    network: Network,
    pattern: TrafficPattern,
    injector,
    rng: random.Random,
    budget: Optional[int] = None,
    on_create: Optional[Callable[..., None]] = None,
    send: Optional[Callable[..., None]] = None,
) -> int:
    """Offer one cycle of load at every node; returns packets created.

    The single injection path shared by the warmup/measure loop and the
    drain loop (and by future injectors): for each node, ask the injection
    process whether it fires, then draw a destination and enqueue the
    packet.  The call order against ``rng`` -- ``fires`` first, destination
    second, and no destination drawn once ``budget`` is exhausted -- is
    load-bearing: it pins the packet stream for a given seed, which the
    golden-run tests assert.

    ``on_create`` (if given) sees each packet after construction and
    before it is enqueued, so it may mark it measured.  ``send``
    replaces ``network.enqueue`` as the delivery path (the NI
    retransmission layer plugs in here under a fault schedule).
    """
    created = 0
    enqueue = send if send is not None else network.enqueue
    for node in range(network.topology.num_nodes):
        if not injector.fires(node, rng):
            continue
        if budget is not None and created >= budget:
            break
        packet = network.make_packet(node, pattern.destination(node, rng))
        if on_create is not None:
            on_create(packet)
        enqueue(packet)
        created += 1
    return created


def _span_source(
    network: Network, pattern, injector, rng: random.Random, ni
):
    """``(source, None)`` when the compiled span driver can carry this
    run's load and drain loops, else ``(None, why not)``."""
    if ni is not None:
        return None, "traffic flows through the NI retransmission layer"
    blocker = network.span_blocker()
    if blocker is not None:
        return None, blocker
    num_nodes = network.topology.num_nodes
    pattern_twin = patterns.span_twin(pattern)
    if pattern_twin is None or pattern.num_nodes != num_nodes:
        return None, f"no compiled twin of pattern {type(pattern).__name__}"
    injector_twin = selfsimilar.span_twin(injector, num_nodes)
    if injector_twin is None:
        return None, f"no compiled twin of injector {type(injector).__name__}"
    return SpanSource(pattern_twin, injector_twin, rng), None


def run_synthetic(
    network: Network,
    pattern: TrafficPattern,
    rate: float,
    warmup_packets: int = 200,
    measure_packets: int = 2000,
    seed: int = 1,
    injector=None,
    drain_cycle_cap: int = 400_000,
    observer=None,
    profiler: Optional[RunProfiler] = None,
    sampler: Optional[TimeSeriesSampler] = None,
    progress: Optional[Callable[[Progress], None]] = None,
    progress_every: int = 2000,
    faults=None,
    watchdog="auto",
    checkpoint_every: Optional[int] = None,
    checkpoint_path=None,
    resume_from=None,
) -> SyntheticRunResult:
    """Drive ``network`` with an open-loop synthetic load.

    Args:
        network: a freshly built (or reset) network.
        pattern: spatial traffic pattern choosing destinations.
        rate: offered load in packets/node/cycle.
        warmup_packets: packets injected before measurement starts.
        measure_packets: packets whose latency is recorded.
        seed: RNG seed (destinations and injection coin flips).
        injector: optional injection process with a
            ``fires(node, rng) -> bool`` method; defaults to Bernoulli at
            ``rate``.
        drain_cycle_cap: safety bound on post-measurement drain cycles.
        observer: optional :class:`repro.obs.hooks.Observer` attached to
            the network for the duration of the run (left attached after).
        profiler: optional :class:`repro.obs.profiler.RunProfiler`;
            records the run's wall clock, simulated cycles and
            warmup/measure/drain split.
        sampler: optional :class:`repro.obs.sampler.TimeSeriesSampler`
            of ``network``; the run starts its first window as the
            measurement window opens, closes one every ``sampler.window``
            measured cycles and the last, partial one as the measurement
            window closes.  Neither it nor the profiler touches the
            network, so neither moves a ``"c"`` run off its spans.
        progress: optional callback receiving a
            :class:`~repro.obs.profiler.Progress` heartbeat every
            ``progress_every`` cycles.
        progress_every: heartbeat period in simulated cycles.
        faults: optional :class:`repro.faults.schedule.FaultSchedule`.
            When given, the run wires up the whole resilience stack:
            fault injector, fault-aware rerouting, and the NI
            end-to-end retransmission layer (all traffic then flows
            through the NI, and measured packets that exhaust their
            retries are *explicitly* counted lost, never dropped).
        watchdog: ``"auto"`` (default) arms a deadlock/livelock
            :class:`repro.faults.watchdog.Watchdog` when a fault
            schedule is active or ``REPRO_CHECK=1`` is set in the
            environment (which also enables the invariant checks); pass
            a :class:`~repro.faults.watchdog.Watchdog` to force one, or
            ``None`` to disable.  The loops sample it after every cycle
            that is a multiple of its ``check_interval``, ending a span
            there, so an armed ``"c"`` run keeps its spans.
        checkpoint_every: take a full simulation checkpoint (see
            :mod:`repro.noc.snapshot`) every N simulated cycles;
            requires ``checkpoint_path``.  Checkpointing never perturbs
            the run -- a checkpointed run is bit-identical to an
            uncheckpointed one (pinned by ``tests/test_snapshot.py``).
        checkpoint_path: where the (single, atomically overwritten)
            checkpoint file lives.
        resume_from: a checkpoint of this runner -- a path, or the
            :class:`RunState` :func:`load_checkpoint` returned.  The
            restored network/RNG/injector/NI state *replaces* the
            corresponding arguments and the run continues from the
            captured cycle, producing a result bit-identical to an
            uninterrupted run.  The checkpoint must have been taken with
            the same rate/seed/measurement knobs (``SnapshotError``
            otherwise); ``pattern`` still comes from the caller.

    Checkpointing and observers/profilers/samplers are mutually exclusive
    (a snapshot cannot carry live file handles).

    When the compiled kernel drives the network and nothing needs Python
    per cycle, packet or delivery (no NI, observer or ``on_delivery``;
    built-in pattern and injector classes), the load and drain loops
    advance in *spans*: ``network.step(Span(...))`` runs whole cycles
    inside the kernel, injection included, and comes back for
    checkpoints, heartbeats, sampler windows and watchdog samples, at the
    end of a phase and before the body of the cycle that births the
    first measured packet -- the span calls the driver's window opening
    there, as the per-cycle loop does while that packet is made, and
    carries on with that cycle's body.  A span ends before a cycle that
    could overshoot the packet target (every node firing), so the last packets
    of the target, fewer than there are nodes, are born through
    :func:`_offer_load`; the drain is spans again.  Results are
    bit-identical either way; ``kernel_cycles`` / ``span_fallback`` on
    the result say which way a run went and why.

    Returns a :class:`SyntheticRunResult`; ``saturated`` is set when the
    drain phase hit its cycle cap, meaning the offered load exceeded the
    network's capacity (latency numbers are then unbounded-queue artefacts
    and only throughput is meaningful).  In that case
    ``unfinished_measured_packets`` counts the measured packets whose
    records are missing, rather than silently truncating the sample.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_path is None:
            raise ValueError("checkpoint_every needs a checkpoint_path")
    if (checkpoint_every is not None or resume_from is not None) and (
        observer is not None or profiler is not None or sampler is not None
    ):
        raise ValueError(
            "checkpointing does not support observers, profilers or "
            "samplers (snapshots cannot carry live file handles)"
        )
    target = warmup_packets + measure_packets
    started_at = time.perf_counter()
    spec = dict(
        rate=rate,
        seed=seed,
        warmup_packets=warmup_packets,
        measure_packets=measure_packets,
    )

    if resume_from is not None:
        # The restored network, RNG, injector, NI (wired to each other as
        # they were: one pickle) and counters replace the arguments.
        run = load_checkpoint(resume_from, **spec)
        network = run.network
    else:
        run = RunState(
            spec=spec,
            network=network,
            rng=random.Random(seed),
            injector=injector or BernoulliInjector(rate),
        )
        if observer is not None:
            network.attach_observer(observer)
        if faults is not None:
            from repro.faults.injector import FaultInjector
            from repro.faults.retransmit import (
                RetransmissionManager,
                default_timeout,
            )
            from repro.faults.routing import FaultAwareRouting

            fault_injector = FaultInjector(faults, network.topology)
            fault_routing = FaultAwareRouting(network.routing, fault_injector)
            fault_injector.set_routing(fault_routing)
            network.routing = fault_routing
            network.attach_faults(fault_injector)
            run.retransmit_timeout = (
                faults.retransmit_timeout or default_timeout(network)
            )
            run.ni = RetransmissionManager(
                network,
                run.retransmit_timeout,
                max_retries=faults.max_retries,
                backoff_factor=faults.backoff_factor,
            )
            network.on_delivery = run.ni.on_delivery
            network.on_loss = run.ni.on_loss
        if watchdog == "auto":
            watchdog = None
            repro_check = os.environ.get("REPRO_CHECK") == "1"
            if faults is not None or repro_check:
                from repro.faults.watchdog import Watchdog

                # The stall window must outlast a full NI retransmission
                # timeout, or a legitimately wedged-then-recovered packet
                # would be misdiagnosed as deadlock.
                stall = 2_000
                if run.retransmit_timeout is not None:
                    stall = max(stall, 2 * run.retransmit_timeout)
                watchdog = Watchdog(
                    stall_window=stall, check_invariants=repro_check
                )
        run.watchdog = watchdog
        network.reset_stats()
    if checkpoint_every is None:
        run.next_checkpoint = None
    elif run.next_checkpoint is None:
        run.next_checkpoint = network.cycle + checkpoint_every
    rng, injector, ni, watchdog = run.rng, run.injector, run.ni, run.watchdog
    kernel_cycles = run.kernel_cycles

    if profiler is not None:
        first_cycle = network.cycle
        profiler.start()
        profiler.enter_run_phase("warmup")

    def _heartbeat(phase: str, done: int, phase_target: int) -> None:
        progress(
            Progress(
                phase=phase,
                cycle=network.cycle,
                done=done,
                target=phase_target,
                elapsed_s=time.perf_counter() - started_at,
            )
        )

    def _open_window() -> int:
        """The first measured packet is born: the window opens before the
        body of its cycle.  Returns the cycles a span may run from here
        (a span that births the packet carries on for that many)."""
        network.begin_measurement()
        if profiler is not None:
            profiler.enter_run_phase("measure")
        if sampler is not None:
            sampler.start()
        return _span_room()

    def _window_cycles() -> int:
        """Cycles the open measurement window has run."""
        return network.cycle - network.stats.start_cycle

    def _sample_if_due() -> None:
        if (sampler is not None and network.measuring
                and _window_cycles() % sampler.window == 0):
            sampler.sample()

    def _mark_measured(packet) -> None:
        # ``created`` is the packet's creation index: the first
        # ``warmup_packets`` packets warm the network, the rest are
        # measured (the callback runs before the count is bumped).
        if run.created >= warmup_packets:
            packet.measured = True
            if not network.measuring:
                _open_window()
        run.created += 1

    send = ni.send if ni is not None else None

    def _accounted() -> int:
        """Measured packets finished: recorded or explicitly lost."""
        lost = ni.lost_measured if ni is not None else 0
        return len(network.stats.records) + lost

    def _checkpoint_if_due() -> None:
        if run.next_checkpoint is None or network.cycle < run.next_checkpoint:
            return
        run.next_checkpoint = network.cycle + checkpoint_every
        # Take back the streams a live compiled kernel borrowed, so that
        # ``run.rng`` and the injector are current (the kernel itself
        # pickles as its arena image).
        capture(network)
        save_snapshot(run, checkpoint_path)
        if os.environ.get("REPRO_CHAOS_PLAN"):
            from repro.chaos.sites import chaos_site

            chaos_site("runner.checkpoint")

    span_source, span_fallback = _span_source(
        network, pattern, injector, rng, ni
    )
    num_nodes = network.topology.num_nodes

    def _span_room() -> int:
        """Cycles a span starting now may cover: up to the next cycle the
        loop itself must see (checkpoint, heartbeat, sampler window,
        watchdog sample, drain deadline)."""
        cycle = network.cycle
        stops = [cycle + _UNBOUNDED_SPAN]
        if run.drain_deadline is not None:
            stops.append(run.drain_deadline)
        if run.next_checkpoint is not None:
            stops.append(run.next_checkpoint)
        if progress is not None:
            stops.append(cycle + progress_every - cycle % progress_every)
        if sampler is not None and network.measuring:
            window = sampler.window
            stops.append(cycle + window - _window_cycles() % window)
        if watchdog is not None:
            # Just after the next cycle the watchdog samples.
            stops.append(cycle + -cycle % watchdog.check_interval + 1)
        return min(stops) - cycle

    def _check() -> None:
        """Let the watchdog sample the cycle just run, if it is due."""
        if watchdog is not None:
            watchdog.check(network, network.cycle - 1)

    def _load_span() -> None:
        ran, born = network.step(Span(
            span_source, _span_room(), created=run.created,
            measure_from=warmup_packets, birth_budget=target,
            open_window=_open_window,
        ))
        run.created += born
        kernel_cycles["c_span"] += ran
        _check()

    def _step_once() -> None:
        network.step()
        kernel_cycles[network.active_kernel] += 1
        _check()

    saturated = False
    try:
        while run.created < target:
            _checkpoint_if_due()
            if span_source is not None and run.created + num_nodes <= target:
                # Spans carry the load phase up to the cycle that could
                # overshoot the target: that one stops drawing
                # destinations mid-cycle and stays with _offer_load.
                _load_span()
            else:
                if span_source is not None:
                    network.reclaim_span_source()
                if ni is not None:
                    ni.tick(network.cycle)
                _offer_load(
                    network,
                    pattern,
                    injector,
                    rng,
                    budget=target - run.created,
                    on_create=_mark_measured,
                    send=send,
                )
                _step_once()
            _sample_if_due()
            if progress is not None and network.cycle % progress_every == 0:
                phase = "measure" if network.measuring else "warmup"
                _heartbeat(phase, run.created, target)

        if run.drain_deadline is None:
            # The measurement window closes once the last measured packet
            # is created, and the drain's clock starts.  (A run resumed
            # from a drain-phase checkpoint finds both already done:
            # closing the window again would recompute the activity
            # deltas over drain cycles they must not cover.)
            if sampler is not None:
                sampler.sample()
            network.end_measurement()
            run.drain_deadline = network.cycle + drain_cycle_cap

        # Drain: keep offering load so measured packets experience
        # steady-state contention on their way out.
        if profiler is not None:
            profiler.enter_run_phase("drain")
        while _accounted() < measure_packets:
            if network.cycle >= run.drain_deadline:
                saturated = True
                break
            _checkpoint_if_due()
            if span_source is not None:
                # No phase boundary left: the span ends itself on the
                # cycle the last measured packet is accounted for.
                ran, _ = network.step(Span(
                    span_source, _span_room(),
                    need_measured=measure_packets - _accounted(),
                ))
                kernel_cycles["c_span"] += ran
                _check()
            else:
                if ni is not None:
                    ni.tick(network.cycle)
                _offer_load(network, pattern, injector, rng, send=send)
                _step_once()
            if progress is not None and network.cycle % progress_every == 0:
                _heartbeat("drain", _accounted(), measure_packets)
    finally:
        # Whatever ended the loops, the streams the spans borrowed go
        # back to rng and the injector.
        network.reclaim_span_source()
        if ni is not None:
            # The NI holds the network: unhooked, a finished network is
            # freed by reference counting, not by the cycle collector.
            network.on_delivery = network.on_loss = None
    stats = network.stats
    recorded = len(stats.records)
    lost_measured = ni.lost_measured if ni is not None else 0
    unfinished = 0
    if saturated:
        # The drain gave up with measured packets still inside the network
        # (or its source queues); report how many records are missing
        # instead of silently truncating the latency sample.
        unfinished = stats.packets_offered - recorded - lost_measured
        stats.saturated = True
    else:
        # Satellite accounting guarantee: every measured packet the
        # network accepted must now be a latency record or an explicit
        # loss -- anything else is silent truncation, which used to
        # corrupt the recorded sample without a trace.
        outstanding = ni.outstanding_measured() if ni is not None else 0
        missing = stats.packets_offered - recorded - lost_measured
        if missing != 0 or outstanding != 0:
            raise DrainAccountingError(
                f"{stats.packets_offered} measured packets offered but "
                f"{recorded} recorded + {lost_measured} lost "
                f"({outstanding} still tracked by the NI) after a clean "
                "drain"
            )

    if profiler is not None:
        profiler.cycles += network.cycle - first_cycle
        profiler.stop()

    resilience: Dict[str, int] = {}
    if ni is not None:
        resilience = ni.summary()
        resilience["fault_events"] = len(network.faults.events)
        resilience["retransmit_timeout"] = run.retransmit_timeout

    return SyntheticRunResult(
        stats=stats,
        offered_rate=rate,
        warmup_packets=warmup_packets,
        measured_packets=recorded,
        total_cycles=network.cycle,
        saturated=saturated,
        unfinished_measured_packets=unfinished,
        lost_measured_packets=lost_measured,
        resilience=resilience,
        kernel_cycles=kernel_cycles,
        span_fallback=span_fallback,
    )
