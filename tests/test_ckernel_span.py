"""The compiled span driver (``ck_run``): RNG twin and span differential.

``run_synthetic`` drives a ``kernel="c"`` network through whole *spans*
of cycles inside the compiled kernel, with the open-loop traffic source
(injection coin flips, destination draws, packet birth) in the C loop.
Two things make that safe, and this file pins both:

* the **RNG twin** -- the C port of MT19937, ``random()``, the
  ``getrandbits`` rejection loop behind ``randrange``/``choice`` and the
  Pareto period arithmetic -- continues a ``random.Random`` stream draw
  for draw, and hands back a state ``setstate`` accepts;
* **span == per-cycle c == event**: every observable of a run (state
  digest, RNG and injector state, next packet id, in-flight count,
  stats, latency records in order) is identical whether the cycles ran
  as spans, one ``ck_step`` at a time, or on the event kernel -- and a
  run that can use spans leaves them only to create the last packets of
  its target, fewer than there are nodes.
"""

import random
import re
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.noc.ckernel as ckernel
import repro.traffic.runner as runner
from repro.core.layouts import build_network, layout_by_name
from repro.exec import SweepPoint, execute_point
from repro.noc.ckernel import (
    Span,
    SpanSource,
    ckernel_available,
    load_kernel_library,
    unavailable_reason,
)
from repro.noc.network import Network
from repro.noc.snapshot import capture, dumps, load_snapshot
from repro.obs import RunProfiler, TimeSeriesSampler
from repro.traffic import patterns, selfsimilar
from repro.traffic.patterns import TrafficPattern, UniformRandom, pattern_by_name
from repro.traffic.runner import _offer_load, run_synthetic
from repro.traffic.selfsimilar import BernoulliInjector, SelfSimilarInjector
from tests.test_golden_runs import GOLDEN_POINTS
from tests.test_kernel_differential import _digest

needs_ckernel = pytest.mark.skipif(
    not ckernel_available(),
    reason=f"compiled kernel unavailable: {unavailable_reason()}",
)

PATTERNS = (
    "uniform_random", "nearest_neighbor", "transpose", "bit_complement",
    "bit_reverse", "tornado",
)


# -- (a) the RNG twin -----------------------------------------------------------
@needs_ckernel
class TestRngTwin:
    XM, INV_ALPHA = 8.0, 1.0 / 1.25

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        plan_seed=st.integers(min_value=0, max_value=2**32),
        sizes=st.lists(st.integers(2, 256), min_size=1, max_size=6),
        count=st.integers(2000, 2600),
    )
    def test_c_stream_equals_random_random(self, seed, plan_seed, sizes, count):
        """>= 2,000 mixed draws (so the 624-word twist is crossed at
        least three times) agree by ``float.hex``; the state handed back
        continues the Python stream."""
        plan = random.Random(plan_seed)
        draws = [
            (kind, plan.choice(sizes))
            for kind in plan.choices(
                ("random", "randrange", "choice", "pareto"), k=count
            )
        ]
        rng = random.Random(seed)
        start = rng.getstate()
        expected = []
        for kind, n in draws:
            if kind == "random":
                expected.append(rng.random())
            elif kind == "randrange":
                expected.append(float(rng.randrange(n)))
            elif kind == "choice":
                expected.append(float(rng.choice(range(n))))
            else:
                expected.append(float(max(1, int(round(
                    self.XM / (rng.random() ** self.INV_ALPHA)
                )))))
        ops = [
            {"random": 0, "pareto": -1}.get(kind, n) for kind, n in draws
        ]
        got, state = ckernel.twin_draws(
            load_kernel_library(), start, ops, self.XM, self.INV_ALPHA
        )
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        assert state == rng.getstate()
        handed_back = random.Random()
        handed_back.setstate(state)
        assert handed_back.random().hex() == rng.random().hex()
        assert handed_back.randrange(97) == rng.randrange(97)

    def test_choice_over_one_item_still_draws(self):
        """``_randbelow(1)`` consumes bits until it sees a 0; the twin
        must too or every later draw shifts."""
        rng = random.Random(4)
        start = rng.getstate()
        expected = [float(rng.choice([0])) for _ in range(50)]
        got, state = ckernel.twin_draws(
            load_kernel_library(), start, [1] * 50, 1.0, 1.0
        )
        assert got == expected and state == rng.getstate()

    def test_pareto_draw_of_zero_is_the_zero_division_code(self):
        """A 53-bit draw of exactly 0.0 makes Python divide by zero; the
        twin reports that, it does not return an ``inf`` period."""
        words = [0] * 624  # untempered zeros: the next two outputs are 0
        state = (3, tuple(words) + (0,), None)
        rng = random.Random()
        rng.setstate(state)
        with pytest.raises(ZeroDivisionError):
            self.XM / (rng.random() ** self.INV_ALPHA)
        got, _ = ckernel.twin_draws(
            load_kernel_library(), state, [-1], self.XM, self.INV_ALPHA
        )
        assert got == [-8.0]
        assert ckernel._ERRORS[-8][0] is ZeroDivisionError

    def test_load_time_check_passes_here(self):
        assert ckernel._twin_mismatch(load_kernel_library()) is None
        assert ckernel.spans_disabled_reason() is None

    def test_load_time_mismatch_disables_spans_with_one_warning(
        self, monkeypatch
    ):
        monkeypatch.setattr(ckernel, "_LIB", None)
        monkeypatch.setattr(ckernel, "_SPANS_OFF", None)
        monkeypatch.setattr(ckernel, "_twin_mismatch", lambda lib: "forced")
        with pytest.warns(RuntimeWarning, match="span driver disabled") as w:
            load_kernel_library()
        assert len(w) == 1
        assert ckernel.spans_disabled_reason() == "forced"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_kernel_library()  # memoized: silent
        # The per-cycle compiled kernel still carries the run, identically.
        point = replace(GOLDEN_POINTS["heteronoc-4x4-UR"], kernel="c")
        blocked = _observe(point, "c")
        assert blocked["kernel_cycles"]["c_span"] == 0
        assert blocked["kernel_cycles"]["c"] == blocked["total_cycles"]
        assert blocked["span_fallback"] == "forced"
        monkeypatch.setattr(ckernel, "_SPANS_OFF", None)
        assert _same_run(_observe(point, "c"), blocked)

    def test_detects_a_wrong_twin(self):
        class Skewed:
            def __init__(self, lib):
                self.lib = lib

            def ck_twin_draws(self, words, ops, n, xm, inv_alpha, out):
                self.lib.ck_twin_draws(words, ops, n, xm, inv_alpha, out)
                out[n - 1] += 1.0

        assert "RNG twin" in ckernel._twin_mismatch(
            Skewed(load_kernel_library())
        )


def test_every_c_error_code_has_a_message():
    """Walks the ``E_*`` enum of ``_ckernel.c``: a code added in C
    without a row in ``_ERRORS`` fails here, not as a KeyError mid-run."""
    source = Path(ckernel.__file__).with_name("_ckernel.c").read_text()
    codes = {
        name: int(value)
        for name, value in re.findall(r"\b(E_[A-Z_]+) = (-\d+),", source)
    }
    assert len(codes) >= 8 and "E_PARETO_ZERO" in codes
    assert set(codes.values()) == set(ckernel._ERRORS), codes
    assert ckernel._ERRORS[codes["E_NOMEM"]][0] is MemoryError
    assert "calendar" in ckernel._ERRORS[codes["E_CALENDAR"]][1]
    for kind, message in ckernel._ERRORS.values():
        assert issubclass(kind, Exception)
        message.format(a=1, b=2, c=3)


@needs_ckernel
def test_out_of_memory_code_raises_memory_error():
    net = build_network(layout_by_name("baseline", 2))
    net.use_kernel("c")
    net.step()
    with pytest.raises(MemoryError, match="out of memory"):
        net._ck._raise_error(-6)


# -- (b) span == per-cycle c == event ---------------------------------------------
class _RecordingRandom:
    """Stands in for the ``random`` module inside the runner so a test
    can read the state of the RNG ``run_synthetic`` seeded itself."""

    def __init__(self):
        self.made = []

    def Random(self, seed=None):
        rng = random.Random(seed)
        self.made.append(rng)
        return rng


def _injector_state(injector):
    if injector is None:
        return None
    return [
        (source.on, source.remaining, source.rng.getstate())
        for source in injector.sources
    ]


def _observe(point, mode, sample_window=None, config=None, **knobs):
    """Run ``point`` and return everything that could diverge.

    ``mode``: ``"span"`` (kernel c, spans on), ``"c"`` (kernel c, spans
    forced off) or ``"event"``.  ``sample_window`` hands the run a
    :class:`TimeSeriesSampler` of that width, whose windows come back
    under ``"windows"``.  ``config`` overrides the mesh's
    ``NetworkConfig`` fields."""
    point = replace(point, kernel="event" if mode == "event" else "c")
    if config:
        net = build_network(
            layout_by_name(point.layout, point.mesh_size), **config
        )
        net.use_kernel(point.kernel)
    else:
        net = point.build_network()
    injector = point.build_injector(net.topology.num_nodes)
    sampler = None
    if sample_window is not None:
        sampler = knobs["sampler"] = TimeSeriesSampler(net, sample_window)
    recorder = _RecordingRandom()
    saved_random, saved_off = runner.random, ckernel._SPANS_OFF
    runner.random = recorder
    if mode == "c" and ckernel._SPANS_OFF is None:
        ckernel._SPANS_OFF = "spans forced off by the test"
    python_born = []
    make_packet = Network.make_packet

    def noting_make_packet(self, *args, **kwargs):
        packet = make_packet(self, *args, **kwargs)
        python_born.append(packet.packet_id)
        return packet

    Network.make_packet = noting_make_packet
    try:
        result = run_synthetic(
            net,
            pattern_by_name(point.pattern, net.topology),
            point.rate,
            warmup_packets=point.warmup_packets,
            measure_packets=point.measure_packets,
            seed=point.seed,
            injector=injector,
            drain_cycle_cap=point.drain_cycle_cap,
            **knobs,
        )
    finally:
        runner.random, ckernel._SPANS_OFF = saved_random, saved_off
        Network.make_packet = make_packet
    stats = result.stats
    # A resumed run seeds nothing: its RNG is the checkpoint's own.
    rng = recorder.made[0] if recorder.made else knobs["resume_from"].rng
    observed = {
        "digest": _digest(net),
        "rng": rng.getstate(),
        "injector": _injector_state(injector),
        "next_packet_id": net.next_packet_id,
        "packets_in_flight": net.packets_in_flight,
        "records": [tuple(vars(r).values()) for r in stats.records],
        "stats": (
            stats.packets_offered, stats.packets_delivered,
            stats.flits_delivered, stats.measured_cycles,
            stats.window_packet_deliveries, stats.window_flit_deliveries,
            sorted(stats.link_flits.items()),
            sorted(stats.link_busy_cycles.items()),
            [tuple(vars(a).values()) for a in stats.router_activity],
        ),
        "total_cycles": result.total_cycles,
        "saturated": result.saturated,
        "unfinished": result.unfinished_measured_packets,
        "kernel_cycles": result.kernel_cycles,
        "span_fallback": result.span_fallback,
        "python_born": python_born,
        "shape": (net.topology.num_nodes,
                  point.warmup_packets + point.measure_packets),
    }
    if sampler is not None:
        observed["windows"] = sampler.windows
    return observed


_HOW_IT_RAN = ("kernel_cycles", "span_fallback", "python_born")


def _same_run(a, b):
    """``a`` and ``b`` agree on every observable ``a`` has (a sampled
    run's windows are compared only with another sampled run's)."""
    for key in a:
        if key not in _HOW_IT_RAN:
            assert a[key] == b[key], f"{key} diverged"
    return True


def _span_driven(run):
    """The whole-run invariant of a span-eligible run: the compiled kernel
    drives every cycle, and only the packets a last load span could have
    overshot the target with -- the last of the target, fewer than there
    are nodes -- are born in Python."""
    assert run["span_fallback"] is None
    cycles = run["kernel_cycles"]
    assert cycles["event"] == 0
    assert cycles["c_span"] > 0
    assert cycles["c_span"] + cycles["c"] == run["total_cycles"]
    num_nodes, target = run["shape"]
    born = run["python_born"]
    assert len(born) < num_nodes
    assert born == list(range(target - len(born), target))
    return True


def _three_way(point, **knobs):
    span = _observe(point, "span", **knobs)
    _span_driven(span)
    _same_run(span, _observe(point, "c", **knobs))
    _same_run(span, _observe(point, "event", **knobs))
    return span


def _point(**fields):
    fields.setdefault("mesh_size", 4)
    fields.setdefault("warmup_packets", 40)
    fields.setdefault("measure_packets", 200)
    fields.setdefault("drain_cycle_cap", 5_000)
    return SweepPoint(**fields)


@needs_ckernel
class TestSpanDifferential:
    @pytest.mark.parametrize("rate", [0.02, 0.12])
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("injector", ["bernoulli", "self_similar"])
    @pytest.mark.parametrize("layout", ["baseline", "diagonal+BL"])
    def test_matrix(self, layout, injector, pattern, rate):
        seed = 1 + PATTERNS.index(pattern) + 10 * (layout != "baseline")
        span = _three_way(_point(
            layout=layout, injector=injector, pattern=pattern, rate=rate,
            seed=seed,
        ))
        assert span["stats"][0] == 200  # packets_offered

    def test_8x8_point_is_span_driven(self):
        span = _three_way(_point(
            layout="center+BL", mesh_size=8, rate=0.04, seed=3,
            warmup_packets=300, measure_packets=1500,
        ))
        assert len(span["records"]) == 1500

    def test_link_delay_of_three(self):
        """A calendar of four buckets: arrivals scheduled three cycles
        ahead wrap past the end of the ring, span after span."""
        span = _three_way(
            _point(layout="diagonal+BL", rate=0.08, seed=6),
            config={"link_delay": 3, "credit_delay": 2},
        )
        assert len(span["records"]) == 200

    def test_no_warmup(self):
        """``warmup_packets=0``: the first packet born opens the window,
        inside the span that carries the cycles before it too."""
        span = _three_way(_point(rate=0.05, seed=2, warmup_packets=0))
        assert span["records"][0][0] == 0  # packet id 0 is measured

    def test_one_measured_packet(self):
        span = _three_way(_point(rate=0.05, seed=3, measure_packets=1))
        assert len(span["records"]) == 1

    def test_target_below_node_count(self):
        """Fewer packets than nodes: any cycle could overrun the target,
        so the whole load phase stays per-cycle and only the drain is
        spans."""
        span = _three_way(_point(
            rate=0.05, seed=4, warmup_packets=3, measure_packets=9,
        ))
        assert len(span["records"]) == 9
        assert span["python_born"] == list(range(12))
        assert span["next_packet_id"] >= 12

    def test_window_opens_in_the_tail_of_the_target(self):
        """``measure_packets`` below the node count: the span that births
        the first measured packet (100) leaves fewer packets of the
        target than there are nodes, and the driver still resumes that
        cycle's pending body with a span."""
        point = _point(rate=0.9, seed=3, warmup_packets=100,
                       measure_packets=5)
        span = _observe(point, "span")
        _span_driven(span)
        assert span["python_born"] == [101, 102, 103, 104]
        _same_run(span, _observe(point, "event"))

    def test_saturated_point_hits_the_drain_cap(self):
        span = _three_way(_point(
            rate=0.5, seed=5, warmup_packets=30, measure_packets=300,
            drain_cycle_cap=100,
        ))
        assert span["saturated"] and span["unfinished"] > 0

    @pytest.mark.parametrize("injector", ["bernoulli", "self_similar"])
    @pytest.mark.parametrize("measure", [1, 15, 3000])
    @pytest.mark.parametrize("warmup", [0, 1, 15, 16, 300])
    def test_phase_boundaries(self, warmup, measure, injector):
        """Creation-index boundaries at, just under and far from the node
        count (16), at a rate where nearly every node fires every cycle:
        the window opens mid-cycle -- inside a span, or in the per-cycle
        tail when the target is that close, often in the cycle that
        reaches it -- and the run still equals the per-cycle loop on the
        event kernel in every observable."""
        point = _point(
            rate=0.9, seed=7 + warmup + measure, injector=injector,
            warmup_packets=warmup, measure_packets=measure,
            drain_cycle_cap=300,
        )
        span = _observe(point, "span")
        _span_driven(span)
        _same_run(span, _observe(point, "event"))
        assert span["next_packet_id"] >= warmup + measure
        assert span["stats"][0] == measure  # packets_offered: exact target

    def test_only_the_tail_of_the_target_is_born_in_python(
        self, monkeypatch
    ):
        """On the 8x8 the window opens around packet 300 inside a span:
        no packet near it is made by Python, ``_offer_load`` runs only on
        the per-cycle tail and ``enqueue`` only for the packets made
        there."""
        calls = {"offer": 0, "enqueue": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(runner, "_offer_load",
                            counted("offer", runner._offer_load))
        monkeypatch.setattr(Network, "enqueue",
                            counted("enqueue", Network.enqueue))
        span = _observe(
            _point(mesh_size=8, rate=0.04, seed=3, warmup_packets=300,
                   measure_packets=1500),
            "span",
        )
        _span_driven(span)
        assert len(span["records"]) == 1500
        assert 0 < len(span["python_born"]) < 64
        assert min(span["python_born"]) > 1800 - 64
        assert calls["enqueue"] == len(span["python_born"])
        assert calls["offer"] == span["kernel_cycles"]["c"]

    def test_heartbeats_bound_the_spans(self):
        beats = {}
        for mode in ("span", "c"):
            seen = beats[mode] = []
            _observe(
                _point(rate=0.05, seed=6), mode,
                progress=lambda p: seen.append((p.phase, p.cycle, p.done)),
                progress_every=16,
            )
        assert beats["span"] == beats["c"] and len(beats["c"]) > 5

    def test_python_packet_completes_inside_a_span(self):
        """A packet handed to ``enqueue`` keeps its Python object; when it
        finishes inside a span the object gets its delivery fields and
        its own ``packet_class`` lands in the latency record."""
        def run(span_cycles):
            net = build_network(layout_by_name("baseline", 4))
            net.use_kernel("c")
            net.begin_measurement()
            pattern = UniformRandom(16)
            injector = BernoulliInjector(0.05)
            rng = random.Random(8)
            probe = net.make_packet(0, 15, packet_class="probe")
            probe.measured = True
            net.enqueue(probe)
            if span_cycles:
                source = SpanSource(
                    patterns.span_twin(pattern),
                    selfsimilar.span_twin(injector, 16), rng,
                )
                assert net.step(Span(source, 60)) \
                    == (60, net.packets_in_flight + net.total_delivered - 1)
                net.reclaim_span_source()
            else:
                for _ in range(60):
                    _offer_load(net, pattern, injector, rng)
                    net.step()
            assert probe.received_at is not None and probe.hops == 6
            (record,) = net.stats.records
            assert record.packet_class == "probe"
            net.end_measurement()
            return (vars(probe), vars(record), rng.getstate(), _digest(net),
                    net.next_packet_id, net.stats.window_flit_deliveries)

        assert run(True) == run(False)

    def test_span_refused_while_something_watches(self):
        net = build_network(layout_by_name("baseline", 2))
        assert "event kernel" in net.span_blocker()
        net.use_kernel("c")
        assert net.span_blocker() is None
        net.on_delivery = lambda packet, cycle: None
        assert "on_delivery" in net.span_blocker()
        source = SpanSource(("uniform", None), ("bernoulli", 0.1, None),
                            random.Random(1))
        with pytest.raises(RuntimeError, match="cannot step a span"):
            net.step(Span(source, 5))

    def test_malformed_pattern_rows_are_rejected_before_c_sees_them(self):
        net = build_network(layout_by_name("baseline", 2))
        net.use_kernel("c")
        for rows in ([[1], [2], [3]], [[1], [2], [3], [4]], [[1], [], [0], [0]]):
            source = SpanSource(("choice", rows), ("bernoulli", 0.1, None),
                                random.Random(1))
            with pytest.raises(ValueError, match="span pattern rows"):
                net.step(Span(source, 5))


class TestSpanEligibility:
    """What keeps a run on the per-cycle loop, and that it says so."""

    def _run(self, net, pattern=None, injector=None, **knobs):
        return run_synthetic(
            net, pattern or UniformRandom(net.topology.num_nodes), 0.05,
            warmup_packets=10, measure_packets=40, seed=3,
            injector=injector, **knobs,
        )

    def _c_network(self):
        net = build_network(layout_by_name("baseline", 3))
        net.use_kernel("c")
        return net

    def test_event_kernel_names_itself(self):
        result = self._run(build_network(layout_by_name("baseline", 3)))
        assert result.kernel_cycles["c_span"] == 0
        assert result.kernel_cycles["event"] == result.total_cycles
        assert "event kernel" in result.span_fallback

    @needs_ckernel
    def test_subclassed_pattern_and_injector_stay_per_cycle(self):
        class Skewed(UniformRandom):
            def destination(self, src, rng):
                return (src + 1) % self.num_nodes

        class Bursty(BernoulliInjector):
            pass

        result = self._run(self._c_network(), pattern=Skewed(9))
        assert result.kernel_cycles["c_span"] == 0
        assert result.kernel_cycles["c"] == result.total_cycles
        assert "pattern Skewed" in result.span_fallback
        result = self._run(self._c_network(), injector=Bursty(0.05))
        assert "injector Bursty" in result.span_fallback
        assert patterns.span_twin(TrafficPattern(4)) is None

    @needs_ckernel
    def test_self_similar_twin_needs_plain_sources(self):
        injector = SelfSimilarInjector(9, 0.05, seed=1)
        assert selfsimilar.span_twin(injector, 9)[0] == "pareto"
        assert selfsimilar.span_twin(injector, 16) is None

        class Loud(random.Random):
            pass

        injector.sources[4].rng = Loud(1)
        assert selfsimilar.span_twin(injector, 9) is None
        injector = SelfSimilarInjector(9, 0.05, seed=1)
        injector.sources[2].mean_off = 1e40  # period would overflow int64
        assert selfsimilar.span_twin(injector, 9) is None

    @needs_ckernel
    @pytest.mark.parametrize("what", ["watchdog", "faults"])
    def test_watchers_keep_the_per_cycle_loop(self, what):
        knobs = {}
        if what == "watchdog":
            from repro.faults import Watchdog

            knobs["watchdog"] = Watchdog(stall_window=10_000)
        else:
            from repro.faults.schedule import FaultSchedule

            knobs["faults"] = FaultSchedule(specs=())
        result = self._run(self._c_network(), **knobs)
        assert result.kernel_cycles["c_span"] == 0
        assert result.span_fallback is not None
        assert sum(result.kernel_cycles.values()) == result.total_cycles

    @needs_ckernel
    @pytest.mark.parametrize("point", [
        pytest.param(_point(
            layout=layout, mesh_size=mesh, injector=injector, rate=0.08,
            seed=4 + mesh,
        ), id=f"{layout}-{mesh}x{mesh}-{injector}")
        for layout in ("baseline", "diagonal+BL")
        for mesh in (4, 8)
        for injector in ("bernoulli", "self_similar")
    ] + [pytest.param(_point(
        rate=0.5, seed=5, warmup_packets=30, measure_packets=300,
        drain_cycle_cap=100,
    ), id="drain-cap")])
    def test_sampled_profiled_c_run_keeps_its_spans(self, point):
        """The run driver opens the window, switches the profiler's
        phases and cuts the sampler's windows on the span path too: a
        sampled and profiled c run is the unobserved c run -- spans,
        kernel cycles, stats and records -- and its windows are those of
        the same run sampled on the event kernel."""
        profiler = RunProfiler()
        observed = _observe(point, "span", sample_window=25,
                            profiler=profiler)
        plain = _observe(point, "span")
        _span_driven(observed)
        assert observed["kernel_cycles"] == plain["kernel_cycles"]
        _same_run(plain, observed)
        on_event = _observe(point, "event", sample_window=25)
        _same_run(observed, on_event)
        assert observed["windows"]
        assert sum(w.cycles for w in observed["windows"]) \
            == observed["stats"][3]  # measured_cycles
        report = profiler.report()
        assert report["cycles"] == observed["total_cycles"]
        assert set(report) == {
            "wall_seconds", "cycles", "cycles_per_second",
            "run_phase_seconds",
        }
        assert set(report["run_phase_seconds"]) == {
            "warmup", "measure", "drain",
        }

    def test_no_compiler_runs_identically_without_spans(self, monkeypatch):
        """The compiler-less leg: ``kernel="c"`` degrades to event, no
        cycle is span-driven, the payload equals the golden one."""
        monkeypatch.setattr(ckernel, "_LIB", None)
        monkeypatch.setattr(ckernel, "_FAILED", None)
        monkeypatch.setattr(ckernel, "find_compiler", lambda: None)
        point = replace(GOLDEN_POINTS["homogeneous-4x4-UR"], kernel="c")
        net = point.build_network()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_synthetic(
                net, pattern_by_name(point.pattern, net.topology), point.rate,
                warmup_packets=point.warmup_packets,
                measure_packets=point.measure_packets, seed=point.seed,
            )
            degraded = execute_point(point).to_dict()
        assert result.kernel_cycles["c_span"] == 0
        assert result.kernel_cycles["event"] == result.total_cycles
        assert "unavailable" in result.span_fallback
        reference = execute_point(replace(point, kernel="event")).to_dict()
        degraded.pop("key"), reference.pop("key")
        assert degraded == reference


# -- (c) checkpoints around spans -------------------------------------------------
@needs_ckernel
class TestSpansAndSnapshots:
    POINT = _point(layout="diagonal+BL", injector="self_similar", rate=0.06,
                   seed=9)

    def test_checkpoint_inside_a_span_driven_run_resumes_identically(
        self, tmp_path
    ):
        plain = _observe(self.POINT, "span")
        path = tmp_path / "run.ckpt"
        checkpointed = _observe(
            self.POINT, "span", checkpoint_every=23, checkpoint_path=path,
        )
        assert checkpointed["kernel_cycles"]["c_span"] > 0
        _same_run(plain, checkpointed)
        # The file left behind is a mid-run checkpoint -- the pickled
        # run state; resume from it (the network, RNG and injector then
        # come out of the checkpoint).
        snapshot = load_snapshot(path)
        resumed = _observe(self.POINT, "span", resume_from=snapshot)
        for key in ("records", "stats", "total_cycles"):
            assert resumed[key] == plain[key], key
        assert snapshot.network.next_packet_id == plain["next_packet_id"]
        assert sum(resumed["kernel_cycles"].values()) == plain["total_cycles"]

    def test_mid_measure_checkpoint_carries_the_lent_streams(self, tmp_path):
        """The streams are in C when the checkpoint falls due; capture
        takes them back first, so the file holds where they really are."""
        plain = _observe(self.POINT, "span")
        path = tmp_path / "run.ckpt"

        class Killed(Exception):
            pass

        beats = []

        def die_mid_measure(progress):
            # The checkpoint on disk is the one taken right after the
            # previous heartbeat: die once that one was well into the
            # measure phase.
            beats.append(progress.phase)
            if beats[-3:] == ["measure"] * 3:
                raise Killed

        with pytest.raises(Killed):
            _observe(self.POINT, "span", checkpoint_every=20,
                     checkpoint_path=path, progress=die_mid_measure,
                     progress_every=20)
        snapshot = load_snapshot(path)
        assert snapshot.network.measuring
        assert 0 < len(snapshot.network.stats.records) < 200
        resumed = _observe(self.POINT, "span", resume_from=snapshot)
        for key in ("records", "stats", "total_cycles", "rng"):
            assert resumed[key] == plain[key], key
        # The network and injector that drove the resumed run are the
        # snapshot's, not the ones _observe built.
        assert _digest(snapshot.network) == plain["digest"]
        assert snapshot.network.next_packet_id == plain["next_packet_id"]
        assert _injector_state(snapshot.injector) == plain["injector"]

    def test_lent_streams_are_back_after_kernel_teardown(self):
        """Two spans lend the streams once; a checkpoint round trip
        (capture, pickle, restore, the original kernel dropped) hands
        them back, and ``_offer_load`` then continues every stream draw
        for draw on the restored network's per-cycle loop."""
        from repro.noc.snapshot import capture, dumps, loads

        def run(spans):
            net = build_network(layout_by_name("diagonal+BL", 4))
            net.use_kernel("c" if spans else "event")
            pattern = pattern_by_name("uniform_random", net.topology)
            injector = SelfSimilarInjector(16, 0.1, seed=2)
            rng = random.Random(21)
            if spans:
                source = SpanSource(
                    patterns.span_twin(pattern),
                    selfsimilar.span_twin(injector, 16), rng,
                )
                untouched = rng.getstate()
                assert net.step(Span(source, 30))[0] == 30
                assert net.step(Span(source, 30, created=99))[0] == 30
                assert rng.getstate() == untouched  # still lent
            else:
                for _ in range(60):
                    _offer_load(net, pattern, injector, rng)
                    net.step()
            net, rng, injector = loads(dumps((capture(net), rng, injector)))
            state = (rng.getstate(), _injector_state(injector))
            for _ in range(40):
                _offer_load(net, pattern, injector, rng)
                net.step()
            assert net.active_kernel == ("c" if spans else "event")
            return (state, rng.getstate(), _injector_state(injector),
                    _digest(net), net.next_packet_id)

        assert run(True) == run(False)

    @pytest.mark.parametrize("sample_window", [None, 7])
    @pytest.mark.parametrize("warmup", [0, 100])
    def test_no_span_returns_a_half_run_cycle(
        self, warmup, sample_window, monkeypatch
    ):
        """The birth that opens the measurement window calls the span's
        ``open_window`` inside ``CKernel.run``, which then runs that
        cycle's body: no ``network.step(Span)`` comes back with the body
        pending, sampled (the first window boundary caps the rest of the
        span) or not, and the run still equals the event kernel's."""
        pending = []
        step = Network.step

        def checked(net, span=None):
            out = step(net, span)
            if span is not None:
                ck = net._ck
                pending.append(ck.lib.ck_get(ck._ck, ckernel.S_BODY_PENDING))
            return out

        monkeypatch.setattr(Network, "step", checked)
        point = _point(rate=0.9, seed=3, warmup_packets=warmup,
                       measure_packets=300)
        span = _observe(point, "span", sample_window=sample_window)
        _span_driven(span)
        assert pending and not any(pending)
        _same_run(span, _observe(point, "event", sample_window=sample_window))

    def test_a_hand_driven_span_runs_the_opening_cycle_whole(self):
        """``open_window`` runs at the birth of creation index
        ``measure_from``, before that cycle's body, and its answer caps
        the rest of the span; the network is whole when the span
        returns, so it steps per cycle and pickles."""
        net = build_network(layout_by_name("baseline", 4))
        net.use_kernel("c")
        source = SpanSource(("uniform", None), ("bernoulli", 0.9, None),
                            random.Random(3))
        opened = []

        def open_window():
            opened.append((net.cycle, net.next_packet_id))
            net.begin_measurement()
            return 2

        ran, born = net.step(Span(source, 10, measure_from=5,
                                  open_window=open_window))
        assert ran == 2 and net.cycle == 2 and net.measuring
        assert opened[0][0] == 0 and len(opened) == 1 and born > 5
        net.reclaim_span_source()
        dumps(capture(net))
        net.step()
        assert net.cycle == 3

    def test_per_cycle_driving_is_refused_while_the_source_is_lent(self):
        net = build_network(layout_by_name("baseline", 4))
        net.use_kernel("c")
        source = SpanSource(("uniform", None), ("bernoulli", 0.1, None),
                            random.Random(3))
        assert net.step(Span(source, 10))[0] == 10
        with pytest.raises(RuntimeError, match="reclaim_span_source"):
            net.step()
        with pytest.raises(RuntimeError, match="reclaim_span_source"):
            net.enqueue(net.make_packet(0, 5))
        net.reclaim_span_source()
        net.enqueue(net.make_packet(0, 5))
        net.step()
        assert net.cycle == 11

    def test_a_run_that_dies_mid_span_loop_returns_the_streams(
        self, monkeypatch
    ):
        class Killed(Exception):
            pass

        def die(progress):
            raise Killed

        def run(kernel):
            net = build_network(layout_by_name("baseline", 4))
            net.use_kernel(kernel)
            injector = SelfSimilarInjector(16, 0.05, seed=4)
            recorder = _RecordingRandom()
            monkeypatch.setattr(runner, "random", recorder)
            with pytest.raises(Killed):
                run_synthetic(net, UniformRandom(16), 0.05, seed=6,
                              injector=injector, progress=die,
                              progress_every=16)
            assert net.cycle == 16
            return recorder.made[0].getstate(), _injector_state(injector)

        assert run("c") == run("event")

    def test_execute_point_checkpointing_under_kernel_c(self, tmp_path):
        point = replace(self.POINT, kernel="c")
        expected = execute_point(point).to_dict()
        got = execute_point(
            point, checkpoint_every=17, checkpoint_dir=tmp_path
        ).to_dict()
        assert got == expected


# -- (d) golden points really are span-driven under kernel="c" ---------------------
@needs_ckernel
@pytest.mark.parametrize(
    # the torus fixture runs on event until its routing is a table column
    "name", [n for n, p in GOLDEN_POINTS.items() if p.topology == "mesh"]
)
def test_golden_points_are_span_driven(name):
    assert _span_driven(_observe(GOLDEN_POINTS[name], "span"))
