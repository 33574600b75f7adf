"""Observability null-object fast path.

When no observer is attached the hot simulation loops must not pay for
tracing: the kernel checks a single ``Network._tracing`` boolean per
phase instead of calling into hook dispatch.  These tests prove the
contract both ways -- an attached observer sees a rich event stream, a
detached run makes *zero* hook calls -- and that tracing never perturbs
the simulation itself.
"""

import random

from repro.core.layouts import build_network, layout_by_name
from repro.obs.hooks import Observer


class _CountingObserver(Observer):
    """Counts every hook invocation, keyed by hook name."""

    def __init__(self):
        self.calls = {}

    def _bump(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    @property
    def total(self):
        return sum(self.calls.values())


def _make_counting_observer():
    obs = _CountingObserver()
    for name in dir(Observer):
        if name.startswith("on_"):
            setattr(
                obs, name,
                (lambda n: lambda *a, **k: obs._bump(n))(name),
            )
    return obs


def _drive(net, seed=5, cycles=150, rate=0.1):
    rng = random.Random(seed)
    num_nodes = net.topology.num_nodes
    for _ in range(cycles):
        for node in range(num_nodes):
            if rng.random() < rate:
                dst = rng.randrange(num_nodes)
                if dst != node:
                    net.enqueue(net.make_packet(node, dst))
        net.step()
    net.drain()


def test_attached_observer_sees_the_event_stream():
    net = build_network(layout_by_name("baseline", 3))
    obs = _make_counting_observer()
    net.attach_observer(obs)
    assert net._tracing is True
    _drive(net)
    assert obs.total > 0
    # The structural hooks all fire on a traffic-bearing run.
    for hook in (
        "on_packet_enqueued",
        "on_flit_injected",
        "on_vc_allocated",
        "on_switch_grant",
        "on_link_traversal",
        "on_packet_delivered",
        "on_cycle_end",
    ):
        assert obs.calls.get(hook, 0) > 0, f"{hook} never fired"


def test_detached_run_makes_zero_hook_calls():
    """The whole point of the fast path: obs-disabled runs must not
    touch the observer machinery at all."""
    net = build_network(layout_by_name("baseline", 3))
    obs = _make_counting_observer()
    net.attach_observer(obs)
    net.detach_observer()
    assert net._tracing is False
    assert net.obs is None
    _drive(net)
    assert obs.total == 0, f"hooks fired while detached: {obs.calls}"


def test_tracing_flag_follows_attach_detach():
    net = build_network(layout_by_name("baseline", 2))
    assert net._tracing is False
    obs = _make_counting_observer()
    net.attach_observer(obs)
    assert net._tracing is True
    net.detach_observer()
    assert net._tracing is False
    net.attach_observer(obs)
    assert net._tracing is True


def test_tracing_does_not_perturb_the_simulation():
    """A traced run and an untraced run are byte-identical."""

    def run(traced):
        net = build_network(layout_by_name("diagonal+BL", 3))
        if traced:
            net.attach_observer(_make_counting_observer())
        delivered = []
        net.on_delivery = lambda packet, cycle: delivered.append(
            (packet.packet_id, packet.src, packet.dst, cycle, packet.hops)
        )
        _drive(net, seed=13, cycles=200, rate=0.15)
        return net.cycle, net.total_delivered, delivered

    assert run(True) == run(False)


def _make_counting_metrics(net):
    """A KernelMetrics whose every hook also counts its invocations."""
    from repro.obs.metrics import KernelMetrics

    metrics = KernelMetrics(net)
    metrics.hook_calls = 0
    for name in dir(KernelMetrics):
        if name.startswith("on_"):
            bound = getattr(metrics, name)

            def counted(*args, _bound=bound, _m=metrics, **kwargs):
                _m.hook_calls += 1
                return _bound(*args, **kwargs)

            setattr(metrics, name, counted)
    return metrics


def test_detached_metrics_make_zero_calls():
    """Metrics "off" is the same null-object fast path: once detached,
    the kernel performs zero metric calls and no hook-driven instrument
    moves.  The link counts are a window over the network's own
    counters, which run on."""
    net = build_network(layout_by_name("baseline", 3))
    metrics = _make_counting_metrics(net)
    net.attach_observer(metrics)
    net.detach_observer()
    assert net.obs is None and net._tracing is False
    _drive(net)
    assert metrics.hook_calls == 0
    snap = metrics.snapshot()
    assert snap["flits_injected"] == 0
    assert snap["pair_flits"] == [] and snap["vc_grants"] == []
    assert snap["link_flits_total"] == sum(
        count for row in net._link_flits for count in row
    ) > 0


def test_attached_metrics_see_the_event_stream():
    net = build_network(layout_by_name("baseline", 3))
    metrics = _make_counting_metrics(net)
    net.attach_observer(metrics)
    _drive(net)
    assert metrics.hook_calls > 0
    assert metrics.snapshot()["flits_injected"] > 0


def test_metrics_do_not_perturb_the_simulation():
    """A metrics-instrumented run and a bare run are byte-identical."""
    from repro.obs.metrics import KernelMetrics

    def run(instrumented):
        net = build_network(layout_by_name("diagonal+BL", 3))
        if instrumented:
            net.attach_observer(KernelMetrics(net))
        delivered = []
        net.on_delivery = lambda packet, cycle: delivered.append(
            (packet.packet_id, packet.src, packet.dst, cycle, packet.hops)
        )
        _drive(net, seed=13, cycles=200, rate=0.15)
        return net.cycle, net.total_delivered, delivered

    assert run(True) == run(False)
