"""Benchmark: raw cycle-kernel speed across traffic regimes.

Times the event-driven cycle kernel on the same frozen case matrix the
``python -m repro.noc.bench`` CLI records into ``BENCH_kernel.json``:
empty meshes (active-set fast path), uniform-random traffic at low, mid
and saturation rates on 4x4 and 8x8 meshes, and one faulty point (the
dynamic-routing fallback path).  Under ``--benchmark-disable`` each case
still runs once, which keeps the suite usable as a smoke test.
"""

import pytest

from repro.noc.bench import CASES, run_case

_CASES = {name: (kind, params) for name, kind, params in CASES}

SPEED_CASES = [
    "empty-4x4",
    "empty-8x8",
    "ur-4x4-r0.05",
    "ur-4x4-r0.15",
    "ur-4x4-r0.30",
    "ur-8x8-r0.05",
    "ur-8x8-r0.15",
    "ur-8x8-r0.30",
    "faulty-4x4-r0.05",
]


@pytest.mark.parametrize("name", SPEED_CASES)
def test_kernel_speed(benchmark, name):
    kind, params = _CASES[name]
    cycles, _wall = benchmark.pedantic(
        lambda: run_case(name, kind, params), rounds=1, iterations=1
    )
    assert cycles > 0


def test_c_kernel_speedup_floor():
    """``kernel="c"`` must stay >= 10x faster than event on a loaded 8x8
    point.

    The committed ``BENCH_kernel.json`` measures 33.9x on this case,
    where ``run_synthetic`` drives the compiled kernel in spans (11.4x is
    what per-cycle stepping of the same kernel gives); the floor sits at
    a third of that so runner noise cannot trip it, while a run that
    silently fell back to per-cycle stepping still would.
    Interleaved best-of-3 cancels machine drift.
    """
    from repro.noc.ckernel import ckernel_available, unavailable_reason

    if not ckernel_available():
        pytest.skip(f"compiled kernel unavailable: {unavailable_reason()}")
    name = "ur-8x8-r0.05"
    kind, params = _CASES[name]
    run_case(name, kind, params, kernel="c")  # build + load, untimed
    event = c = float("inf")
    for _ in range(3):
        event = min(event, run_case(name, kind, params, kernel="event")[1])
        c = min(c, run_case(name, kind, params, kernel="c")[1])
    assert event >= 10 * c, (
        f"c kernel {c:.4f}s vs event {event:.4f}s: only {event / c:.1f}x"
    )


def test_metrics_off_overhead():
    """Metrics disabled must cost <= 5% on the hot path.

    "Disabled" is the shipped lifecycle: construct a KernelMetrics,
    attach it, detach it before the run (the null-object fast path from
    ``tests/test_obs_fastpath.py``).  Interleaved best-of-N A/B timing
    cancels machine noise; the guard allows 5% plus a small absolute
    slack so sub-millisecond jitter cannot fail a fast machine.
    """
    import time

    from repro.core.layouts import build_network, layout_by_name
    from repro.obs.metrics import KernelMetrics
    from repro.traffic.patterns import pattern_by_name
    from repro.traffic.runner import run_synthetic

    def run_once(with_lifecycle):
        net = build_network(layout_by_name("baseline", 4))
        if with_lifecycle:
            metrics = KernelMetrics(net)
            net.attach_observer(metrics)
            net.detach_observer()
        pattern = pattern_by_name("uniform_random", net.topology)
        t0 = time.perf_counter()
        run_synthetic(
            net, pattern, 0.05, seed=11,
            warmup_packets=100, measure_packets=600,
        )
        return time.perf_counter() - t0

    run_once(True)  # warm caches before timing
    plain = lifecycle = float("inf")
    for _ in range(5):
        plain = min(plain, run_once(False))
        lifecycle = min(lifecycle, run_once(True))
    assert lifecycle <= plain * 1.05 + 0.010, (
        f"metrics-off lifecycle {lifecycle:.4f}s vs plain "
        f"{plain:.4f}s exceeds the 5% budget"
    )
