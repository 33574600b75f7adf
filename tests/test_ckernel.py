"""The compiled C cycle kernel: build machinery, fallback ladder, cache.

The bit-identity of ``kernel="c"`` against the other two kernels is
pinned by ``tests/test_kernel_differential.py`` / ``test_golden_runs.py``
/ ``test_snapshot.py``; this file covers what is unique to the compiled
kernel:

* the on-demand build: compiler discovery, the sha256-keyed shared-object
  cache (``REPRO_CKERNEL_CACHE``), reuse across loads and threads;
* the degradation ladder: no compiler -> a *single* ``RuntimeWarning``
  and a transparent, bit-identical fall back to the event kernel; hooks
  or faults given before the first step -> the event kernel carries the
  run, given after it -> ``RuntimeError`` (differential file);
* the arena image: a pickled kernel restores exactly;
* unsupported shapes (routers wider than 62 ports or VCs) refuse
  cleanly instead of simulating wrongly;
* the C arena's lifetime: every ``ck_new`` is matched by a ``ck_free``
  once the owning network is dropped;
* ``python -m repro.noc.bench --kernel c`` skips loudly (exit 0, clear
  message) on a compilerless host instead of mislabelling event timings;
* the :class:`SweepPoint` spec-hash rule: ``kernel="c"`` is part of the
  cache key, kernel-free rows in an existing store keep replaying.
"""

import gc
import random
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro.noc.ckernel as ckernel
from repro.core.layouts import build_network, layout_by_name
from repro.exec import SweepPoint, execute_point, run_sweep
from repro.exec.store import ResultStore
from repro.noc.ckernel import (
    CKernelUnavailable,
    ckernel_available,
    find_compiler,
    load_kernel_library,
    unavailable_reason,
)
from repro.noc.config import NetworkConfig, RouterConfig
from repro.noc.network import Network
from repro.noc.topology import Mesh
from tests.test_kernel_differential import _assert_same, _digest, _run_one

needs_ckernel = pytest.mark.skipif(
    not ckernel_available(),
    reason=f"compiled kernel unavailable: {unavailable_reason()}",
)


@pytest.fixture
def no_compiler(monkeypatch):
    """A process state in which no C compiler can be found: the build
    memo is reset so discovery really re-runs, and restored afterwards
    so later tests reuse the already-loaded library."""
    monkeypatch.setattr(ckernel, "_LIB", None)
    monkeypatch.setattr(ckernel, "_FAILED", None)
    monkeypatch.setattr(ckernel, "_WARNED", set())
    monkeypatch.setattr(ckernel, "find_compiler", lambda: None)
    yield


def _drive(net, cycles=60, rate=0.2, seed=5, digests=None):
    rng = random.Random(seed)
    num_nodes = net.topology.num_nodes
    for _ in range(cycles):
        for node in range(num_nodes):
            if rng.random() < rate:
                dst = rng.randrange(num_nodes)
                if dst != node:
                    net.enqueue(net.make_packet(node, dst))
        net.step()
        if digests is not None:
            digests.append(_digest(net))


class TestBuildMachinery:
    @needs_ckernel
    def test_shared_object_is_cached_and_reused(self, monkeypatch, tmp_path):
        """Two builds with the same source+compiler+flags hit one .so;
        REPRO_CKERNEL_CACHE relocates the cache directory."""
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
        assert ckernel.cache_dir() == tmp_path
        ckernel._build_library()
        built = list(tmp_path.glob("ckernel-*.so"))
        assert len(built) == 1, built
        before = built[0].stat().st_mtime_ns
        ckernel._build_library()  # cache hit: no recompile, same file
        assert list(tmp_path.glob("ckernel-*.so")) == built
        assert built[0].stat().st_mtime_ns == before
        assert not list(tmp_path.glob("*.tmp.so")), "temp files must not leak"

    @needs_ckernel
    def test_load_is_memoized(self):
        assert load_kernel_library() is load_kernel_library()
        assert unavailable_reason() is None

    @needs_ckernel
    def test_cold_build_race_compiles_once(self, monkeypatch, tmp_path):
        """Threads that all ask first (a fresh server's workers) share one
        compiler launch and one library."""
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
        for memo in ("_LIB", "_FAILED", "_SPANS_OFF"):
            monkeypatch.setattr(ckernel, memo, None)
        launches = []
        compile_ = ckernel.subprocess.run
        monkeypatch.setattr(
            ckernel.subprocess, "run",
            lambda cmd, **kw: launches.append(cmd) or compile_(cmd, **kw),
        )
        with ThreadPoolExecutor(max_workers=4) as pool:  # a compile outlasts pool start-up
            libs = list(pool.map(lambda _: load_kernel_library(), range(4)))
        assert len(launches) == 1 and len({id(lib) for lib in libs}) == 1

    def test_compile_failure_is_memoized(self, no_compiler):
        with pytest.raises(CKernelUnavailable, match="no C compiler"):
            load_kernel_library()
        # Second call fails fast from the memo without re-probing PATH.
        assert ckernel._FAILED is not None
        assert ckernel_available() is False
        assert "no C compiler" in unavailable_reason()

    def test_find_compiler_returns_real_path_or_none(self):
        path = find_compiler()
        if path is not None:
            import os

            assert os.path.isabs(path) and os.access(path, os.X_OK)


class TestFallbackLadder:
    def test_no_compiler_falls_back_to_event_with_one_warning(
        self, no_compiler
    ):
        """kernel="c" on a compilerless host: exactly one RuntimeWarning
        per process, then the event kernel carries the run."""
        net = build_network(layout_by_name("baseline", 3))
        net.use_kernel("c")
        with pytest.warns(
            RuntimeWarning, match="falling back to the event kernel"
        ) as caught:
            net.step()
        assert "soa" not in str(caught[0].message)
        assert net.kernel == "c", "the *requested* kernel is unchanged"
        assert net.active_kernel == "event"
        # Further steps and even further networks stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _drive(net, cycles=30)
            other = build_network(layout_by_name("baseline", 2))
            other.use_kernel("c")
            other.step()
        assert other.active_kernel == "event"
        net.drain()
        assert net.total_buffered_flits() == 0

    def test_no_compiler_run_matches_event_bit_for_bit(self, no_compiler):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            degraded = _run_one("c", 3, "baseline", 0.2, 11, 80, 1024)
        reference = _run_one("event", 3, "baseline", 0.2, 11, 80, 1024)
        _assert_same(reference, degraded, "c-degraded-to-event")

    @needs_ckernel
    def test_too_wide_router_refuses_cleanly(self, monkeypatch):
        """63 VCs overflow the C kernel's 62-lane bitmasks; the kernel
        must refuse (and the network degrade to event, warning once,
        digest for digest equal to a plain event run) rather than
        mis-simulate."""
        from repro.noc.ckernel import CKernel

        def run(kernel):
            topo = Mesh(3)
            configs = {
                r: RouterConfig(num_vcs=63) for r in range(topo.num_routers)
            }
            net = Network(topo, configs, NetworkConfig(kernel=kernel))
            digests = []
            _drive(net, digests=digests)
            return net, digests

        with pytest.raises(CKernelUnavailable, match="too wide"):
            CKernel(run("event")[0])
        monkeypatch.setattr(ckernel, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="event kernel") as caught:
            degraded, digests = run("c")
        assert len(caught) == 1
        assert degraded.kernel == "c"
        assert degraded.active_kernel == "event"
        assert digests == run("event")[1]

    @needs_ckernel
    def test_each_fallback_reason_is_warned_and_reported(self, monkeypatch):
        """Two networks blocked for two different reasons in one process
        (a router too wide for the kernel, then no compiler): each cause
        gets its own RuntimeWarning (a repeat of either stays silent), and
        both ``span_blocker()`` and the run result name the cause that
        kept the network off the compiled kernel."""
        from repro.traffic import UniformRandom, run_synthetic

        def blocked(router):
            topo = Mesh(2)
            configs = {r: router for r in range(topo.num_routers)}
            return Network(topo, configs, NetworkConfig(kernel="c"))

        monkeypatch.setattr(ckernel, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="event kernel") as caught:
            wide = blocked(RouterConfig(num_vcs=63))
            wide.step()
            blocked(RouterConfig(num_vcs=63)).step()  # known cause: silent
            # The compiler goes away; the build memo is reset so that
            # discovery really re-runs (monkeypatch restores it after).
            monkeypatch.setattr(ckernel, "_LIB", None)
            monkeypatch.setattr(ckernel, "_FAILED", None)
            monkeypatch.setattr(ckernel, "find_compiler", lambda: None)
            result = run_synthetic(
                blocked(RouterConfig()), UniformRandom(4),
                0.05, warmup_packets=10, measure_packets=40,
            )
            blocked(RouterConfig()).step()  # known cause: silent
        messages = [str(warning.message) for warning in caught]
        assert len(messages) == 2, messages
        assert "too wide" in messages[0]
        assert "no C compiler" in messages[1]
        assert "too wide" in wide.span_blocker()
        assert "no C compiler" in result.span_fallback
        assert result.kernel_cycles["c"] == result.kernel_cycles["c_span"] == 0

    @needs_ckernel
    def test_explicit_rerequest_retries_activation(self):
        """A blocked c request stays blocked (no re-probe), but an
        explicit use_kernel("c") before the first step tries again."""
        net = build_network(layout_by_name("baseline", 2))
        net.use_kernel("c")
        net._ck_blocked = "as if a prior activation failed"
        assert "as if a prior" in net.span_blocker()
        assert net.active_kernel == "event"
        net.use_kernel("c")  # explicit re-request clears the block
        net.step()
        assert net.active_kernel == "c"
        net.drain()


class TestBenchSkipPath:
    def test_bench_kernel_c_skips_cleanly_without_compiler(
        self, no_compiler, capsys
    ):
        from repro.noc import bench

        rc = bench.main(["--kernel", "c", "--repeat", "1", "--no-history"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "skipping compiled-kernel benchmark" in out
        assert "no C compiler" in out
        assert "benchmarking" not in out, "must skip before timing anything"

    def test_bench_check_kernel_c_skips_cleanly_without_compiler(
        self, no_compiler, capsys, tmp_path
    ):
        import json

        from repro.noc import bench

        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({"c": {}}))
        rc = bench.main(["--check", str(baseline), "--kernel", "c"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "skipping compiled-kernel benchmark" in out

    @needs_ckernel
    def test_bench_all_times_c_section(self, capsys, tmp_path):
        import json

        from repro.noc import bench

        out_path = tmp_path / "r.json"
        rc = bench.main([
            "--kernel", "all", "--repeat", "1", "--only", "empty-4x4",
            "--no-history", "--out", str(out_path),
            "--baseline", str(tmp_path / "absent.json"),
        ])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert "c" in report
        assert "empty-4x4" in report["c"]
        assert "speedup_c_vs_event" in report
        assert not [key for key in report if "soa" in key]
        assert not [key for key in report["groups"] if "soa" in key]


class TestSpecHashRule:
    POINT = SweepPoint(
        layout="baseline", mesh_size=3, pattern="uniform_random",
        rate=0.05, seed=3, warmup_packets=20, measure_packets=80,
    )

    def test_kernel_c_is_part_of_the_spec(self):
        point = replace(self.POINT, kernel="c")
        assert point.spec_dict()["kernel"] == "c"
        assert point.key() != self.POINT.key()
        assert "kernel" not in self.POINT.spec_dict()

    def test_kernel_free_store_rows_replay_for_default_points(self, tmp_path):
        """Regression: a store populated before the kernel field existed
        (rows with no kernel) must keep replaying for default-kernel
        points, and a kernel="c" override must be a cache *miss* (its own
        row), not a collision."""
        with ResultStore(tmp_path / "sweeps.sqlite") as store:
            first = run_sweep([self.POINT], cache=store)[0]
            assert not first.from_cache
            replay = run_sweep([self.POINT], cache=store)[0]
            assert replay.from_cache
            assert replay.to_dict() == first.to_dict()
            c_point = replace(self.POINT, kernel="c")
            c_result = run_sweep([c_point], cache=store)[0]
            assert not c_result.from_cache, "override must not hit the row"
            # Bit-identical payload, distinct key.
            a, b = first.to_dict(), c_result.to_dict()
            assert a.pop("key") != b.pop("key")
            assert a == b


@needs_ckernel
class TestCompiledStepping:
    def test_active_kernel_reports_c(self):
        net = build_network(layout_by_name("diagonal+BL", 3))
        net.use_kernel("c")
        assert net.active_kernel == "event"  # not yet stepped
        _drive(net, cycles=40)
        assert net.active_kernel == "c"
        net.drain()
        assert net.total_buffered_flits() == 0
        assert net.packets_in_flight == 0

    def test_arena_image_round_trip_is_exact(self):
        """A pickled kernel is its arena image: the restored network
        holds the same image and digest, builds no router, and both copies
        step on identically (taking the image perturbs nothing)."""
        from repro.noc.snapshot import capture, dumps, loads

        net = build_network(layout_by_name("diagonal+BL", 3))
        net.use_kernel("c")
        _drive(net, cycles=50)
        before = _digest(net)
        restored = loads(dumps(capture(net)))
        assert restored._routers is None and net._routers is None
        assert restored._ck.image() == net._ck.image()
        assert _digest(restored) == before == _digest(net)
        runs = [[], []]
        for copy, digests in zip((net, restored), runs):
            _drive(copy, cycles=20, seed=6, digests=digests)
            copy.drain()
            assert copy.total_buffered_flits() == 0
            digests.append(_digest(copy))
        assert runs[0] == runs[1]

    def test_arena_is_freed_with_the_network(self, monkeypatch):
        """Dropping a network with the kernel still live (what every
        ``execute_point`` does) must release its C arena: one ``ck_free``
        per ``ck_new`` once the garbage is collected."""
        lib = load_kernel_library()
        calls = {"ck_new": 0, "ck_free": 0}

        def counted(name):
            real = getattr(lib, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        for name in calls:
            monkeypatch.setattr(lib, name, counted(name))
        point = replace(TestSpecHashRule.POINT, kernel="c")
        for seed in range(10):
            assert execute_point(replace(point, seed=seed)).error is None
        gc.collect()
        assert calls["ck_new"] >= 10
        assert calls["ck_free"] == calls["ck_new"]

    def test_wormhole_violation_raises_event_kernel_message(self):
        """C-side invariant failures surface as the same RuntimeError
        wording the python kernels use (the differential tests rely on
        error parity to triangulate real bugs)."""
        net = build_network(layout_by_name("baseline", 2))
        net.use_kernel("c")
        net.enqueue(net.make_packet(0, 3))
        net.step()
        assert net.active_kernel == "c"
        ck = net._ck
        # Find a lane whose queue head is a *body* flit (mid-wormhole),
        # then claim its wormhole for a bogus packet id and re-arm VA.
        from repro.noc.ckernel import A_NEED, A_NVA, A_ST_PID

        lane = None
        qlen, qhead = ck._arr(ckernel.A_QLEN), ck._arr(ckernel.A_QHEAD)
        qs_seq = ck._arr(ckernel.A_QS_SEQ)
        for _ in range(100):
            for index in range(ck.L):
                if qlen[index]:
                    slot = index * ck.D + qhead[index] % ck.D
                    if qs_seq[slot] != 0:
                        lane = index
                        break
            if lane is not None:
                break
            net.step()
        assert lane is not None, "no mid-wormhole lane appeared"
        rid = lane // (ck.P * ck.V)
        ck._view(A_ST_PID, ck.L)[lane] = 10_000_019
        ck._view(A_NEED, ck.L)[lane] = 1
        ck._view(A_NVA, ck.R)[rid] += 1
        ck.lib.ck_wake(ck._ck, rid)
        with pytest.raises(RuntimeError, match="wormhole violation"):
            for _ in range(50):
                net.step()


_LEAK_RUN = """
import sys
import repro.noc.ckernel as ckernel
from repro.core.layouts import build_network, layout_by_name
from repro.faults import InvariantViolation
from repro.traffic.patterns import pattern_by_name
from repro.traffic.runner import run_synthetic

net = build_network(layout_by_name("baseline", 4))
net.use_kernel("c")
pattern = pattern_by_name("uniform_random", net.topology)
try:
    result = run_synthetic(
        net, pattern, 0.05, warmup_packets=50, measure_packets=300, seed=1
    )
except InvariantViolation as exc:
    print(f"caught: {exc}")
    sys.exit(3)
print(ckernel.load_kernel_library()._name)
print(result.kernel_cycles, result.span_fallback)
net.drain(max_cycles=100_000)
ck = net._ck
print(sum(ck._arr(ckernel.A_CRED)[lane] for lane in range(ck.L)))
"""


@needs_ckernel
class TestLeakingBuild:
    """The instrument that proves runtime checks see the C arena: a
    kernel built with ``-DCK_TEST_LEAK_CREDIT`` loses the first credit
    return of a run."""

    @pytest.fixture(scope="class")
    def leaking_cache(self, tmp_path_factory):
        import importlib.util
        from pathlib import Path

        tool = (
            Path(__file__).resolve().parent.parent
            / "tools" / "ckernel_sanitized.py"
        )
        spec = importlib.util.spec_from_file_location("ckernel_tool", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        directory = tmp_path_factory.mktemp("leaking-ckernel")
        module.build(directory, module.LEAK_CREDIT)
        return directory

    def _run(self, cache, **env):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        environ = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_") or key == "REPRO_CKERNEL_CACHE"
        }
        environ.update(PYTHONPATH=str(src), **env)
        if cache is not None:
            environ["REPRO_CKERNEL_CACHE"] = str(cache)
        return subprocess.run(
            [sys.executable, "-c", _LEAK_RUN], env=environ,
            capture_output=True, text=True, timeout=300,
        )

    def test_unarmed_run_does_not_notice(self, leaking_cache):
        proc = self._run(leaking_cache)
        assert proc.returncode == 0, proc.stderr
        library, cycles, credits = proc.stdout.splitlines()
        assert library.startswith(str(leaking_cache))
        assert "'c_span': 0," not in cycles and cycles.endswith("None")
        # Drained, the plain build holds every credit; this one is short
        # by the one it lost.
        plain = self._run(None)
        assert plain.returncode == 0, plain.stderr
        assert int(credits) == int(plain.stdout.splitlines()[2]) - 1

    def test_armed_run_catches_the_leak(self, leaking_cache):
        """Armed, the run stays on the leaking arena, and the invariant
        suite reading it finds the lost credit."""
        proc = self._run(leaking_cache, REPRO_CHECK="1")
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "caught:" in proc.stdout
