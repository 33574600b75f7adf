"""Golden-run regression tests: fixed-seed reference results, exact match.

``tests/golden/golden_runs.json`` commits the complete
:class:`repro.exec.PointResult` payloads of five small fixed-seed runs --
homogeneous and HeteroNoC (Diagonal+BL) 4x4 meshes under uniform-random
and nearest-neighbour traffic, and the 8x8 Diagonal+BL torus point that
used to wedge.  The tests assert today's simulator
reproduces them *exactly* (integer checksums and floats alike), through
both the serial and the process backends, which pins three things at
once:

* the simulator's packet streams and latency accounting per seed (any
  change to injection order, routing, arbitration or stats shows up as a
  golden diff, deliberately);
* ``process`` backend == ``serial`` backend, bit for bit;
* ``event`` == ``c`` cycle kernels == the full-scan reference of
  ``tests/full_scan.py``, bit for bit, via the :class:`SweepPoint`
  ``kernel`` override (only the spec hash may differ -- the override is
  part of the cache key);
* the ``_offer_load`` injection path: packet ids are creation-ordered,
  so the measured window is exactly ids ``[warmup, warmup + measure)``.

Regenerate after an *intentional* simulator change::

    PYTHONPATH=src python tests/test_golden_runs.py --regen
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.exec import SweepPoint, execute_point, run_sweep
from tests.full_scan import full_scan

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "golden_runs.json"

#: the reference configurations (kept tiny: a 4x4 mesh, 350 packets; one
#: 8x8 torus, 360 packets).
GOLDEN_POINTS = {
    "homogeneous-4x4-UR": SweepPoint(
        layout="baseline", mesh_size=4, pattern="uniform_random",
        rate=0.05, seed=7, warmup_packets=50, measure_packets=300,
    ),
    "homogeneous-4x4-NN": SweepPoint(
        layout="baseline", mesh_size=4, pattern="nearest_neighbor",
        rate=0.08, seed=7, warmup_packets=50, measure_packets=300,
    ),
    "heteronoc-4x4-UR": SweepPoint(
        layout="diagonal+BL", mesh_size=4, pattern="uniform_random",
        rate=0.05, seed=7, warmup_packets=50, measure_packets=300,
    ),
    "heteronoc-4x4-NN": SweepPoint(
        layout="diagonal+BL", mesh_size=4, pattern="nearest_neighbor",
        rate=0.08, seed=7, warmup_packets=50, measure_packets=300,
    ),
    # The torus wedge, since fixed (tests/test_deadlock_freedom.py proves
    # the dateline rule statically): while the dateline class was
    # dropped one hop after the Y wrap link, this point never drained --
    # 28 measured packets still in flight at the drain cap (seeds 10, 13
    # and 19 left 2, 21 and 14).  It finishes in ~200 cycles.
    "heteronoc-8x8-torus-UR": SweepPoint(
        layout="diagonal+BL", mesh_size=8, topology="torus",
        pattern="uniform_random", rate=0.04, seed=14, warmup_packets=60,
        measure_packets=300, drain_cycle_cap=5000,
    ),
}


def _load_golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden():
    return _load_golden()


@pytest.fixture(scope="module")
def serial_results():
    points = list(GOLDEN_POINTS.values())
    return dict(zip(GOLDEN_POINTS, run_sweep(points, jobs=1, cache=None)))


class TestGoldenReferences:
    def test_specs_unchanged(self, golden):
        """The committed spec must match the in-code spec (else the hash
        keys silently diverge and the reference proves nothing)."""
        for name, point in GOLDEN_POINTS.items():
            assert golden[name]["spec"] == point.spec_dict(), name

    @pytest.mark.parametrize("name", list(GOLDEN_POINTS))
    def test_serial_reproduces_golden_exactly(self, golden, serial_results, name):
        assert serial_results[name].to_dict() == golden[name]["result"], (
            f"{name} diverged from its golden reference; if the simulator "
            "change is intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_golden_runs.py --regen`"
        )

    def test_none_saturated(self, golden):
        """Golden points must sit below saturation: a saturated reference
        would pin drain-truncation artefacts instead of steady state."""
        for name, payload in golden.items():
            assert payload["result"]["saturated"] is False, name
            assert payload["result"]["unfinished_measured_packets"] == 0, name
            assert payload["result"]["measured_packets"] == 300, name

    def test_measured_window_is_exact_packet_id_range(self, serial_results):
        """Pins the `_offer_load` injection path: packets are numbered in
        creation order, so the measured ids are exactly the contiguous
        block after warmup."""
        for name, point in GOLDEN_POINTS.items():
            lo = point.warmup_packets
            hi = lo + point.measure_packets
            expected = sum(range(lo, hi))
            assert serial_results[name].packet_id_sum == expected, name


class TestKernelsMatchGolden:
    """Both cycle kernels and the full-scan reference reproduce the
    golden payloads exactly.

    The ``kernel`` field is part of the spec (and hence the cache key)
    whenever it is set, so only the ``key`` field of the payload may
    differ from the kernel-free golden reference -- every simulated
    number must be byte-identical.
    """

    @staticmethod
    def _without_key(payload):
        payload = dict(payload)
        del payload["key"]
        return payload

    @pytest.mark.parametrize("kernel", ["full_scan", "event", "c"])
    @pytest.mark.parametrize("name", list(GOLDEN_POINTS))
    def test_kernel_override_reproduces_golden(
        self, golden, name, kernel, monkeypatch
    ):
        if kernel == "full_scan":
            # No kernel override: every network the point builds steps
            # as the full-scan reference.
            point = GOLDEN_POINTS[name]
            build = SweepPoint.build_network
            monkeypatch.setattr(
                SweepPoint, "build_network",
                lambda self: full_scan(build(self)),
            )
        else:
            point = replace(GOLDEN_POINTS[name], kernel=kernel)
            assert point.spec_dict()["kernel"] == kernel
        result = execute_point(point).to_dict()
        assert result["key"] == point.key()
        assert self._without_key(result) == self._without_key(
            golden[name]["result"]
        ), f"{name} diverged under the {kernel} kernel"

    def test_c_kernel_process_backend_bit_identical(self, golden):
        """c through the pool workers still equals the golden serial
        event-kernel reference: kernels x backends all agree (each
        worker process compiles/loads the shared object itself)."""
        points = [replace(p, kernel="c") for p in GOLDEN_POINTS.values()]
        results = run_sweep(points, jobs=2, backend="process", cache=None)
        for name, result in zip(GOLDEN_POINTS, results):
            assert not result.from_cache
            assert self._without_key(result.to_dict()) == self._without_key(
                golden[name]["result"]
            ), name

    def test_kernel_omitted_from_spec_when_unset(self):
        """A kernel-free spec serializes exactly as it did before the
        field existed (golden/cache stability), and setting it changes
        the content hash."""
        base = GOLDEN_POINTS["homogeneous-4x4-UR"]
        assert "kernel" not in base.spec_dict()
        assert replace(base, kernel="c").key() != base.key()
        with pytest.raises(ValueError, match="kernel"):
            replace(base, kernel="vectorized")


class TestProcessBackendMatchesGolden:
    def test_process_backend_bit_identical(self, golden):
        """Two pool workers, same specs: every payload equals the golden
        serial reference, proving process == serial bit for bit."""
        points = list(GOLDEN_POINTS.values())
        results = run_sweep(points, jobs=2, backend="process", cache=None)
        for name, result in zip(GOLDEN_POINTS, results):
            assert not result.from_cache
            assert result.to_dict() == golden[name]["result"], name


class TestStoreBackendMatchesGolden:
    """The durable SQLite store serves and stores the golden payloads
    exactly: store == no cache, bit for bit, computed or replayed."""

    def test_store_computed_and_replayed_match_golden(self, golden, tmp_path):
        points = list(GOLDEN_POINTS.values())
        store_path = str(tmp_path / "golden.sqlite")
        computed = run_sweep(points, jobs=1, cache=store_path)
        for name, result in zip(GOLDEN_POINTS, computed):
            assert not result.from_cache
            assert result.to_dict() == golden[name]["result"], name
        replayed = run_sweep(points, jobs=1, cache=store_path)
        for name, result in zip(GOLDEN_POINTS, replayed):
            assert result.from_cache
            payload = result.to_dict()
            payload.pop("from_cache", None)
            assert payload == golden[name]["result"], name


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        name: {"spec": point.spec_dict(), "result": execute_point(point).to_dict()}
        for name, point in GOLDEN_POINTS.items()
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
