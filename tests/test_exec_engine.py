"""Engine and cache-layer behaviour: hits, misses, corruption, resume.

The headline property: a warm store makes :func:`repro.exec.run_sweep`
execute *zero* simulations (proved here by stubbing ``execute_point`` to
raise), and any damaged row -- torn, corrupt JSON, wrong version, wrong
spec, wrong field set -- silently degrades to a recompute, never an
exception.  That combination is what lets an interrupted
``run_all`` sweep resume from where it crashed.
"""

import ast
import dataclasses
import inspect
import json
import pathlib

import pytest

import repro.exec.engine as engine_mod
from repro.exec import (
    ExecDefaults,
    ResultStore,
    SweepPoint,
    configure,
    execute_point,
    run_sweep,
)
from repro.exec.store import _checksum

POINT = SweepPoint(
    layout="baseline", mesh_size=4, pattern="uniform_random",
    rate=0.05, seed=3, warmup_packets=20, measure_packets=120,
)


def _points(n=3):
    rates = (0.03, 0.05, 0.08)
    return [dataclasses.replace(POINT, rate=rates[i]) for i in range(n)]


@pytest.fixture(autouse=True)
def _isolated_defaults(monkeypatch):
    """Keep configure() side effects out of the other tests."""
    monkeypatch.setattr(engine_mod, "_defaults", ExecDefaults())


@pytest.fixture()
def cache(tmp_path):
    with ResultStore(tmp_path / "sweeps.sqlite") as store:
        yield store


class TestCacheRoundTrip:
    def test_put_then_get(self, cache):
        result = execute_point(POINT)
        cache.put(POINT, result)
        assert cache.path.exists()
        hit = cache.get(POINT)
        assert hit is not None
        assert hit.to_dict() == result.to_dict()

    def test_miss_on_empty_cache(self, cache):
        assert cache.get(POINT) is None
        assert len(cache) == 0

    def test_different_spec_misses(self, cache):
        cache.put(POINT, execute_point(POINT))
        assert cache.get(dataclasses.replace(POINT, seed=POINT.seed + 1)) is None

    def test_no_stray_tmp_files(self, cache):
        cache.put(POINT, execute_point(POINT))
        cache.close()
        # Only the database and its WAL sidecars, next to nothing else.
        name = cache.path.name
        assert {p.name for p in cache.path.parent.iterdir()} <= {
            name, f"{name}-wal", f"{name}-shm",
        }
        assert len(cache) == 1


def _rewrite_row(cache, resign=True, **columns):
    """Overwrite columns of POINT's row; ``resign`` recomputes the
    checksum, so the damage has to be caught by the layer behind it."""
    conn = cache.connection()
    row = dict(zip(
        ("version", "spec", "result"),
        conn.execute(
            "SELECT version, spec, result FROM results WHERE key = ?",
            (POINT.key(),),
        ).fetchone(),
    ))
    row.update(columns)
    if resign:
        row["checksum"] = _checksum(row["version"], row["spec"], row["result"])
    assignments = ", ".join(f"{name} = ?" for name in row)
    with conn:
        conn.execute(
            f"UPDATE results SET {assignments} WHERE key = ?",
            (*row.values(), POINT.key()),
        )


class TestCacheCorruptionFallsBackToRecompute:
    """Damaged rows are misses, and the damaged row is moved out of
    ``results`` so it cannot poison later runs."""

    @pytest.mark.parametrize(
        "damage",
        [
            dict(result="", resign=False),
            dict(result='{"latency_cyc', resign=False),
            dict(result="{not json"),
            dict(version=999),
            dict(spec=json.dumps({"rate": 9.9})),
            dict(spec="null", result="null"),
        ],
        ids=["empty", "truncated", "not-json", "bad-version", "spec-mismatch",
             "null-payload"],
    )
    def test_damaged_entry_is_a_miss_and_discarded(self, cache, damage):
        cache.put(POINT, execute_point(POINT))
        _rewrite_row(cache, **damage)
        with pytest.warns(UserWarning, match="quarantined"):
            assert cache.get(POINT) is None
        assert len(cache) == 0  # discarded, not left to fail again
        assert [row["key"] for row in cache.quarantined()] == [POINT.key()]

    def test_result_with_wrong_fields_is_a_miss(self, cache):
        result = execute_point(POINT)
        cache.put(POINT, result)
        payload = result.to_dict()
        del payload["packet_id_sum"]
        _rewrite_row(cache, result=json.dumps(payload, sort_keys=True))
        with pytest.warns(UserWarning, match="quarantined"):
            assert cache.get(POINT) is None

    def test_run_sweep_recovers_from_corrupt_entry(self, cache):
        """End to end: corrupt one row of a swept store; the sweep
        recomputes exactly that point and still returns correct results."""
        points = _points()
        first = run_sweep(points, jobs=1, cache=cache)
        with cache.connection() as conn:
            conn.execute(
                "UPDATE results SET result = 'garbage' WHERE key = ?",
                (points[1].key(),),
            )
        with pytest.warns(UserWarning, match="quarantined"):
            second = run_sweep(points, jobs=1, cache=cache)
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
        assert [r.from_cache for r in second] == [True, False, True]
        # ... and the recompute repaired the entry.
        assert cache.get(points[1]) is not None


class TestWarmCacheExecutesNothing:
    def test_second_run_simulates_zero_points(self, cache, monkeypatch):
        points = _points()
        cold = run_sweep(points, jobs=1, cache=cache)
        assert all(not r.from_cache for r in cold)
        assert len(cache) == len(points)

        def _boom(point):
            raise AssertionError(f"simulated {point.label} despite warm cache")

        monkeypatch.setattr(engine_mod, "execute_point", _boom)
        warm = run_sweep(points, jobs=1, cache=cache)
        assert all(r.from_cache for r in warm)
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]

    def test_partial_cache_executes_only_misses(self, cache, monkeypatch):
        points = _points()
        run_sweep([points[0], points[2]], jobs=1, cache=cache)
        executed = []
        real = engine_mod.execute_point

        def _spy(point):
            executed.append(point.key())
            return real(point)

        monkeypatch.setattr(engine_mod, "execute_point", _spy)
        results = run_sweep(points, jobs=1, cache=cache)
        assert executed == [points[1].key()]
        assert [r.from_cache for r in results] == [True, False, True]

    def test_no_cache_always_executes(self, cache, monkeypatch):
        run_sweep(_points(1), jobs=1, cache=cache)
        calls = []
        real = engine_mod.execute_point
        monkeypatch.setattr(
            engine_mod, "execute_point",
            lambda point: calls.append(point.key()) or real(point),
        )
        run_sweep(_points(1), jobs=1, cache=None)
        assert len(calls) == 1


class TestEngineConfiguration:
    def test_configure_sets_defaults(self, tmp_path):
        defaults = configure(jobs=3, cache_dir=tmp_path)
        assert defaults.jobs == 3 and defaults.cache_dir == tmp_path
        # Omitted args keep their values.
        assert configure().jobs == 3

    def test_configure_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            configure(jobs=0)

    def test_configured_cache_used_by_default(self, tmp_path, monkeypatch):
        configure(cache_dir=tmp_path / "sweeps")
        run_sweep(_points(1), jobs=1)
        assert len(ResultStore(tmp_path / "sweeps")) == 1
        # cache=None opts a single call out even when a default is set.
        monkeypatch.setattr(
            engine_mod, "execute_point",
            lambda point: (_ for _ in ()).throw(AssertionError("executed")),
        )
        assert all(r.from_cache for r in run_sweep(_points(1), jobs=1))
        with pytest.raises(AssertionError, match="executed"):
            run_sweep(_points(1), jobs=1, cache=None)

    def test_env_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "env-cache"))
        defaults = ExecDefaults.from_env()
        assert defaults.jobs == 4
        assert defaults.cache_dir == str(tmp_path / "env-cache")

    def test_env_unset_means_no_store(self, monkeypatch):
        for name in ("REPRO_JOBS", "REPRO_SWEEP_CACHE"):
            monkeypatch.delenv(name, raising=False)
        assert ExecDefaults.from_env() == ExecDefaults()

    def test_env_junk_jobs_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert ExecDefaults.from_env().jobs == 1

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            run_sweep(_points(1), backend="threads", cache=None)


class TestProgressHeartbeats:
    def test_one_heartbeat_per_point_including_cache_hits(self, cache):
        points = _points()
        beats = []
        run_sweep(points, jobs=1, cache=cache, progress=beats.append)
        assert [p.done for p in beats] == [1, 2, 3]
        assert all(p.phase == "sweep" and p.target == 3 for p in beats)
        warm = []
        run_sweep(points, jobs=1, cache=cache, progress=warm.append)
        assert [p.done for p in warm] == [1, 2, 3]

    def test_process_backend_writes_cache_and_reports(self, cache):
        points = _points(2)
        beats = []
        results = run_sweep(
            points, jobs=2, backend="process", cache=cache, progress=beats.append
        )
        assert len(cache) == 2
        assert sorted(p.done for p in beats) == [1, 2]
        assert [r.key for r in results] == [p.key() for p in points]


class TestCheckpointDefaults:
    """Point-level checkpointing is on only when ``execute_point`` gets
    both its period and its directory; half the pair is an error rather
    than a silent run without checkpoints."""

    def test_checkpoint_every_with_nowhere_to_write_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="give both or neither"):
            execute_point(POINT, checkpoint_every=20)
        with pytest.raises(ValueError, match="give both or neither"):
            execute_point(POINT, checkpoint_dir=tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()

    def test_explicit_checkpoint_dir_needs_no_store(self, tmp_path):
        expected = execute_point(POINT).to_dict()
        result = execute_point(
            POINT, checkpoint_every=20, checkpoint_dir=tmp_path / "ckpt"
        )
        assert result.to_dict() == expected
        assert (tmp_path / "ckpt").is_dir()


#: where a keyword passed to ``run_sweep`` / ``configure`` counts as used
PRODUCT_DIRS = ("src", "perf", "tools", "examples")


def _product_keywords() -> set:
    """Keyword names passed at ``run_sweep(...)`` / ``configure(...)``
    call sites outside ``tests/`` (``run_sweep``'s ``cache`` is the
    ``cache_dir`` default it overrides)."""
    root = pathlib.Path(__file__).resolve().parent.parent
    names = set()
    for top in PRODUCT_DIRS:
        for path in (root / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                if called in ("run_sweep", "configure"):
                    names.update(kw.arg for kw in node.keywords if kw.arg)
    if "cache" in names:
        names.add("cache_dir")
    return names


def test_every_engine_option_has_a_product_caller():
    """A ``run_sweep`` keyword or an :class:`ExecDefaults` field that only
    tests set is a knob to retire, not one to keep."""
    used = _product_keywords()
    params = [
        name
        for name, param in inspect.signature(run_sweep).parameters.items()
        if param.default is not inspect.Parameter.empty
    ]
    fields = [field.name for field in dataclasses.fields(ExecDefaults)]
    unused = sorted({*params, *fields} - used)
    assert unused == [], f"engine options no product path sets: {unused}"
