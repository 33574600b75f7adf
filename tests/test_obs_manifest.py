"""Run provenance: engine spans, search telemetry and run manifests.

Telemetry must be a pure observer: a sweep run with a
:class:`~repro.obs.manifest.SweepTelemetry` attached returns bit-identical
results to an untraced run, and the search trace hooks never touch the
optimizer RNG, so traced and untraced searches walk the same trajectory.
"""

import dataclasses
import json

import pytest

import repro.exec.engine as engine_mod
from repro.exec import ExecDefaults, SweepPoint, run_sweep
from repro.obs.manifest import (
    RunManifest,
    SearchTrace,
    SweepTelemetry,
    config_digest,
    git_sha,
)
from repro.obs.replay import (
    format_span_summary,
    load_events,
    spans_to_chrome,
    split_records,
    summarize_spans,
    write_events,
)
from repro.search.objectives import PlacementEvaluator
from repro.search.optimize import evolutionary_search, simulated_annealing

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


class TestConfigDigest:
    def test_stable_and_order_insensitive(self):
        a = config_digest({"rate": 0.05, "layout": "baseline"})
        b = config_digest({"layout": "baseline", "rate": 0.05})
        assert a == b and len(a) == 64

    def test_value_sensitive(self):
        assert config_digest({"rate": 0.05}) != config_digest({"rate": 0.06})


class TestSweepTelemetry:
    def test_serial_sweep_records_one_span_per_point(self):
        telemetry = SweepTelemetry()
        points = _points()
        results = run_sweep(points, cache=None, telemetry=telemetry)
        assert len(results) == len(points)
        assert len(telemetry.spans) == len(points)
        for span, point in zip(telemetry.spans, points):
            assert span["type"] == "span"
            assert span["kind"] == "sweep_point"
            assert span["name"] == point.label
            assert span["config_digest"] == point.key()
            assert span["sim_s"] > 0
            assert span["attempts"] == 1
            assert span["cache_hit"] is False
            assert span["error"] is None

    def test_telemetry_does_not_perturb_results(self):
        # One runner whether or not spans are recorded: on == off, on
        # the serial backend and across a two-worker pool.
        points = _points()
        for jobs in (1, 2):
            untraced = run_sweep(points, jobs=jobs, cache=None, telemetry=None)
            traced = run_sweep(
                points, jobs=jobs, cache=None, telemetry=SweepTelemetry()
            )
            assert [r.to_dict() for r in traced] == [
                r.to_dict() for r in untraced
            ]

    def test_process_backend_records_worker_pids(self):
        telemetry = SweepTelemetry()
        run_sweep(
            _points(), jobs=2, backend="process", cache=None,
            telemetry=telemetry,
        )
        assert len(telemetry.spans) == 3
        assert all(s["worker"] is not None for s in telemetry.spans)
        assert all(
            s["queue_wait_s"] >= 0 and s["start_s"] is not None
            for s in telemetry.spans
        )

    def test_cache_hits_become_zero_cost_spans(self, tmp_path):
        cache = str(tmp_path / "sweeps.sqlite")
        run_sweep(_points(), cache=cache)  # warm
        telemetry = SweepTelemetry()
        run_sweep(_points(), cache=cache, telemetry=telemetry)
        assert len(telemetry.spans) == 3
        assert all(s["cache_hit"] for s in telemetry.spans)
        assert all(s["sim_s"] == 0.0 and s["attempts"] == 0
                   for s in telemetry.spans)

    def test_summary_and_chrome_events(self):
        telemetry = SweepTelemetry()
        run_sweep(_points(), cache=None, telemetry=telemetry)
        summary = telemetry.summary()
        assert summary["points"] == 3
        assert summary["cache_hits"] == 0
        assert summary["errors"] == 0
        assert summary["total_sim_s"] > 0
        events = telemetry.chrome_trace_events()
        assert len(events) == 3
        assert all(e["ph"] == "X" and e["dur"] > 0 for e in events)


class TestSearchTrace:
    def test_sa_trace_is_rng_neutral(self):
        evaluator = PlacementEvaluator(4)
        kwargs = dict(num_big=4, seed=7, steps=60, restarts=2, polish_top=1)
        untraced = simulated_annealing(evaluator, **kwargs)
        trace = SearchTrace(every=10)
        traced = simulated_annealing(
            PlacementEvaluator(4), telemetry=trace, **kwargs
        )
        assert traced.best_placement == untraced.best_placement
        assert traced.best.scalar == untraced.best.scalar
        assert traced.history == untraced.history
        assert trace.records
        assert all(r["kind"] == "search_step" for r in trace.records)
        curve = trace.best_curve()
        assert curve == sorted(curve)  # best-so-far is monotone

    def test_ga_trace_records_generations(self):
        trace = SearchTrace()
        evolutionary_search(
            PlacementEvaluator(4), num_big=4, seed=5, generations=4,
            population=8, telemetry=trace,
        )
        generations = [
            r for r in trace.records if r["kind"] == "search_generation"
        ]
        assert len(generations) == 4
        assert all("best" in r for r in generations)


class TestReplayIntegration:
    def test_span_file_round_trip(self, tmp_path):
        telemetry = SweepTelemetry()
        run_sweep(_points(), cache=None, telemetry=telemetry)
        trace = SearchTrace(every=20)
        simulated_annealing(
            PlacementEvaluator(4), num_big=4, seed=3, steps=40,
            restarts=1, polish_top=1, telemetry=trace,
        )
        path = write_events(
            tmp_path / "spans.jsonl", telemetry.spans + trace.records
        )
        events = load_events(path)
        trace_events, spans = split_records(events)
        assert trace_events == []
        assert len(spans) == len(telemetry.spans) + len(trace.records)
        # Replay reads back exactly what the run recorded: the manifest's
        # sweep summary and the Chrome spans, config digests included.
        summary = summarize_spans(spans)
        assert summary == telemetry.summary()
        assert summary["points"] == 3 and summary["errors"] == 0
        chrome = spans_to_chrome(spans)
        assert chrome == telemetry.chrome_trace_events()
        assert len(chrome) == 3  # sweep spans only
        assert [e["args"]["config_digest"] for e in chrome] == [
            s["config_digest"][:12] for s in telemetry.spans
        ]
        text = format_span_summary(spans)
        assert "sweep points     3" in text
        assert f"search records   {len(trace.records)}" in text


class TestRunManifest:
    def test_collect_and_round_trip(self, tmp_path):
        telemetry = SweepTelemetry()
        points = _points()
        run_sweep(points, cache=None, telemetry=telemetry)
        manifest = RunManifest.collect(
            "unit-test",
            created_at="2026-08-08T00:00:00Z",
            config={"rate": 0.05},
            points=points,
            telemetry=telemetry,
            argv=["prog", "--flag"],
            extra={"note": "hi"},
        )
        assert manifest.created_at == "2026-08-08T00:00:00Z"
        assert manifest.config_sha256 == config_digest({"rate": 0.05})
        assert [p["config_digest"] for p in manifest.points] == [
            p.key() for p in points
        ]
        assert manifest.sweep_summary["points"] == 3
        path = tmp_path / "manifest.json"
        manifest.write_json(path)
        loaded = RunManifest.read_json(path)
        assert loaded.name == "unit-test"
        assert loaded.points == manifest.points
        assert loaded.extra == {"note": "hi"}
        # git_sha is best-effort; in this repo it should resolve.
        document = json.loads(path.read_text())
        assert "git_sha" in document and "python" in document

    def test_git_sha_shape(self):
        sha = git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set(
            "0123456789abcdef"
        ))
