"""Tests for the CSV export helpers."""

import csv

import pytest

from repro.experiments.export import (
    export_experiment,
    flatten_curves,
    flatten_grid,
    write_rows,
)


class TestWriteRows:
    def test_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = write_rows(tmp_path / "out.csv", rows)
        with path.open() as handle:
            back = list(csv.DictReader(handle))
        assert back == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]

    def test_creates_directories(self, tmp_path):
        path = write_rows(tmp_path / "deep" / "nested" / "out.csv", [{"a": 1}])
        assert path.exists()

    def test_explicit_fieldnames_subset(self, tmp_path):
        path = write_rows(
            tmp_path / "out.csv", [{"a": 1, "b": 2}], fieldnames=["b"]
        )
        with path.open() as handle:
            assert list(csv.DictReader(handle)) == [{"b": "2"}]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows(tmp_path / "out.csv", [])


class TestFlatteners:
    def test_flatten_grid(self):
        records = flatten_grid([[0.1, 0.2], [0.3, 0.4]], value_name="util")
        assert records[0] == {"row": 0, "col": 0, "util": 0.1}
        assert records[-1] == {"row": 1, "col": 1, "util": 0.4}
        assert len(records) == 4

    def test_flatten_curves(self):
        records = flatten_curves(
            {"baseline": [{"rate": 0.01, "lat": 10.0}]}, series_name="layout"
        )
        assert records == [{"layout": "baseline", "rate": 0.01, "lat": 10.0}]


class TestExportExperiment:
    def test_exports_recognized_shapes(self, tmp_path):
        data = {
            "curves": {"baseline": [{"rate": 0.01, "latency_ns": 9.0}]},
            "buffer_utilization": [[0.1, 0.2], [0.3, 0.4]],
            "rows": [{"num_big": 8, "power_w": 20.0}],
            "scalar_ignored": 42,
        }
        written = export_experiment("fig", data, tmp_path)
        names = {p.name for p in written}
        assert names == {
            "fig_curves.csv",
            "fig_buffer_utilization.csv",
            "fig_rows.csv",
        }

    def test_real_harness_output_exports(self, tmp_path):
        from repro.experiments import fig01_utilization

        data = fig01_utilization.run()
        written = export_experiment("fig01", data, tmp_path)
        assert any("buffer_utilization" in p.name for p in written)
        # Each heat-map CSV has 64 data rows for the 8x8 mesh.
        target = next(p for p in written if "buffer_utilization" in p.name)
        with target.open() as handle:
            assert len(list(csv.DictReader(handle))) == 64
