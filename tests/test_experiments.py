"""Smoke tests for every experiment harness (tiny parameterizations).

Each paper table/figure has a harness; these tests run them end to end
with reduced inputs, verifying the structure of what they report and the
invariant parts of their results (exact Table 1 numbers, correct layout
orderings where cheap to check).
"""

import functools

import pytest

from repro.experiments import (
    fig01_utilization,
    fig02_other_topologies,
    fig07_ur_traffic,
    fig08_breakdown,
    fig09_nn_traffic,
    fig10_torus,
    fig12_ipc,
    fig13_memctrl,
    table1_router_model,
)
from repro.cmp import CmpSystem
from repro.exec import SweepPoint, execute_point
from repro.experiments.common import (
    format_table,
    percent_change,
    percent_reduction,
    point_metrics,
)
from repro.traffic.trace import TraceRecord


class TestCommon:
    def test_percent_helpers(self):
        assert percent_change(110, 100) == pytest.approx(10.0)
        assert percent_reduction(90, 100) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            percent_change(1, 0)

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_point_metrics_keys(self):
        sample = point_metrics(execute_point(SweepPoint(
            layout="baseline", rate=0.02, seed=11,
            warmup_packets=20, measure_packets=80,
        )))
        assert set(sample) >= {
            "latency_ns", "throughput", "power_w", "power_breakdown",
            "blocking_cycles", "queuing_cycles", "transfer_cycles",
        }


class TestTable1:
    def test_exact_reproduction(self):
        data = table1_router_model.run()
        for label, paper in table1_router_model.PAPER_VALUES.items():
            row = data["routers"][label]
            assert row["power_w"] == pytest.approx(paper[0], rel=0.03)
            assert row["area_mm2"] == pytest.approx(paper[1], abs=0.002)
            assert row["frequency_ghz"] == pytest.approx(paper[2])
        acc = data["accounting"]
        assert acc["baseline_buffer_bits"] == 921_600
        assert acc["hetero_buffer_bits"] == 614_400
        assert acc["buffer_bit_reduction"] == pytest.approx(1 / 3)


class TestFig01:
    def test_center_hotter_than_edge(self):
        data = fig01_utilization.run(rate=0.05)
        assert data["center_buffer_util"] > data["edge_buffer_util"]
        assert data["center_link_util"] > data["edge_link_util"]
        grid = data["buffer_utilization"]
        assert len(grid) == 8 and len(grid[0]) == 8


class TestFig02:
    def test_nonuniform_in_both_topologies(self):
        data = fig02_other_topologies.run()
        hi, lo = data["cmesh_max_min"]
        assert hi > lo
        assert len(data["fbfly_buffer_utilization"]) == 4


class TestFig07:
    def test_structure_and_power_ordering(self):
        data = fig07_ur_traffic.run(
            rates=(0.02, 0.05), layouts=("baseline", "diagonal+BL")
        )
        assert set(data["curves"]) == {"baseline", "diagonal+BL"}
        assert len(data["curves"]["baseline"]) == 2
        summary = data["summary"]["diagonal+BL"]
        # The robust headline: the +BL network consumes less power.
        assert summary["power_reduction_pct"] > 0


class TestFig08:
    def test_breakdowns_sum(self):
        data = fig08_breakdown.run(
            rate=0.04, layouts=("baseline", "diagonal+BL")
        )
        for layout, parts in data["latency"].items():
            assert parts["total"] == pytest.approx(
                parts["blocking"] + parts["queuing"] + parts["transfer"]
            )
        base = data["power"]["baseline"]
        hetero = data["power"]["diagonal+BL"]
        assert hetero["total"] < base["total"]
        assert hetero["buffers"] < base["buffers"]


class TestFig09:
    def test_nn_anomaly_direction(self):
        data = fig09_nn_traffic.run(
            rates=(0.04, 0.08), layouts=("baseline", "diagonal+BL")
        )
        # Paper's anomaly: hetero is WORSE under NN (one-hop flows cross
        # the de-provisioned edge routers; strict flit mode).
        summary = data["summary"]["diagonal+BL"]
        assert summary["avg_latency_change_pct"] > 0.0
        assert summary["throughput_change_pct"] < 2.0


class TestFig13:
    def test_closed_loop_orderings(self):
        results = {}
        for name, (placement, layout) in fig13_memctrl.CONFIGURATIONS.items():
            results[name] = fig13_memctrl.run_closed_loop_ur(
                placement, layout, num_requests=640, seed=3
            )
        # 16 distributed controllers always beat 4 corner controllers.
        assert (
            results["diamond_homo"].mean_latency
            < results["corners_homo"].mean_latency
        )
        # The best configuration is diagonal MCs on the hetero network.
        assert (
            results["diagonal_hetero"].mean_latency
            <= results["diamond_homo"].mean_latency * 1.05
        )


class TestFig10Runner:
    def test_app_traffic_runner(self):
        from repro.core.layouts import baseline_layout, build_network

        network = build_network(baseline_layout(8))
        latency, unfinished = fig10_torus.run_app_traffic(
            network, "SPECjbb", rate=0.05,
            warmup_packets=30, measure_packets=120, seed=3,
        )
        assert latency > 0
        assert unfinished == 0

    def test_truncated_drain_is_reported_not_hidden(self, monkeypatch):
        capped = functools.partial(fig10_torus.run_app_traffic, drain_cycle_cap=1)
        monkeypatch.setattr(fig10_torus, "run_app_traffic", capped)
        data = fig10_torus.run(workloads=("SAP",))
        assert min(data["unfinished"][t]["SAP"] for t in ("mesh", "torus")) > 0
        report = fig10_torus.format_reductions(data)
        assert report.count("%*") == 2
        assert "2 such point(s) excluded from the averages" in report
        assert "torus benefit: n/a" in report
        data["unfinished"] = {"mesh": {"SAP": 0}, "torus": {"SAP": 0}}
        assert "*" not in fig10_torus.format_reductions(data)

    def test_ur_crosscheck_shape(self):
        ur = fig10_torus.run_uniform_random()
        assert ur["torus_reduction_pct"] < ur["mesh_reduction_pct"]


class TestFig11Runner:
    def test_row_structure(self):
        from repro.experiments.fig11_applications import run

        data = run(
            workloads=("frrt",),
            layouts=("baseline", "diagonal+BL"),
            records_per_core=100,
            seed=3,
        )
        result = data["results"]["frrt"]["diagonal+BL"]
        assert result["ipc"] > 0
        assert result["power_w"] > 0
        assert result["net_latency_cycles"] > 0
        assert result["cycles"] > 0


class TestFig12Runner:
    def test_improvements_computed(self):
        from repro.experiments.fig12_ipc import run

        data = run(
            commercial=("SPECjbb",),
            parsec=(),
            layouts=("baseline", "diagonal+BL"),
            records_per_core=100,
            seed=3,
        )
        assert "diagonal+BL" in data["improvements"]
        assert "SPECjbb" in data["improvements"]["diagonal+BL"]
        assert data["ipc"]["SPECjbb"]["baseline"] > 0

    def test_records_per_core_passed_through(self, monkeypatch):
        sizes = []

        def stub_core_traces(workload, nodes, records_per_core, seed):
            sizes.append(records_per_core)
            # One core, one miss: a CMP run of a few hundred cycles.
            return {0: [TraceRecord(gap=0, is_write=False, address=1 << 20)]}

        monkeypatch.setattr(fig12_ipc, "core_traces", stub_core_traces)
        fig12_ipc.run(records_per_core=450)
        assert sizes and set(sizes) == {450}
        sizes.clear()
        fig12_ipc.run()  # the size run_all prints
        assert sizes and set(sizes) == {400}


class TestCmpHarnessesRunTheRecipe:
    """Every full-system harness runs its CMPs through
    :meth:`CmpSystem.measure`, the recipe the golden fixture pins."""

    @pytest.fixture
    def measured(self, monkeypatch):
        calls = []
        measure = CmpSystem.measure

        def counted(system, *args, **kwargs):
            calls.append(system)
            return measure(system, *args, **kwargs)

        monkeypatch.setattr(CmpSystem, "measure", counted)
        return calls

    def test_fig11(self, measured):
        from repro.experiments import fig11_applications

        fig11_applications.run(
            workloads=("SAP",), layouts=("baseline", "diagonal+BL"),
            records_per_core=20, seed=3,
        )
        assert len(measured) == 2

    def test_fig12(self, measured):
        fig12_ipc.run(
            commercial=("SAP",), parsec=(),
            layouts=("baseline", "diagonal+BL"), records_per_core=20, seed=3,
        )
        assert len(measured) == 2

    def test_fig13_app_mode(self, measured):
        fig13_memctrl.run(
            workloads=("frrt",), num_requests=64, records_per_core=20, seed=3
        )
        assert len(measured) == len(fig13_memctrl.CONFIGURATIONS)

    def test_fig14_on_4x4(self, measured):
        from repro.experiments import fig14_asymmetric

        fig14_asymmetric.run(records_large=20, records_small=20, mesh_size=4)
        # Each network: libquantum alone, SPECjbb alone, both together.
        assert len(measured) == 3 * len(fig14_asymmetric.NETWORKS)

    def test_golden_cmp_rows(self, measured):
        from tests.test_golden_cmp import run_row

        run_row("SAP/baseline", "event")
        assert len(measured) == 1


class TestAblationHarness:
    def test_variants_present(self):
        from repro.experiments.ablation_mechanisms import run

        data = run(rate=0.04)
        assert set(data) == {
            "baseline",
            "diagonal+BL",
            "diagonal+BL/no-merging",
            "diagonal+BL/strict-flits",
            "scattered+BL",
        }
        assert data["diagonal+BL/no-merging"]["merge_fraction"] == 0.0
        assert data["diagonal+BL"]["merge_fraction"] > 0.0


class TestSensitivityHarness:
    def test_power_monotone_in_big_count(self):
        from repro.experiments.sensitivity_big_routers import run

        data = run(budgets=(8, 24))
        rows = {row["num_big"]: row for row in data["rows"]}
        assert rows[24]["power_w"] > rows[8]["power_w"]
        assert data["max_big_power_neutral"] == 26
