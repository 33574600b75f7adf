"""Tests for the calibrated power/area/frequency models."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.layouts import layout_by_name, build_network
from repro.core.power import (
    CALIBRATION_ACTIVITY,
    RouterPowerModel,
    heteronoc_frequency_ghz,
    network_power_breakdown,
    router_area_mm2,
    router_frequency_ghz,
)
from repro.noc.config import ROUTER_KINDS, router_config
from repro.traffic.patterns import UniformRandom
from repro.traffic.runner import run_synthetic


_SRC = str(Path(__file__).resolve().parents[1] / "src")

_CALIBRATION = (
    "from repro.core.power import RouterPowerModel, router_area_mm2\n"
    "from repro.noc.config import ROUTER_KINDS, router_config\n"
    "model = RouterPowerModel()\n"
    "routers = [router_config(kind) for kind in ROUTER_KINDS]\n"
    "numbers = [value.hex() for _name, value in sorted(model._coeff.items())]\n"
    "numbers += [router_area_mm2(r).hex() for r in routers]\n"
    "numbers += [model.table1_power(r).hex() for r in routers]\n"
)


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestSolversAreLoadedOnDemand:
    """numpy and scipy serve one 3x3 solve and one bounded least-squares
    fit; a CMP run, a job client and a store replay never ask for either."""

    def test_cmp_exec_and_client_import_neither(self):
        _python(
            "import repro.cmp, repro.exec, repro.serve.client, sys\n"
            "loaded = {'numpy', 'scipy'} & {m.split('.')[0] for m in sys.modules}\n"
            "assert not loaded, loaded\n"
        )

    def test_a_full_system_run_imports_neither(self):
        _python(
            "import sys\n"
            "from repro.cmp import CmpSystem\n"
            "from repro.core.layouts import baseline_layout\n"
            "from repro.traffic.workloads import core_traces\n"
            "system = CmpSystem(baseline_layout(4), core_traces('SAP', range(16), 5, 1))\n"
            "system.measure()\n"
            "loaded = {'numpy', 'scipy'} & {m.split('.')[0] for m in sys.modules}\n"
            "assert not loaded, loaded\n"
        )

    def test_calibration_does_not_depend_on_when_they_load(self):
        """Same solver, same bits: loaded by the first call that needs
        them, or long before it."""
        report = "import json; print(json.dumps(numbers))\n"
        late = json.loads(_python(
            "import sys, repro.cmp\n"
            "assert 'scipy' not in sys.modules\n" + _CALIBRATION + report
        ))
        early = json.loads(_python(
            "import numpy, scipy.optimize\n" + _CALIBRATION + report
        ))
        scope = {}
        exec(_CALIBRATION, scope)
        assert late == early == scope["numbers"]
        assert len(late) == 12


class TestTable1IsOneTable:
    """Every reader of Table 1 reads ``ROUTER_KINDS``: change one figure
    and the power inequality, the search's power slack and the Table 1
    harness all move with it."""

    @staticmethod
    def _readings():
        from repro.core import power
        from repro.core.hetero import min_small_routers
        from repro.experiments import table1_router_model
        from repro.search import PlacementEvaluator

        power._calibrated_weights.cache_clear()
        power._area_coefficients.cache_clear()
        big = table1_router_model.run()["routers"]["big (6VC/256b)"]
        return (
            min_small_routers(8),
            PlacementEvaluator(8).power_slack(16),
            big["paper"][0],
            big["power_w"],
        )

    def test_a_changed_row_moves_every_reader(self, monkeypatch):
        before = self._readings()
        monkeypatch.setitem(
            ROUTER_KINDS, "big", dataclasses.replace(ROUTER_KINDS["big"], power_w=1.30)
        )
        try:
            after = self._readings()
        finally:
            monkeypatch.undo()
            assert self._readings() == before
        assert before[:3] == (38, pytest.approx(0.22015, abs=1e-5), 1.19)
        assert after[:3] == (41, pytest.approx(0.17910, abs=1e-5), 1.30)
        assert after[3] > before[3]


class TestFrequencyModel:
    def test_table1_anchors_exact(self):
        assert router_frequency_ghz(3) == pytest.approx(2.20)
        assert router_frequency_ghz(2) == pytest.approx(2.25)
        assert router_frequency_ghz(6) == pytest.approx(2.07)

    def test_heteronoc_runs_at_big_router_clock(self):
        assert heteronoc_frequency_ghz() == pytest.approx(2.07)

    def test_more_vcs_slower(self):
        frequencies = [router_frequency_ghz(v) for v in (2, 3, 4, 6, 8, 12)]
        assert frequencies == sorted(frequencies, reverse=True)

    def test_rejects_zero_vcs(self):
        with pytest.raises(ValueError):
            router_frequency_ghz(0)


class TestAreaModel:
    def test_table1_areas_exact(self):
        assert router_area_mm2(router_config("baseline")) == pytest.approx(0.290, abs=1e-3)
        assert router_area_mm2(router_config("small")) == pytest.approx(0.235, abs=1e-3)
        assert router_area_mm2(router_config("big")) == pytest.approx(0.425, abs=1e-3)

    def test_big_router_area_delta_matches_paper(self):
        """Section 3.5: big +46%, small -18% vs baseline."""
        base = router_area_mm2(router_config("baseline"))
        assert (router_area_mm2(router_config("big")) - base) / base == pytest.approx(
            0.466, abs=0.02
        )
        assert (router_area_mm2(router_config("small")) - base) / base == pytest.approx(
            -0.19, abs=0.02
        )

    def test_total_hetero_area_below_homogeneous(self):
        """Section 3.5: 18.08 mm2 vs 18.56 mm2."""
        hetero = 48 * router_area_mm2(router_config("small")) + 16 * router_area_mm2(
            router_config("big")
        )
        homo = 64 * router_area_mm2(router_config("baseline"))
        assert hetero == pytest.approx(18.08, abs=0.05)
        assert homo == pytest.approx(18.56, abs=0.05)
        assert hetero < homo


class TestPowerModel:
    def test_table1_power_anchors(self):
        model = RouterPowerModel()
        for kind, row in ROUTER_KINDS.items():
            assert model.table1_power(router_config(kind)) == pytest.approx(
                row.power_w, rel=0.03
            )

    def test_buffer_share_near_paper(self):
        """Refs [29, 30]: buffers ~= 35% of router power."""
        model = RouterPowerModel()
        power = model.power_at_activity(router_config("baseline"), CALIBRATION_ACTIVITY)
        assert power.buffers / power.total == pytest.approx(0.35, abs=0.08)

    def test_dynamic_power_scales_with_activity(self):
        model = RouterPowerModel()
        idle = model.power_at_activity(router_config("baseline"), 0.0)
        busy = model.power_at_activity(router_config("baseline"), 1.0)
        assert busy.total > idle.total
        # Leakage persists at zero activity.
        assert idle.total > 0

    def test_activity_bounds(self):
        model = RouterPowerModel()
        with pytest.raises(ValueError):
            model.power_at_activity(router_config("baseline"), 1.5)

    def test_power_from_counts_scaling(self):
        model = RouterPowerModel()
        low = model.power_from_counts(
            router_config("baseline"), 2.2, cycles=1000, flit_traversals=500, link_flits=400
        )
        high = model.power_from_counts(
            router_config("baseline"), 2.2, cycles=1000, flit_traversals=2000, link_flits=1600
        )
        assert high.total > low.total
        with pytest.raises(ValueError):
            model.power_from_counts(router_config("baseline"), 2.2, 0, 1, 1)

    def test_power_inequality_threshold(self):
        """The Table 1 numbers give the paper's 1.71 threshold ratio."""
        power = {kind: row.power_w for kind, row in ROUTER_KINDS.items()}
        ratio = (power["big"] - power["small"]) / (power["big"] - power["baseline"])
        assert ratio == pytest.approx(1.71, abs=0.01)


class TestNetworkPower:
    def _run(self, layout_name, rate=0.04):
        network = build_network(layout_by_name(layout_name))
        result = run_synthetic(
            network, UniformRandom(64), rate=rate,
            warmup_packets=50, measure_packets=300, seed=6,
        )
        return network, result

    def test_breakdown_components_positive(self):
        network, result = self._run("baseline")
        breakdown = network_power_breakdown(network, result.stats)
        for key in ("buffers", "crossbar", "arbiters_logic", "links", "total"):
            assert breakdown[key] >= 0
        assert breakdown["total"] == pytest.approx(
            breakdown["buffers"]
            + breakdown["crossbar"]
            + breakdown["arbiters_logic"]
            + breakdown["links"]
        )

    def test_hetero_bl_saves_power(self):
        """The headline power claim: +BL layouts consume less."""
        _, base_result = self._run("baseline")
        base_network, base_result = self._run("baseline")
        hetero_network, hetero_result = self._run("diagonal+BL")
        base_power = network_power_breakdown(base_network, base_result.stats)
        hetero_power = network_power_breakdown(hetero_network, hetero_result.stats)
        assert hetero_power["total"] < base_power["total"]
        # Buffer power drops the most (33% fewer bits).
        assert hetero_power["buffers"] < base_power["buffers"]

    def test_requires_measurement_window(self):
        network = build_network(layout_by_name("baseline"))
        with pytest.raises(ValueError):
            network_power_breakdown(network, network.stats)
