"""Benchmark: regenerate Table 1 (router power/area/frequency)."""

import pytest

from benchmarks.conftest import print_banner
from repro.experiments import table1_router_model


def test_table1_router_model(benchmark):
    data = benchmark.pedantic(table1_router_model.run, rounds=1, iterations=1)
    print_banner("Table 1: router characteristics")
    for label, values in data["routers"].items():
        paper = values["paper"]
        print(
            f"{label:22s} {values['power_w']:.2f} W (paper {paper[0]:.2f}), "
            f"{values['area_mm2']:.3f} mm2 (paper {paper[1]:.3f}), "
            f"{values['frequency_ghz']:.2f} GHz (paper {paper[2]:.2f})"
        )
    acc = data["accounting"]
    print(
        f"buffer bits {acc['baseline_buffer_bits']} -> {acc['hetero_buffer_bits']} "
        f"({100 * acc['buffer_bit_reduction']:.1f}% reduction; paper 33%)"
    )
    for values in data["routers"].values():
        paper = values["paper"]
        assert values["power_w"] == pytest.approx(paper[0], rel=0.03)
        assert values["area_mm2"] == pytest.approx(paper[1], abs=0.002)
    assert acc["buffer_bit_reduction"] == pytest.approx(1 / 3)
