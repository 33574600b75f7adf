"""Table 1: homogeneous vs heterogeneous router characteristics.

Reproduces the paper's router comparison -- power (at the 50 % activity
reference), area and frequency for the baseline, small and big routers --
and the network-level buffer accounting: both networks hold 4,800 buffer
slots, but the heterogeneous slots are 128 b instead of 192 b, a 33 %
reduction in storage bits (921,600 -> 614,400).
"""

from __future__ import annotations

from typing import Dict

from repro.core.hetero import (
    buffer_reduction_fraction,
    total_buffer_bits,
    total_buffer_flits,
    total_vcs,
)
from repro.core.layouts import baseline_layout, layout_by_name
from repro.core.power import (
    RouterPowerModel,
    router_area_mm2,
    router_frequency_ghz,
)
from repro.experiments.common import format_table
from repro.noc.config import ROUTER_KINDS, router_config


def run() -> Dict[str, object]:
    """Each router's modelled power / area / clock beside Table 1's
    (``paper``), keyed by a label like ``"big (6VC/256b)"``, and the
    network buffer accounting."""
    model = RouterPowerModel()
    rows = {}
    for kind, row in ROUTER_KINDS.items():
        config = router_config(kind)
        rows[f"{kind} ({row.num_vcs}VC/{row.link_width}b)"] = {
            "power_w": model.table1_power(config),
            "area_mm2": router_area_mm2(config),
            "frequency_ghz": router_frequency_ghz(config.num_vcs),
            "paper": (row.power_w, row.area_mm2, row.frequency_ghz),
        }

    base_configs = baseline_layout().router_configs()
    hetero_configs = layout_by_name("diagonal+BL").router_configs("strict")
    accounting = {
        "baseline_buffer_slots": total_buffer_flits(base_configs),
        "hetero_buffer_slots": total_buffer_flits(hetero_configs),
        "baseline_buffer_bits": total_buffer_bits(base_configs),
        "hetero_buffer_bits": total_buffer_bits(hetero_configs),
        "baseline_total_vcs": total_vcs(base_configs),
        "hetero_total_vcs": total_vcs(hetero_configs),
        "buffer_bit_reduction": buffer_reduction_fraction(
            hetero_configs, base_configs
        ),
    }
    return {"routers": rows, "accounting": accounting}


def main() -> None:
    data = run()
    rows = []
    for label, values in data["routers"].items():
        paper_p, paper_a, paper_f = values["paper"]
        rows.append(
            [
                label,
                f"{values['power_w']:.2f} ({paper_p:.2f})",
                f"{values['area_mm2']:.3f} ({paper_a:.3f})",
                f"{values['frequency_ghz']:.2f} ({paper_f:.2f})",
            ]
        )
    print(
        format_table(
            ["router", "power W (paper)", "area mm2 (paper)", "freq GHz (paper)"],
            rows,
            "Table 1: router characteristics, modelled (paper)",
        )
    )
    acc = data["accounting"]
    print()
    print(f"buffer slots: {acc['baseline_buffer_slots']} -> {acc['hetero_buffer_slots']} (paper: 4800 -> 4800)")
    print(f"buffer bits : {acc['baseline_buffer_bits']} -> {acc['hetero_buffer_bits']} (paper: 921600 -> 614400)")
    print(f"total VCs   : {acc['baseline_total_vcs']} -> {acc['hetero_total_vcs']} (constant by construction)")
    print(f"buffer-bit reduction: {100 * acc['buffer_bit_reduction']:.1f}% (paper: 33%)")
