"""Router power, area and frequency models calibrated to the paper's
Table 1.

The authors synthesized their router in structural RTL (Synopsys, 65 nm)
and fed Orion-derived dynamic/leakage numbers into the simulator.  Neither
tool chain is available here, so we build an *analytical* model with
physically-motivated scalings and calibrate its free constants against the
paper's own anchors:

====================  ========  ==========  =========
router                power     area        frequency
====================  ========  ==========  =========
baseline 3VC/192b     0.67 W    0.290 mm2   2.20 GHz
small    2VC/128b     0.30 W    0.235 mm2   2.25 GHz
big      6VC/256b     1.19 W    0.425 mm2   2.07 GHz
====================  ========  ==========  =========

(power quoted at a 50 % activity factor, the paper's footnote 3).

Component scalings (per router, P ports, V VCs/PC, flit width Wf, crossbar
/link width Wl, clock f):

* buffer dynamic -- per-flit read+write energy proportional to ``Wf``;
* buffer leakage -- proportional to total buffer bits ``V*P*D*Wf``;
* crossbar -- per-flit traversal energy proportional to ``Wl**2`` (wire
  capacitance grows with both crossbar dimensions);
* VC/switch allocation -- per-flit energy proportional to ``(P*V)**2``
  (the VA matching logic is the dominating, fastest-growing stage,
  Section 3.4);
* link -- per-flit energy proportional to ``Wf``;
* baseline leakage -- proportional to router area.

The six baseline component weights are fitted (non-negative least squares)
so that the three Table 1 power anchors are matched tightly and the
component shares stay near the paper's reported breakdown (buffers ~= 35 %
of router power).  The *anchors* are reproduced to about a percent; the
component shares are approximate, which is fine because every HeteroNoC
power claim is about totals and relative deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict

from repro.noc.config import (
    BASELINE_FREQUENCY_GHZ,
    BIG_FREQUENCY_GHZ,
    BIG_VCS,
    MESH_PORTS,
    SMALL_FREQUENCY_GHZ,
    SMALL_VCS,
    RouterConfig,
    baseline_router,
    big_router,
    small_router,
)

if TYPE_CHECKING:
    import numpy as np

TABLE1_POWER_W = {"baseline": 0.67, "small": 0.30, "big": 1.19}
TABLE1_AREA_MM2 = {"baseline": 0.290, "small": 0.235, "big": 0.425}
TABLE1_FREQUENCY_GHZ = {
    "baseline": BASELINE_FREQUENCY_GHZ,
    "small": SMALL_FREQUENCY_GHZ,
    "big": BIG_FREQUENCY_GHZ,
}
CALIBRATION_ACTIVITY = 0.5
#: fraction of port traversals that continue over an inter-router link
#: (4 of 5 mesh ports are network ports).
_LINK_FRACTION = 4.0 / 5.0

_COMPONENTS = ("buf_dyn", "buf_leak", "xbar", "allocator", "link", "base_leak")


# -- frequency model (Section 3.4) --------------------------------------------
def router_frequency_ghz(num_vcs: int) -> float:
    """Clock achievable by a router with ``num_vcs`` VCs per channel.

    The three Table 1 points are returned exactly; other VC counts use the
    critical-path model ``t = a + b*log2(V)`` fitted through the 3-VC and
    6-VC anchors (the VA stage dominates and grows with the VC count).
    """
    if num_vcs < 1:
        raise ValueError(f"num_vcs must be >= 1, got {num_vcs}")
    anchors = {SMALL_VCS: 2.25, 3: 2.20, BIG_VCS: 2.07}
    if num_vcs in anchors:
        return anchors[num_vcs]
    t3 = 1.0 / 2.20
    t6 = 1.0 / 2.07
    slope = (t6 - t3) / (math.log2(6) - math.log2(3))
    intercept = t3 - slope * math.log2(3)
    return 1.0 / (intercept + slope * math.log2(num_vcs))


def heteronoc_frequency_ghz() -> float:
    """Worst-case clock of a heterogeneous network: the big router's."""
    return router_frequency_ghz(BIG_VCS)


# -- area model (Section 3.5) ---------------------------------------------------
@lru_cache(maxsize=1)
def _area_coefficients() -> np.ndarray:
    """Solve area = c0 + c_bits*buffer_bits + c_alloc*(P*V)^2 through the
    three Table 1 areas (an exact 3x3 linear solve; all terms positive)."""
    # Imported here, like scipy below: a CMP run, a job client or a store
    # replay loads this module and never asks for an area or a Watt.
    import numpy as np

    rows = []
    targets = []
    for cfg, kind in (
        (baseline_router(), "baseline"),
        (small_router(), "small"),
        (big_router(), "big"),
    ):
        bits = cfg.buffer_bits(MESH_PORTS)
        alloc = (MESH_PORTS * cfg.num_vcs) ** 2
        rows.append([1.0, bits, alloc])
        targets.append(TABLE1_AREA_MM2[kind])
    coeffs = np.linalg.solve(np.array(rows), np.array(targets))
    if (coeffs < 0).any():
        raise RuntimeError(f"area model produced negative coefficients: {coeffs}")
    return coeffs


def router_area_mm2(config: RouterConfig, num_ports: int = MESH_PORTS) -> float:
    """Router area under the calibrated three-term model."""
    c0, c_bits, c_alloc = _area_coefficients()
    bits = config.buffer_bits(num_ports)
    alloc = (num_ports * config.num_vcs) ** 2
    return float(c0 + c_bits * bits + c_alloc * alloc)


# -- power model ------------------------------------------------------------------
def _component_raw_values(
    config: RouterConfig, frequency_ghz: float, num_ports: int = MESH_PORTS
) -> Dict[str, float]:
    """Unnormalized per-component magnitudes at the calibration activity.

    Dynamic terms carry ``frequency * flits_per_cycle * energy_scaling``;
    leakage terms carry their capacity scaling only.
    """
    flits_per_cycle = CALIBRATION_ACTIVITY * num_ports
    dyn = frequency_ghz * flits_per_cycle
    return {
        "buf_dyn": dyn * config.hw_flit_width,
        "buf_leak": float(config.buffer_bits(num_ports)),
        "xbar": dyn * config.hw_link_width**2,
        "allocator": dyn * (num_ports * config.num_vcs) ** 2,
        "link": dyn * _LINK_FRACTION * config.hw_flit_width,
        "base_leak": router_area_mm2(config, num_ports),
    }


@lru_cache(maxsize=1)
def _calibrated_weights() -> Dict[str, float]:
    """Baseline power fractions per component, fitted to Table 1.

    Solves a bounded least-squares problem: hard constraints (heavily
    weighted) pin the three router power anchors; soft constraints keep
    the component shares near the paper's reported breakdown.
    """
    import numpy as np
    from scipy.optimize import lsq_linear

    base = _component_raw_values(baseline_router(), BASELINE_FREQUENCY_GHZ)
    small = _component_raw_values(small_router(), SMALL_FREQUENCY_GHZ)
    big = _component_raw_values(big_router(), BIG_FREQUENCY_GHZ)
    ratio_small = np.array(
        [small[c] / base[c] for c in _COMPONENTS]
    )
    ratio_big = np.array([big[c] / base[c] for c in _COMPONENTS])

    ones = np.ones(len(_COMPONENTS))
    buf_row = np.array(
        [1.0 if c.startswith("buf") else 0.0 for c in _COMPONENTS]
    )

    def pick(name: str) -> np.ndarray:
        return np.array([1.0 if c == name else 0.0 for c in _COMPONENTS])

    rows = [
        (ones, 1.0, 200.0),
        (ratio_small, TABLE1_POWER_W["small"] / TABLE1_POWER_W["baseline"], 200.0),
        (ratio_big, TABLE1_POWER_W["big"] / TABLE1_POWER_W["baseline"], 200.0),
        (buf_row, 0.35, 20.0),  # "buffers consume about 35% of router power"
        (pick("xbar"), 0.28, 3.0),
        # The three power anchors leave little room for link energy (its
        # frequency-x-width scaling moves the wrong way between router
        # types), so the fitted link share lands well under the paper's
        # ~17-20%; the weight below keeps it nonzero at ~2% anchor error.
        (pick("link"), 0.17, 25.0),
        (pick("base_leak"), 0.08, 1.0),
    ]
    matrix = np.array([w * row for row, _t, w in rows])
    target = np.array([w * t for _row, t, w in rows])
    solution = lsq_linear(matrix, target, bounds=(0.0, np.inf))
    weights = dict(zip(_COMPONENTS, solution.x))
    return weights


@dataclass(frozen=True)
class RouterPower:
    """One router's modelled power, split by component (Watts)."""

    buffers: float
    crossbar: float
    arbiters_logic: float
    links: float

    @property
    def total(self) -> float:
        return self.buffers + self.crossbar + self.arbiters_logic + self.links


class RouterPowerModel:
    """Calibrated per-event power model.

    ``power_at_activity`` reproduces the Table 1 methodology (a router at a
    given activity factor); ``power_from_counts`` converts simulation event
    counts (from :class:`repro.noc.stats.RouterActivity`) into Watts, which
    is how the simulator "uses the actual utilization of a router to
    calculate its power consumption" (footnote 3).
    """

    def __init__(self, num_ports: int = MESH_PORTS) -> None:
        self.num_ports = num_ports
        weights = _calibrated_weights()
        base_raw = _component_raw_values(
            baseline_router(), BASELINE_FREQUENCY_GHZ, MESH_PORTS
        )
        base_power = TABLE1_POWER_W["baseline"]
        # Per-unit coefficients: component power = coeff * raw value.
        self._coeff = {
            c: weights[c] * base_power / base_raw[c] for c in _COMPONENTS
        }

    # -- activity-factor interface (Table 1 reproduction) ---------------------
    def power_at_activity(
        self,
        config: RouterConfig,
        activity: float,
        frequency_ghz: float = None,
    ) -> RouterPower:
        if not 0.0 <= activity <= 1.0:
            raise ValueError(f"activity must be in [0, 1], got {activity}")
        frequency = (
            frequency_ghz
            if frequency_ghz is not None
            else router_frequency_ghz(config.num_vcs)
        )
        raw = _component_raw_values(config, frequency, self.num_ports)
        scale = activity / CALIBRATION_ACTIVITY
        component = {
            c: self._coeff[c]
            * raw[c]
            * (scale if not c.endswith("leak") else 1.0)
            for c in _COMPONENTS
        }
        return RouterPower(
            buffers=component["buf_dyn"] + component["buf_leak"],
            crossbar=component["xbar"],
            arbiters_logic=component["allocator"] + component["base_leak"],
            links=component["link"],
        )

    def table1_power(self, config: RouterConfig) -> float:
        """Power at the paper's 50 % activity reference point."""
        return self.power_at_activity(config, CALIBRATION_ACTIVITY).total

    # -- event-count interface (simulation power) ------------------------------
    def power_from_counts(
        self,
        config: RouterConfig,
        frequency_ghz: float,
        cycles: int,
        flit_traversals: int,
        link_flits: int,
    ) -> RouterPower:
        """Power from measured flit traversals over a window of ``cycles``.

        ``flit_traversals`` counts flits through the router (buffer read +
        write + crossbar + allocation each); ``link_flits`` counts flits
        that continued over this router's outgoing inter-router links.
        """
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        per_cycle = flit_traversals / cycles
        link_per_cycle = link_flits / cycles
        dyn = frequency_ghz * per_cycle
        dyn_link = frequency_ghz * link_per_cycle
        coeff = self._coeff
        buf_dyn = coeff["buf_dyn"] * dyn * config.hw_flit_width
        buf_leak = coeff["buf_leak"] * config.buffer_bits(self.num_ports)
        xbar = coeff["xbar"] * dyn * config.hw_link_width**2
        allocator = coeff["allocator"] * dyn * (self.num_ports * config.num_vcs) ** 2
        link = coeff["link"] * dyn_link * config.hw_flit_width
        base_leak = coeff["base_leak"] * router_area_mm2(config, self.num_ports)
        return RouterPower(
            buffers=buf_dyn + buf_leak,
            crossbar=xbar,
            arbiters_logic=allocator + base_leak,
            links=link,
        )


def network_power_breakdown(network, stats) -> Dict[str, float]:
    """Total network power (Watts) by component from a measured run.

    Args:
        network: a :class:`repro.noc.network.Network` after a run.
        stats: the :class:`repro.noc.stats.NetworkStats` of the
            measurement window.

    Returns a dict with ``buffers``, ``crossbar``, ``arbiters_logic``,
    ``links`` and ``total`` entries (the Figure 8b categories).
    """
    cycles = stats.measured_cycles
    if cycles == 0:
        raise ValueError("stats has an empty measurement window")
    model = RouterPowerModel()
    frequency = network.config.frequency_ghz
    totals = {"buffers": 0.0, "crossbar": 0.0, "arbiters_logic": 0.0, "links": 0.0}
    configs = network.router_configs
    link_flits = [0] * len(configs)
    for (src, _port), count in stats.link_flits.items():
        link_flits[src] += count
    for rid, activity in enumerate(stats.router_activity):
        power = model.power_from_counts(
            config=configs[rid],
            frequency_ghz=frequency,
            cycles=cycles,
            flit_traversals=activity.buffer_reads,
            link_flits=link_flits[rid],
        )
        totals["buffers"] += power.buffers
        totals["crossbar"] += power.crossbar
        totals["arbiters_logic"] += power.arbiters_logic
        totals["links"] += power.links
    totals["total"] = sum(totals.values())
    return totals
