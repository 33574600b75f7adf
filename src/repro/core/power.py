"""Router power, area and frequency models calibrated to the paper's
Table 1.

The authors synthesized their router in structural RTL (Synopsys, 65 nm)
and fed Orion-derived dynamic/leakage numbers into the simulator.  Neither
tool chain is available here, so we build an *analytical* model with
physically-motivated scalings and calibrate its free constants against the
paper's own anchors, the power (at a 50 % activity factor, the paper's
footnote 3), area and clock of each Table 1 row in
:data:`repro.noc.config.ROUTER_KINDS`.

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
power claim is about totals and relative deltas.  Both fits (the area
solve below and the weights) answer from pinned outputs while their inputs
are the shipped Table 1's, so running a point needs neither numpy nor
scipy; a changed row refits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Tuple

from repro.noc.config import (
    MESH_PORTS,
    ROUTER_KINDS,
    RouterConfig,
    router_config,
)

CALIBRATION_ACTIVITY = 0.5
#: fraction of port traversals that continue over an inter-router link
#: (4 of 5 mesh ports are network ports).
_LINK_FRACTION = 4.0 / 5.0

_COMPONENTS = ("buf_dyn", "buf_leak", "xbar", "allocator", "link", "base_leak")


# -- frequency model (Section 3.4) --------------------------------------------
def router_frequency_ghz(num_vcs: int) -> float:
    """Clock achievable by a router with ``num_vcs`` VCs per channel.

    The three Table 1 points are returned exactly; other VC counts use the
    critical-path model ``t = a + b*log2(V)`` fitted through the baseline
    and big anchors (the VA stage dominates and grows with the VC count).
    """
    if num_vcs < 1:
        raise ValueError(f"num_vcs must be >= 1, got {num_vcs}")
    for row in ROUTER_KINDS.values():
        if row.num_vcs == num_vcs:
            return row.frequency_ghz
    base, big = ROUTER_KINDS["baseline"], ROUTER_KINDS["big"]
    t_base = 1.0 / base.frequency_ghz
    t_big = 1.0 / big.frequency_ghz
    slope = (t_big - t_base) / (math.log2(big.num_vcs) - math.log2(base.num_vcs))
    intercept = t_base - slope * math.log2(base.num_vcs)
    return 1.0 / (intercept + slope * math.log2(num_vcs))


def heteronoc_frequency_ghz() -> float:
    """Worst-case clock of a heterogeneous network: the big router's."""
    return ROUTER_KINDS["big"].frequency_ghz


# -- pinned fits ------------------------------------------------------------------
#: Outputs (float hex) of the two Table 1 fits below, keyed by their exact
#: inputs.  On these inputs a fit answers from here, so a sweep point never
#: loads numpy or scipy and the published power does not depend on the
#: installed scipy's ``trf`` iterate; any other inputs (a what-if Table 1
#: row, a changed scaling) run the solver.  ``tests/test_power.py`` checks
#: that every entry is what its solver returns.
_PINNED_FITS = {
    # area: ((1, buffer bits, (P*V)^2), area mm^2) per Table 1 row
    (
        ((1.0, 14400, 225), 0.29),
        ((1.0, 6400, 100), 0.235),
        ((1.0, 19200, 900), 0.425),
    ): ("0x1.872b020c49ba6p-3", "0x1.1b1d92b7fe089p-18", "0x1.64840e1719f80p-13"),
    # weights: (row over _COMPONENTS, target, weight) per least-squares row
    (
        ((1.0, 1.0, 1.0, 1.0, 1.0, 1.0), 1.0, 200.0),
        (
            (
                0.6818181818181818, 0.4444444444444444, 0.45454545454545453,
                0.45454545454545453, 0.6818181818181818, 0.810344827586207,
            ),
            0.4477611940298507,
            200.0,
        ),
        (
            (
                0.6272727272727272, 1.3333333333333333, 1.6727272727272726,
                3.7636363636363637, 0.6272727272727272, 1.4655172413793105,
            ),
            1.7761194029850744,
            200.0,
        ),
        ((1.0, 1.0, 0.0, 0.0, 0.0, 0.0), 0.35, 20.0),
        ((0.0, 0.0, 1.0, 0.0, 0.0, 0.0), 0.28, 3.0),
        ((0.0, 0.0, 0.0, 0.0, 1.0, 0.0), 0.17, 25.0),
        ((0.0, 0.0, 0.0, 0.0, 0.0, 1.0), 0.08, 1.0),
    ): (
        "0x0.0p+0", "0x1.7519f3959aa29p-2", "0x1.db62af4a46758p-2",
        "0x1.0b128d33eb15cp-3", "0x1.2c0a9e28f6862p-5", "0x0.0p+0",
    ),
}


def _fit(inputs: tuple, solve: Callable[[tuple], tuple]) -> Tuple[float, ...]:
    """The pinned outputs for ``inputs``, else ``solve(inputs)``."""
    pinned = _PINNED_FITS.get(inputs)
    if pinned is None:
        return solve(inputs)
    return tuple(float.fromhex(value) for value in pinned)


# -- area model (Section 3.5) ---------------------------------------------------
@lru_cache(maxsize=1)
def _area_coefficients() -> Tuple[float, float, float]:
    """Solve area = c0 + c_bits*buffer_bits + c_alloc*(P*V)^2 through the
    three Table 1 areas (an exact 3x3 linear solve; all terms positive)."""
    rows = []
    for kind, row in ROUTER_KINDS.items():
        cfg = router_config(kind)
        bits = cfg.buffer_bits(MESH_PORTS)
        alloc = (MESH_PORTS * cfg.num_vcs) ** 2
        rows.append(((1.0, bits, alloc), row.area_mm2))
    return _fit(tuple(rows), _solve_area)


def _solve_area(rows: tuple) -> Tuple[float, float, float]:
    # Imported here, like scipy below: only a Table 1 the pinned fits do
    # not cover asks for a solver.
    import numpy as np

    coeffs = np.linalg.solve(
        np.array([terms for terms, _area in rows]),
        np.array([area for _terms, area in rows]),
    )
    if (coeffs < 0).any():
        raise RuntimeError(f"area model produced negative coefficients: {coeffs}")
    return tuple(float(c) for c in coeffs)


def router_area_mm2(config: RouterConfig, num_ports: int = MESH_PORTS) -> float:
    """Router area under the calibrated three-term model."""
    c0, c_bits, c_alloc = _area_coefficients()
    bits = config.buffer_bits(num_ports)
    alloc = (num_ports * config.num_vcs) ** 2
    return c0 + c_bits * bits + c_alloc * alloc


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
    base, small, big = (
        _component_raw_values(router_config(kind), ROUTER_KINDS[kind].frequency_ghz)
        for kind in ("baseline", "small", "big")
    )
    power = {kind: row.power_w for kind, row in ROUTER_KINDS.items()}

    def pick(*names: str) -> Tuple[float, ...]:
        return tuple(1.0 if c in names else 0.0 for c in _COMPONENTS)

    rows = (
        (pick(*_COMPONENTS), 1.0, 200.0),
        (
            tuple(small[c] / base[c] for c in _COMPONENTS),
            power["small"] / power["baseline"],
            200.0,
        ),
        (
            tuple(big[c] / base[c] for c in _COMPONENTS),
            power["big"] / power["baseline"],
            200.0,
        ),
        # "buffers consume about 35% of router power"
        (pick("buf_dyn", "buf_leak"), 0.35, 20.0),
        (pick("xbar"), 0.28, 3.0),
        # The three power anchors leave little room for link energy (its
        # frequency-x-width scaling moves the wrong way between router
        # types), so the fitted link share lands well under the paper's
        # ~17-20%; the weight below keeps it nonzero at ~2% anchor error.
        (pick("link"), 0.17, 25.0),
        (pick("base_leak"), 0.08, 1.0),
    )
    return dict(zip(_COMPONENTS, _fit(rows, _solve_weights)))


def _solve_weights(rows: tuple) -> Tuple[float, ...]:
    """Non-negative weighted least squares over ``(row, target, weight)``."""
    import numpy as np
    from scipy.optimize import lsq_linear

    matrix = np.array([[w * x for x in row] for row, _t, w in rows])
    target = np.array([w * t for _row, t, w in rows])
    solution = lsq_linear(matrix, target, bounds=(0.0, np.inf))
    # A weight held at its bound is exactly 0: trf's last iterate there is
    # a residue whose bits differ between scipy builds.
    return tuple(
        0.0 if active else float(x)
        for x, active in zip(solution.x, solution.active_mask)
    )


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
        base = ROUTER_KINDS["baseline"]
        base_raw = _component_raw_values(
            router_config("baseline"), base.frequency_ghz, MESH_PORTS
        )
        base_power = base.power_w
        # Per-unit coefficients: component power = coeff * raw value.
        self._coeff = {
            c: weights[c] * base_power / base_raw[c] for c in _COMPONENTS
        }
        self._config_terms: Dict[RouterConfig, tuple] = {}

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
    def _terms(self, config: RouterConfig) -> tuple:
        """``config``'s activity-free factors: flit width, link width and
        ``(P*V)`` squared, and its buffer and baseline leakage (Watts).
        Worked out once per config, since a network repeats a few."""
        terms = self._config_terms.get(config)
        if terms is None:
            coeff = self._coeff
            terms = self._config_terms[config] = (
                config.hw_flit_width,
                config.hw_link_width**2,
                (self.num_ports * config.num_vcs) ** 2,
                coeff["buf_leak"] * config.buffer_bits(self.num_ports),
                coeff["base_leak"] * router_area_mm2(config, self.num_ports),
            )
        return terms

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
        flit_width, link_sq, alloc_sq, buf_leak, base_leak = self._terms(config)
        buf_dyn = coeff["buf_dyn"] * dyn * flit_width
        xbar = coeff["xbar"] * dyn * link_sq
        allocator = coeff["allocator"] * dyn * alloc_sq
        link = coeff["link"] * dyn_link * flit_width
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
