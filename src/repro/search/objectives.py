"""Multi-objective placement evaluation.

The footnote-4 analytic score (load-weighted coverage of X-Y flows) is a
good pre-filter but a one-dimensional one: it rewards putting big
routers where traversal counts are highest, which on its own drifts
toward center clusters.  The evaluator here scores a placement on four
physically-motivated axes (plus caller-supplied extras), so the search
can trade them off the way the paper's cycle simulations implicitly did:

``analytic``
    The footnote-4 score -- load coverage plus flow-coverage and
    row/column-spread tie-breakers -- computed under the evaluator's
    traffic weighting.
``fairness``
    Worst-source covered-traffic fraction.  The paper's stated rationale
    for the diagonal ("big routers in every row and column") is exactly
    a fairness argument: no source should be far from big-router relief.
``contention``
    A queueing estimate: each router is an M/M/1-style server whose
    service rate reflects its provisioning (link flits/cycle times a
    head-of-line factor ``V/(V+1)``), loaded with the pattern's offered
    traffic at a reference utilization.  The objective is the zero-load
    delay divided by the estimated delay, in (0, 1] -- higher means the
    placement relieves the actual bottlenecks.
``balance``
    Row/column balance of the big-router counts.  This quantifies the
    paper's stated design rationale verbatim -- "a big router in each
    row and each column" -- because X-Y routing decomposes every path
    into one row and one column segment: balanced rows and columns
    equalize big-router access across all segments, while a cluster
    over-serves a few and starves the rest.
``resilience``
    Covered-traffic fraction after the ``kill_count`` most-loaded big
    routers are removed -- the analytic twin of the
    :mod:`repro.experiments.resilience` targeted-kill study.  Placements
    that concentrate all their value in a couple of routers score low;
    :meth:`PlacementEvaluator.kill_schedule` exports the same worst-case
    kill set as a :class:`repro.faults.schedule.FaultSchedule` so the
    refinement stage can cycle-simulate it.
``power_slack``
    Fractional headroom of the Section 2 power inequality under the
    Table 1-calibrated router powers; negative when the placement's
    router mix exceeds the homogeneous budget.

A scalarization (:class:`ObjectiveWeights`) combines the axes for the
hill-climbing searches; the raw vectors feed the Pareto analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import hetero
from repro.search.canonical import (
    AXIS_SWAPPING,
    canonical_placement,
    dihedral_transforms,
)

#: service rate of a router in flits/cycle: link flits/cycle times the
#: head-of-line relief factor V/(V+1) (more VCs approach the link limit).
#: Narrow/small: 1 flit/cycle, 2 VCs; wide/big: 2 flits/cycle, 6 VCs.
SMALL_CAPACITY = 1.0 * (2.0 / 3.0)
BIG_CAPACITY = 2.0 * (6.0 / 7.0)

_PATTERNS = ("uniform_random", "hotspot")


def default_hotspots(n: int) -> Tuple[int, ...]:
    """The four quadrant-center nodes -- the classic hotspot quartet."""
    lo, hi = n // 4, n - 1 - n // 4
    return tuple(
        sorted({r * n + c for r in (lo, hi) for c in (lo, hi)})
    )


class FlowModel:
    """Precomputed traffic tensors for one (mesh size, pattern) pair.

    Rows of ``incidence`` are flows in source-major order (every
    destination of source 0, then source 1, ...); ``weights`` are
    per-flow traffic fractions normalized per source (each source
    injects 1 unit split over its destinations), so ``offered`` -- the
    per-router arrival rate at injection rate 1 -- is the pattern-aware
    generalization of the footnote-4 traversal counts.
    """

    def __init__(
        self,
        mesh_size: int,
        pattern: str = "uniform_random",
        hotspot_factor: float = 4.0,
        hotspots: Optional[Sequence[int]] = None,
    ) -> None:
        if pattern not in _PATTERNS:
            raise ValueError(
                f"pattern must be one of {_PATTERNS}, got {pattern!r}"
            )
        if hotspot_factor < 1.0:
            raise ValueError(
                f"hotspot_factor must be >= 1, got {hotspot_factor}"
            )
        from repro.noc.routing import xy_path_routers
        from repro.noc.topology import Mesh

        self.mesh_size = mesh_size
        self.pattern = pattern
        n = mesh_size
        num = n * n
        self.num_routers = num
        mesh = Mesh(n)
        self.hotspots: Tuple[int, ...] = ()
        if pattern == "hotspot":
            self.hotspots = tuple(
                sorted(hotspots) if hotspots is not None else default_hotspots(n)
            )
            bad = [h for h in self.hotspots if not 0 <= h < num]
            if bad:
                raise ValueError(f"hotspots outside the mesh: {bad}")

        flows: List[Tuple[int, int]] = [
            (s, d) for s in range(num) for d in range(num) if s != d
        ]
        self.flows = flows
        incidence = np.zeros((len(flows), num), dtype=np.float64)
        for i, (s, d) in enumerate(flows):
            for r in xy_path_routers(mesh, s, d):
                incidence[i, r] = 1.0
        self.incidence = incidence

        raw = np.ones(len(flows), dtype=np.float64)
        if pattern == "hotspot":
            hot = set(self.hotspots)
            for i, (_s, d) in enumerate(flows):
                if d in hot:
                    raw[i] = hotspot_factor
        # Normalize per source: every source injects one unit of traffic.
        per_source = raw.reshape(num, num - 1)
        per_source = per_source / per_source.sum(axis=1, keepdims=True)
        self.source_weights = per_source
        #: per-flow traffic fractions, normalized to sum 1 network-wide.
        self.weights = per_source.reshape(-1) / num
        #: per-router arrivals when every node injects 1 packet/cycle.
        self.offered = per_source.reshape(-1) @ incidence
        #: per-router share of total weighted traversals (the analytic
        #: "load" of the footnote-4 score, pattern-aware).
        self.load = self.offered / self.offered.sum()
        #: per-destination weight totals (columns of the weight matrix),
        #: the normalizers of the destination-marginal fairness view.
        matrix = np.zeros((num, num), dtype=np.float64)
        rows, cols = zip(*flows)
        matrix[rows, cols] = self.weights
        self._weight_matrix = matrix
        self.dest_totals = matrix.sum(axis=0)
        #: the dihedral transforms that provably preserve every score of
        #: this traffic model (see :data:`repro.search.canonical.AXIS_SWAPPING`
        #: for why axis-swapping ones additionally need (s, d) <-> (d, s)
        #: weight symmetry).  Uniform random keeps all eight; a hotspot
        #: model with a D4-symmetric hotspot set keeps the four
        #: axis-preserving ones.
        self.symmetry_maps = tuple(
            mapping
            for mapping, swaps in zip(dihedral_transforms(n), AXIS_SWAPPING)
            if self._preserves_weights(mapping, swaps)
        )
        self.symmetric = len(self.symmetry_maps) == 8

    def _preserves_weights(self, mapping, swaps_axes: bool) -> bool:
        perm = np.asarray(mapping)
        image = self._weight_matrix[np.ix_(perm, perm)]
        target = self._weight_matrix.T if swaps_axes else self._weight_matrix
        return bool(np.allclose(image, target))


@dataclass
class ObjectiveWeights:
    """Scalarization weights for :meth:`PlacementEvaluator.scalar`.

    The defaults are calibrated on the 4x4 exhaustive space (where the
    ground truth is enumerable): under them the global optimum of all
    12,870 (16 choose 8) placements is the paper's exact Figure 3
    diagonal, with the wrapped-diagonal stripe family immediately
    behind -- reproducing the footnote-4 finding -- while keeping every
    term individually influential.
    """

    analytic: float = 1.0
    fairness: float = 1.0
    contention: float = 1.5
    balance: float = 0.75
    resilience: float = 0.5
    power_slack: float = 0.25
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass
class PlacementObjectives:
    """One placement's objective vector (all axes: higher is better)."""

    positions: Tuple[int, ...]
    canonical: Tuple[int, ...]
    load_coverage: float
    flow_coverage: float
    spread: float
    analytic: float
    fairness: float
    contention: float
    balance: float
    resilience: float
    power_slack: float
    scalar: float
    extras: Dict[str, float] = field(default_factory=dict)

    def vector(self, axes: Sequence[str]) -> Tuple[float, ...]:
        """The named axes as a tuple (for Pareto comparisons)."""
        return tuple(
            self.extras[a] if a in self.extras else getattr(self, a)
            for a in axes
        )


class PlacementEvaluator:
    """Scores big-router placements on an ``n x n`` mesh.

    Evaluations are cached by canonical placement over the traffic
    model's ``symmetry_maps`` -- the dihedral transforms that provably
    preserve every objective for that pattern (all eight for uniform
    random; the four axis-preserving ones for hotspot traffic, whose
    destination bias is not flow-reversal symmetric).  A search that
    proposes a reflection of something it already tried pays nothing --
    ``cache_hits`` / ``evaluations`` expose the dedup rate.

    ``extra_terms`` plugs in additional objectives: a mapping of name to
    a callable ``fn(frozenset_positions, flow_model) -> float`` whose
    value lands in ``PlacementObjectives.extras`` and participates in
    the scalarization with weight ``weights.extras[name]`` (default 0).
    """

    def __init__(
        self,
        mesh_size: int,
        pattern: str = "uniform_random",
        weights: Optional[ObjectiveWeights] = None,
        kill_count: int = 2,
        reference_utilization: float = 0.75,
        hotspot_factor: float = 4.0,
        hotspots: Optional[Sequence[int]] = None,
        extra_terms: Optional[
            Dict[str, Callable[[frozenset, FlowModel], float]]
        ] = None,
    ) -> None:
        if not 0.0 < reference_utilization < 1.0:
            raise ValueError(
                "reference_utilization must be in (0, 1), got "
                f"{reference_utilization}"
            )
        if kill_count < 0:
            raise ValueError(f"kill_count must be >= 0, got {kill_count}")
        self.mesh_size = mesh_size
        self.model = FlowModel(
            mesh_size,
            pattern,
            hotspot_factor=hotspot_factor,
            hotspots=hotspots,
        )
        self.weights = weights if weights is not None else ObjectiveWeights()
        self.kill_count = kill_count
        self.extra_terms = dict(extra_terms or {})
        #: per-node injection rate putting the hottest router at
        #: ``reference_utilization`` of *small* capacity -- i.e. the
        #: worst case never saturates, but contention has dynamic range.
        self.reference_rate = (
            reference_utilization * SMALL_CAPACITY / self.model.offered.max()
        )
        self._lam = self.reference_rate * self.model.offered
        self.evaluations = 0
        self.cache_hits = 0
        self._cache: Dict[Tuple[int, ...], PlacementObjectives] = {}

    # -- individual axes ------------------------------------------------------
    def _mask(self, big: frozenset) -> np.ndarray:
        mask = np.zeros(self.model.num_routers, dtype=np.float64)
        mask[list(big)] = 1.0
        return mask

    def _coverage(self, mask: np.ndarray) -> Tuple[float, float, np.ndarray]:
        """(load coverage, weighted flow coverage, per-flow covered 0/1)."""
        covered = (self.model.incidence @ mask > 0.0).astype(np.float64)
        return (
            float(self.model.load @ mask),
            float(self.model.weights @ covered),
            covered,
        )

    def _fairness(self, covered: np.ndarray) -> float:
        """Worst covered-traffic fraction over *both* flow marginals.

        Taking the min over sources alone is not self-dual: an
        axis-swapping mesh symmetry maps the per-source view onto the
        per-destination view (a Y-X path visits the routers of the
        reversed flow's X-Y path), so a source-only min could score two
        reflections of one placement differently.  The min over both
        marginals is exactly invariant.
        """
        num = self.model.num_routers
        per_source = (
            self.model.source_weights
            * covered.reshape(num, num - 1)
        ).sum(axis=1)
        matrix = self.model._weight_matrix
        per_dest = (
            np.einsum("sd,sd->d", matrix, self._covered_matrix(covered))
            / self.model.dest_totals
        )
        return float(min(per_source.min(), per_dest.min()))

    def _covered_matrix(self, covered: np.ndarray) -> np.ndarray:
        """The per-flow covered indicator as a dense (src, dst) matrix."""
        num = self.model.num_routers
        out = np.zeros((num, num), dtype=np.float64)
        rows, cols = zip(*self.model.flows)
        out[rows, cols] = covered
        return out

    def _contention(self, mask: np.ndarray) -> float:
        cap = np.where(mask > 0.0, BIG_CAPACITY, SMALL_CAPACITY)
        # The reference rate keeps every router under small capacity, but
        # guard anyway so custom utilizations degrade instead of dividing
        # by zero.
        headroom = np.maximum(cap - self._lam, 0.01 * cap)
        delay = self.model.incidence @ (1.0 / headroom)
        zero_load = self.model.incidence @ (1.0 / cap)
        return float(
            (self.model.weights @ zero_load) / (self.model.weights @ delay)
        )

    def _balance(self, big: frozenset) -> float:
        """1 minus the normalized row/column big-count deviation.

        Exactly 1.0 when every row and every column holds its fair share
        ``num_big / n`` (the diagonal-family signature); tends toward 0
        as the placement collapses into a few rows/columns.
        """
        n = self.mesh_size
        ideal = len(big) / n
        rows = [0] * n
        cols = [0] * n
        for p in big:
            rows[p // n] += 1
            cols[p % n] += 1
        deviation = sum(abs(c - ideal) for c in rows) + sum(
            abs(c - ideal) for c in cols
        )
        worst = 4.0 * len(big) * (n - 1) / n
        return max(0.0, 1.0 - deviation / worst)

    def worst_kills(self, positions: Iterable[int]) -> Tuple[int, ...]:
        """The ``kill_count`` most-loaded big routers (the targeted-kill
        adversary of the resilience study), deterministic under ties."""
        big = sorted(set(positions))
        ranked = sorted(big, key=lambda r: (-self.model.offered[r], r))
        return tuple(ranked[: self.kill_count])

    def kill_schedule(self, positions: Iterable[int], at: int = 0, **kwargs):
        """The worst-case kills as a :class:`repro.faults` schedule,
        ready to ride inside a refinement :class:`repro.exec.SweepPoint`."""
        from repro.faults import kill_routers

        return kill_routers(self.worst_kills(positions), at=at, **kwargs)

    def _resilience(self, big: frozenset) -> float:
        if not self.kill_count or not big:
            return 1.0
        survivors = big - set(self.worst_kills(big))
        _load, flow_cov, _covered = self._coverage(self._mask(survivors))
        return flow_cov

    def power_slack(self, num_big: int) -> float:
        """Headroom of ``P_base*N^2 >= P_small*n_s + P_big*n_b`` (signed)."""
        return hetero.power_slack(self.model.num_routers, num_big)

    # -- evaluation -----------------------------------------------------------
    def evaluate(self, positions: Iterable[int]) -> PlacementObjectives:
        """Full objective vector for one placement (canonically cached)."""
        big = frozenset(positions)
        if not big:
            raise ValueError("placement must contain at least one big router")
        bad = [p for p in big if not 0 <= p < self.model.num_routers]
        if bad:
            raise ValueError(f"big positions outside the mesh: {sorted(bad)}")
        given = tuple(sorted(big))
        canon = canonical_placement(
            big, self.mesh_size, self.model.symmetry_maps
        )
        cached = self._cache.get(canon)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.evaluations += 1
        # Score the canonical representative: the objectives are provably
        # invariant under the model's symmetry_maps up to tie-breaking in
        # the resilience kill selection, and evaluating the representative
        # makes even those ties resolve identically across the orbit.
        big = frozenset(canon)
        mask = self._mask(big)
        load_cov, flow_cov, covered = self._coverage(mask)
        n = self.mesh_size
        rows = {p // n for p in big}
        cols = {p % n for p in big}
        spread = (len(rows) + len(cols)) / (2.0 * n)
        analytic = load_cov + 0.3 * flow_cov + 0.05 * spread
        fairness = self._fairness(covered)
        contention = self._contention(mask)
        balance = self._balance(big)
        resilience = self._resilience(big)
        power = self.power_slack(len(big))
        extras = {
            name: float(fn(big, self.model))
            for name, fn in self.extra_terms.items()
        }
        w = self.weights
        scalar = (
            w.analytic * analytic
            + w.fairness * fairness
            + w.contention * contention
            + w.balance * balance
            + w.resilience * resilience
            + w.power_slack * power
            + sum(w.extras.get(name, 0.0) * value for name, value in extras.items())
        )
        objectives = PlacementObjectives(
            positions=given,
            canonical=canon,
            load_coverage=load_cov,
            flow_coverage=flow_cov,
            spread=spread,
            analytic=analytic,
            fairness=fairness,
            contention=contention,
            balance=balance,
            resilience=resilience,
            power_slack=power,
            scalar=scalar,
            extras=extras,
        )
        self._cache[canon] = objectives
        return objectives

    def score(self, positions: Iterable[int]) -> float:
        """The scalarized objective (what the searches maximize)."""
        return self.evaluate(positions).scalar
