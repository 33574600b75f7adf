"""The evaluated HeteroNoC layouts (paper Figure 3) and placements.

A :class:`Layout` names a set of *big* router positions on an N x N mesh
and whether links are redistributed along with buffers:

* ``baseline`` -- all 64 routers are the homogeneous 3-VC/192 b design;
* ``center+B`` / ``row2_5+B`` / ``diagonal+B`` -- buffer-only
  redistribution: big routers get 6 VCs, small get 2, every link stays
  192 b wide (Figure 3 b-d);
* ``center+BL`` / ``row2_5+BL`` / ``diagonal+BL`` -- buffers *and* links:
  big routers additionally drive 256 b links and small routers 128 b
  links, with the network flit width dropping to 128 b (Figure 3 e-g).

The module also provides the memory-controller placements of the Abts et
al. co-evaluation (Section 6) and the asymmetric-CMP floorplan
(Section 7).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.core.power import heteronoc_frequency_ghz
from repro.noc.config import ROUTER_KINDS, NetworkConfig, RouterConfig, router_config
from repro.noc.network import Network
from repro.noc.routing import Routing, router_traversal_counts
from repro.noc.topology import Mesh, Topology

LAYOUT_NAMES = (
    "baseline",
    "center+B",
    "row2_5+B",
    "diagonal+B",
    "center+BL",
    "row2_5+BL",
    "diagonal+BL",
)


# -- big-router position sets -------------------------------------------------
def diagonal_positions(n: int) -> Set[int]:
    """Routers on both diagonals of an n x n mesh (2n for even n)."""
    positions = set()
    for r in range(n):
        positions.add(r * n + r)
        positions.add(r * n + (n - 1 - r))
    return positions


def center_positions(n: int) -> Set[int]:
    """The 2n routers closest to the mesh centre (the central 4x4 for n=8)."""
    target = 2 * n
    centre = (n - 1) / 2.0
    ranked = sorted(
        range(n * n),
        key=lambda rid: (
            (rid // n - centre) ** 2 + (rid % n - centre) ** 2,
            rid,
        ),
    )
    return set(ranked[:target])


def row2_5_positions(n: int) -> Set[int]:
    """Big routers filling two rows (the 2nd and 5th rows for n=8).

    The paper picks rows chosen to minimise the average hop count to a big
    router; for other mesh sizes we space the two rows half a mesh apart.
    """
    if n == 8:
        rows = (1, 4)
    else:
        first = max(0, (n - 2) // 4)
        rows = (first, min(n - 1, first + n // 2))
    return {r * n + c for r in rows for c in range(n)}


_POSITION_BUILDERS = {
    "center": center_positions,
    "row2_5": row2_5_positions,
    "diagonal": diagonal_positions,
}


@dataclass(frozen=True)
class Layout:
    """One network configuration: topology size + big-router placement."""

    name: str
    mesh_size: int
    big_positions: FrozenSet[int]
    redistribute_links: bool

    @property
    def is_baseline(self) -> bool:
        return not self.big_positions and not self.redistribute_links

    @property
    def num_big(self) -> int:
        return len(self.big_positions)

    @property
    def num_small(self) -> int:
        if self.is_baseline:
            return 0
        return self.mesh_size * self.mesh_size - self.num_big

    def router_configs(self, flit_mode: str = "paper") -> Dict[int, RouterConfig]:
        """Per-router provisioning for this layout.

        ``flit_mode`` selects how the +BL link redistribution is simulated
        (it does not affect the baseline or +B layouts):

        * ``"paper"`` (default) -- the paper's flit accounting: packets
          keep the baseline 192 b flit decomposition (6 flits per cache
          line), narrow links move one flit per cycle and wide links two.
          This reproduces the throughput/latency *shape* the paper
          reports.  Power and area still use the physical 128 b/256 b
          datapath widths.
        * ``"strict"`` -- physically strict 128 b flits: a cache line is
          8 flits and a narrow link carries only 128 b/cycle.  Under this
          interpretation the edge rows of the mesh lose a third of their
          bandwidth and the paper's throughput gains are not achievable
          (see EXPERIMENTS.md for the conservation argument); provided as
          an ablation.
        """
        if flit_mode not in ("paper", "strict"):
            raise ValueError(f"flit_mode must be 'paper' or 'strict', got {flit_mode!r}")
        if self.is_baseline:
            family, rest = "baseline", "baseline"
        elif self.redistribute_links:
            family, rest = ("+BL" if flit_mode == "paper" else "+BL strict"), "small"
        else:
            family, rest = "+B", "small"
        big, other = router_config("big", family), router_config(rest, family)
        return {
            rid: big if rid in self.big_positions else other
            for rid in range(self.mesh_size**2)
        }

    def network_config(self, **overrides) -> NetworkConfig:
        """Network parameters; heterogeneous layouts run at the big-router
        (worst-case) clock per Section 3.4."""
        if self.is_baseline:
            frequency = ROUTER_KINDS["baseline"].frequency_ghz
        else:
            frequency = heteronoc_frequency_ghz()
        return NetworkConfig(frequency_ghz=frequency, **overrides)

    @property
    def frequency_ghz(self) -> float:
        return self.network_config().frequency_ghz


def baseline_layout(mesh_size: int = 8) -> Layout:
    return Layout(
        name="baseline",
        mesh_size=mesh_size,
        big_positions=frozenset(),
        redistribute_links=False,
    )


def layout_by_name(name: str, mesh_size: int = 8) -> Layout:
    """Build one of the paper's seven configurations by name."""
    if name == "baseline":
        return baseline_layout(mesh_size)
    try:
        placement, flavour = name.rsplit("+", 1)
        builder = _POSITION_BUILDERS[placement]
        redistribute_links = {"B": False, "BL": True}[flavour]
    except (ValueError, KeyError):
        raise ValueError(
            f"unknown layout {name!r}; choose from {LAYOUT_NAMES}"
        ) from None
    return Layout(
        name=name,
        mesh_size=mesh_size,
        big_positions=frozenset(builder(mesh_size)),
        redistribute_links=redistribute_links,
    )


def all_layouts(mesh_size: int = 8) -> List[Layout]:
    return [layout_by_name(name, mesh_size) for name in LAYOUT_NAMES]


def custom_layout(
    name: str,
    big_positions: Iterable[int],
    mesh_size: int = 8,
    redistribute_links: bool = True,
    check_power: bool = False,
) -> Layout:
    """A heterogeneous layout with an arbitrary big-router placement.

    Used by the design-space exploration and the sensitivity studies; the
    named Figure 3 layouts are special cases.  Positions must be distinct
    integers inside the mesh.  With ``check_power=True`` the layout must
    also satisfy the Section 2 power inequality (at most
    ``mesh_size**2 - repro.core.hetero.min_small_routers(mesh_size)`` big
    routers); by default the check is skipped, since the footnote-4
    4x4 sweeps deliberately explore over-budget mixes.
    """
    positions = list(big_positions)
    non_int = [p for p in positions if not isinstance(p, int) or isinstance(p, bool)]
    if non_int:
        raise ValueError(
            f"big positions must be plain ints, got {non_int!r}"
        )
    duplicates = sorted(p for p, c in Counter(positions).items() if c > 1)
    if duplicates:
        raise ValueError(f"duplicate big positions: {duplicates}")
    n_routers = mesh_size * mesh_size
    bad = [p for p in positions if not 0 <= p < n_routers]
    if bad:
        raise ValueError(f"big positions outside the mesh: {sorted(bad)}")
    if check_power:
        from repro.core.hetero import min_small_routers

        max_big = n_routers - min_small_routers(mesh_size)
        if len(positions) > max_big:
            raise ValueError(
                f"{len(positions)} big routers exceed the power budget: the "
                f"Section 2 inequality allows at most {max_big} on a "
                f"{mesh_size}x{mesh_size} mesh "
                f"(needs >= {min_small_routers(mesh_size)} small routers)"
            )
    return Layout(
        name=name,
        mesh_size=mesh_size,
        big_positions=frozenset(positions),
        redistribute_links=redistribute_links,
    )


def extended_diagonal_positions(n: int, num_big: int) -> Set[int]:
    """``num_big`` routers chosen diagonal-first, then by X-Y traversal load.

    Generalizes the paper's diagonal placement to other big-router
    budgets: the 2n diagonal seats fill first (fewest-first for budgets
    under 2n, ordered by centrality), then additional routers are added
    in decreasing order of the X-Y traversal count
    (:func:`repro.noc.routing.router_traversal_counts`).
    """
    if not 0 <= num_big <= n * n:
        raise ValueError(f"num_big must be in [0, {n * n}], got {num_big}")
    counts = router_traversal_counts(Mesh(n))
    diagonal = sorted(
        diagonal_positions(n), key=lambda r: (-counts[r], r)
    )
    rest = sorted(
        (r for r in range(n * n) if r not in set(diagonal)),
        key=lambda r: (-counts[r], r),
    )
    ordered = diagonal + rest
    return set(ordered[:num_big])


def build_network(
    layout: Layout,
    topology: Optional[Topology] = None,
    routing: Optional[Routing] = None,
    flit_mode: str = "paper",
    **config_overrides,
) -> Network:
    """Instantiate the simulator network for a layout.

    ``topology`` defaults to the layout-sized mesh; pass a
    :class:`~repro.noc.topology.Torus` of the same size for the
    Section 5.1.1 comparison (big-router positions carry over unchanged).
    ``flit_mode`` is forwarded to :meth:`Layout.router_configs`.
    """
    topo = topology or Mesh(layout.mesh_size)
    if topo.num_routers != layout.mesh_size**2:
        raise ValueError(
            f"layout is for {layout.mesh_size}^2 routers but topology has "
            f"{topo.num_routers}"
        )
    return Network(
        topology=topo,
        router_configs=layout.router_configs(flit_mode),
        network_config=layout.network_config(**config_overrides),
        routing=routing,
    )


# -- memory-controller placements (Section 6, after Abts et al.) -------------
def memory_controller_placement(name: str, n: int = 8) -> List[int]:
    """Node ids hosting memory controllers.

    * ``"corners"`` -- the baseline Table 2 arrangement: 4 controllers at
      the mesh corners.
    * ``"diamond"`` -- 16 controllers on a diamond lattice (two per row and
      per column, staggered), the best symmetric arrangement of Abts et
      al.; we use the anti-diagonal stripe pattern ``(row + col) % 4 == 2``
      which realises exactly that 2-per-row/2-per-column stagger.
    * ``"diagonal"`` -- 16 controllers along both mesh diagonals,
      coinciding with the Diagonal+BL big routers.
    """
    if name == "corners":
        return [0, n - 1, n * (n - 1), n * n - 1]
    if name == "diamond":
        if n % 4:
            raise ValueError("diamond placement needs the width divisible by 4")
        return sorted(
            r * n + c
            for r in range(n)
            for c in range(n)
            if (r + c) % 4 == 2
        )
    if name == "diagonal":
        return sorted(diagonal_positions(n))
    raise ValueError(
        f"unknown placement {name!r}; choose corners, diamond or diagonal"
    )


# -- asymmetric CMP floorplan (Section 7) ------------------------------------
def asymmetric_cmp_layout(n: int = 8) -> Dict[str, List[int]]:
    """Node assignment for the asymmetric CMP: 4 large out-of-order cores
    at the mesh corners (far apart: they are the hottest and host
    single-threaded work), small in-order cores everywhere else."""
    large = [0, n - 1, n * (n - 1), n * n - 1]
    small = [node for node in range(n * n) if node not in large]
    return {"large": large, "small": small}
