"""Configuration records for routers and networks.

:data:`ROUTER_KINDS` is the paper's Table 1: one :class:`RouterKind` row
per router kind (baseline, small, big) with its VCs, physical flit and
link widths, power, area and clock.  Every other reader of Table 1 --
the power, area and frequency models, the power inequality, the layouts
and the Table 1 harness -- reads these rows.

A :class:`RouterConfig` captures one router's provisioning, which
:func:`router_config` derives from a kind's row for a layout family; a
:class:`NetworkConfig` captures whole-network parameters shared by every
router (pipeline depth, routing discipline, clock).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

MESH_PORTS = 5  # N, E, S, W + local injection/ejection port


@dataclass(frozen=True)
class RouterKind:
    """One router kind of Table 1.

    Attributes:
        num_vcs: virtual channels per physical channel (5 flits deep each).
        flit_width: physical flit (buffer word) width in bits.
        link_width: physical link and crossbar width in bits; the big
            router keeps 128 b flits and drives 256 b links, carrying two
            merged flits per cycle (Section 3).
        power_w: power at a 50 % activity factor (the paper's footnote 3).
        area_mm2: synthesized area.
        frequency_ghz: achievable clock.
    """

    num_vcs: int
    flit_width: int
    link_width: int
    power_w: float
    area_mm2: float
    frequency_ghz: float


#: Table 1, in the order the power and area models are calibrated.
ROUTER_KINDS = {
    # RouterKind(VCs, flit b, link b, power W, area mm2, clock GHz)
    "baseline": RouterKind(3, 192, 192, 0.67, 0.290, 2.20),
    "small": RouterKind(2, 128, 128, 0.30, 0.235, 2.25),
    "big": RouterKind(6, 128, 256, 1.19, 0.425, 2.07),
}


@dataclass(frozen=True)
class RouterConfig:
    """Provisioning of one router; the defaults are Table 1's baseline.

    Attributes:
        num_vcs: virtual channels per physical channel.
        buffer_depth: flit slots per virtual channel.
        flit_width: flit width in bits (the buffer word size).
        link_width: width in bits of the links this router drives; a link's
            effective width is decided per-link by the layout (see
            :func:`repro.core.layouts.link_width_between`).
        kind: ``"baseline"``, ``"small"`` or ``"big"`` -- used for layout
            bookkeeping, power/area modelling and placement-aware routing.
    """

    num_vcs: int = ROUTER_KINDS["baseline"].num_vcs
    buffer_depth: int = 5
    flit_width: int = ROUTER_KINDS["baseline"].flit_width
    link_width: int = ROUTER_KINDS["baseline"].link_width
    kind: str = "baseline"
    # Hardware widths for the power/area models when they differ from the
    # simulation (flow-control) widths.  The "paper" flit-accounting mode
    # simulates HeteroNoC with baseline-width flits (see
    # repro.core.layouts) while the physical datapath is 128 b/256 b;
    # these fields carry the physical widths in that case.
    power_flit_width: Optional[int] = None
    power_link_width: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {self.num_vcs}")
        if self.buffer_depth < 1:
            raise ValueError(
                f"buffer_depth must be >= 1, got {self.buffer_depth}"
            )
        if self.flit_width < 1 or self.link_width < 1:
            raise ValueError("flit_width and link_width must be positive")
        if self.link_width % self.flit_width:
            raise ValueError(
                "link_width must be a multiple of flit_width "
                f"(got {self.link_width} / {self.flit_width})"
            )

    @property
    def lanes(self) -> int:
        """How many flits the router's widest link carries per cycle."""
        return self.link_width // self.flit_width

    @property
    def hw_flit_width(self) -> int:
        """Physical buffer word width (for power/area models)."""
        return self.power_flit_width or self.flit_width

    @property
    def hw_link_width(self) -> int:
        """Physical link/crossbar width (for power/area models)."""
        return self.power_link_width or self.link_width

    def buffer_bits(self, num_ports: int) -> int:
        """Total physical buffer storage of this router in bits.

        Matches the paper's accounting under Table 1:
        ``VCs x ports x depth x flit_width``.
        """
        return (
            self.num_vcs * num_ports * self.buffer_depth * self.hw_flit_width
        )


def router_config(kind: str, family: str = "baseline") -> RouterConfig:
    """The provisioning of a Table 1 router ``kind`` in a layout family
    (Figure 3; see :meth:`repro.core.layouts.Layout.router_configs`):

    * ``"baseline"`` and ``"+BL strict"`` -- the physical router: the
      row's VCs, flit width and link width;
    * ``"+B"`` (buffer-only redistribution) -- the row's VCs over the
      baseline's flits and links;
    * ``"+BL"`` (buffers and links, the paper's flit accounting) --
      packets keep the baseline flit, so a link moves as many of them per
      cycle as the row's link carries of its own flits; the ``power_*``
      widths carry the physical datapath to the power and area models.

    A :class:`RouterConfig`'s widths default to the baseline's.
    """
    row = ROUTER_KINDS[kind]
    if family in ("baseline", "+BL strict"):
        return RouterConfig(
            num_vcs=row.num_vcs, flit_width=row.flit_width,
            link_width=row.link_width, kind=kind,
        )
    if family == "+B":
        return RouterConfig(num_vcs=row.num_vcs, kind=kind)
    if family == "+BL":
        lanes = row.link_width // row.flit_width
        return RouterConfig(
            num_vcs=row.num_vcs,
            link_width=lanes * ROUTER_KINDS["baseline"].flit_width,
            kind=kind,
            power_flit_width=row.flit_width,
            power_link_width=row.link_width,
        )
    raise ValueError(
        f"unknown layout family {family!r}; expected 'baseline', '+B', "
        "'+BL' or '+BL strict'"
    )


@dataclass(frozen=True)
class NetworkConfig:
    """Whole-network parameters.

    Attributes:
        router_pipeline_stages: depth of the router pipeline.  The paper
            models a state-of-the-art two-stage router (Section 4).
        link_delay: link traversal latency in cycles.
        credit_delay: cycles for a credit to return upstream.
        frequency_ghz: network clock; a heterogeneous network runs at the
            worst-case (big-router) frequency per Section 3.4.
        data_packet_bits: payload of a data packet.
        flit_merging: enable the Section 3.2/3.3 wide-link flit
            combining.  Disabling it is an ablation: wide links then move
            a single flit per cycle like narrow ones.
        kernel: which cycle kernel drives :meth:`Network.step` --
            ``"event"`` (the event-driven active-set kernel over the
            object model, default) or ``"c"`` (the compiled kernel of
            ``repro.noc.ckernel``: the router state packed into flat
            integer arrays and stepped by an on-demand-built C shared
            object; ``event`` carries the whole run instead when faults,
            observation hooks or dynamic routing given before the first
            step need the per-flit object datapath, and --
            with one ``RuntimeWarning`` -- when no C compiler is
            available).  Both are bit-identical.  Overridable per
            process with ``REPRO_KERNEL``.
    """

    KERNELS = ("event", "c")

    router_pipeline_stages: int = 2
    link_delay: int = 1
    credit_delay: int = 1
    frequency_ghz: float = ROUTER_KINDS["baseline"].frequency_ghz
    data_packet_bits: int = 1024
    flit_merging: bool = True
    kernel: str = "event"

    def __post_init__(self) -> None:
        if self.router_pipeline_stages < 1:
            raise ValueError("router_pipeline_stages must be >= 1")
        if self.link_delay < 1:
            raise ValueError("link_delay must be >= 1")
        if self.credit_delay < 1:
            raise ValueError("credit_delay must be >= 1")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")
        self.check_kernel(self.kernel)

    @classmethod
    def check_kernel(cls, name: str) -> None:
        """Reject a kernel name that is not in :attr:`KERNELS`.

        The one check every entry point shares (this config,
        ``REPRO_KERNEL``, ``Network.use_kernel``, ``SweepPoint``,
        ``run_all --kernel``), so a bad name fails with the same message
        wherever it arrives from.
        """
        if name not in cls.KERNELS:
            raise ValueError(
                f"unknown kernel {name!r}; expected one of {cls.KERNELS}"
            )

    def kernel_in_force(self) -> str:
        """The kernel a network of this config runs: ``REPRO_KERNEL`` when
        it is set, else :attr:`kernel` -- the one reader of that variable,
        checked like every other kernel name."""
        kernel = os.environ.get("REPRO_KERNEL") or self.kernel
        self.check_kernel(kernel)
        return kernel

    def zero_load_hop_cycles(self) -> int:
        """Cycles per hop at zero load: pipeline depth plus link delay."""
        return self.router_pipeline_stages + self.link_delay

