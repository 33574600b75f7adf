"""Configuration records for routers and networks.

The paper's three router types (Table 1):

===========  =====  ============  ==========  ======  ========  =========
Router       VCs/PC  buffer depth  flit width  power   area      frequency
===========  =====  ============  ==========  ======  ========  =========
baseline     3      5 flits       192 b       0.67 W  0.290 mm2  2.20 GHz
small        2      5 flits       128 b       0.30 W  0.235 mm2  2.25 GHz
big          6      5 flits       256 b*      1.19 W  0.425 mm2  2.07 GHz
===========  =====  ============  ==========  ======  ========  =========

``*`` big routers keep the 128-bit flit width but drive 256-bit links and
crossbar, carrying two merged flits per cycle (Section 3).

A :class:`RouterConfig` captures one router's provisioning; a
:class:`NetworkConfig` captures whole-network parameters shared by every
router (pipeline depth, routing discipline, clock).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Optional

BASELINE_VCS = 3
SMALL_VCS = 2
BIG_VCS = 6
BUFFER_DEPTH = 5
BASELINE_FLIT_WIDTH = 192
HETERO_FLIT_WIDTH = 128
BASELINE_LINK_WIDTH = 192
NARROW_LINK_WIDTH = 128
WIDE_LINK_WIDTH = 256
BASELINE_FREQUENCY_GHZ = 2.20
SMALL_FREQUENCY_GHZ = 2.25
BIG_FREQUENCY_GHZ = 2.07
MESH_PORTS = 5  # N, E, S, W + local injection/ejection port


@dataclass(frozen=True)
class RouterConfig:
    """Provisioning of one router.

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

    num_vcs: int = BASELINE_VCS
    buffer_depth: int = BUFFER_DEPTH
    flit_width: int = BASELINE_FLIT_WIDTH
    link_width: int = BASELINE_LINK_WIDTH
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


def baseline_router() -> RouterConfig:
    """The homogeneous baseline router (3 VCs, 192 b)."""
    return RouterConfig()


def small_router() -> RouterConfig:
    """The HeteroNoC small router (2 VCs, 128 b flits and links)."""
    return RouterConfig(
        num_vcs=SMALL_VCS,
        flit_width=HETERO_FLIT_WIDTH,
        link_width=NARROW_LINK_WIDTH,
        kind="small",
    )


def big_router() -> RouterConfig:
    """The HeteroNoC big router (6 VCs, 128 b flits over 256 b links)."""
    return RouterConfig(
        num_vcs=BIG_VCS,
        flit_width=HETERO_FLIT_WIDTH,
        link_width=WIDE_LINK_WIDTH,
        kind="big",
    )


def small_router_paper_mode() -> RouterConfig:
    """Small router under the paper's flit accounting (see layouts).

    The physical datapath is the Table 1 small router (128 b buffers and
    links -- carried in the ``power_*`` fields), but packets keep the
    baseline 192 b flit decomposition so narrow links move one flit per
    cycle, matching the paper's reported throughput behaviour.
    """
    return RouterConfig(
        num_vcs=SMALL_VCS,
        flit_width=BASELINE_FLIT_WIDTH,
        link_width=BASELINE_FLIT_WIDTH,
        kind="small",
        power_flit_width=HETERO_FLIT_WIDTH,
        power_link_width=NARROW_LINK_WIDTH,
    )


def big_router_paper_mode() -> RouterConfig:
    """Big router under the paper's flit accounting: its wide links carry
    two flits per cycle (the merged pair of Section 3.2)."""
    return RouterConfig(
        num_vcs=BIG_VCS,
        flit_width=BASELINE_FLIT_WIDTH,
        link_width=2 * BASELINE_FLIT_WIDTH,
        kind="big",
        power_flit_width=HETERO_FLIT_WIDTH,
        power_link_width=WIDE_LINK_WIDTH,
    )


def small_router_buffer_only() -> RouterConfig:
    """Small router of the +B layouts: fewer VCs, baseline-width links."""
    return RouterConfig(
        num_vcs=SMALL_VCS,
        flit_width=BASELINE_FLIT_WIDTH,
        link_width=BASELINE_LINK_WIDTH,
        kind="small",
    )


def big_router_buffer_only() -> RouterConfig:
    """Big router of the +B layouts: more VCs, baseline-width links."""
    return RouterConfig(
        num_vcs=BIG_VCS,
        flit_width=BASELINE_FLIT_WIDTH,
        link_width=BASELINE_LINK_WIDTH,
        kind="big",
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
            observation hooks, a watchdog or dynamic routing given before
            the first step need the per-flit object datapath, and --
            with one ``RuntimeWarning`` -- when no C compiler is
            available).  Both are bit-identical.  Overridable per
            process with ``REPRO_KERNEL``.
    """

    KERNELS = ("event", "c")

    router_pipeline_stages: int = 2
    link_delay: int = 1
    credit_delay: int = 1
    frequency_ghz: float = BASELINE_FREQUENCY_GHZ
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

    @property
    def cycle_time_ns(self) -> float:
        """Duration of one network cycle in nanoseconds."""
        return 1.0 / self.frequency_ghz

    def with_frequency(self, frequency_ghz: float) -> "NetworkConfig":
        """Copy of this config clocked at ``frequency_ghz``."""
        return replace(self, frequency_ghz=frequency_ghz)

    def zero_load_hop_cycles(self) -> int:
        """Cycles per hop at zero load: pipeline depth plus link delay."""
        return self.router_pipeline_stages + self.link_delay


def router_config_summary(configs: Dict[int, RouterConfig]) -> Dict[str, int]:
    """Count router kinds in a node->config map (layout sanity checks)."""
    counts: Dict[str, int] = {}
    for config in configs.values():
        counts[config.kind] = counts.get(config.kind, 0) + 1
    return counts
