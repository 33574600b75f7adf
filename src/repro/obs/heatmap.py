"""ASCII heatmaps for bottleneck-attribution reports.

Renders an :class:`~repro.obs.attribution.AttributionReport` as a
terminal heatmap of per-router outgoing link traffic -- the measurable
version of the paper's Figure 3 diagonal/center concentration -- plus
ranked top-k tables of the most contended links, routers, and
source/destination pairs.

Usage::

    PYTHONPATH=src python -m repro.obs.heatmap attribution.json
    PYTHONPATH=src python -m repro.obs.heatmap attribution.json --top 5

``python -m repro.experiments.run_all fig01 --obs DIR`` runs a small
instrumented uniform-random simulation and writes its report as
``DIR/obs_demo_attribution.json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.attribution import AttributionReport

__all__ = ["render_grid", "render_report", "main"]

#: Intensity ramp, blank (cold) to ``@`` (hot).
RAMP = " .:-=+*#%@"


def _shade(value: float, peak: float) -> str:
    if peak <= 0:
        return RAMP[0]
    index = int((value / peak) * (len(RAMP) - 1) + 0.5)
    return RAMP[max(0, min(index, len(RAMP) - 1))]


def render_grid(grid: List[List[float]], label: str = "") -> str:
    """Render a row-major numeric grid as a two-chars-per-cell heatmap."""
    peak = max((v for row in grid for v in row), default=0)
    lines = []
    if label:
        lines.append(label)
    width = len(grid[0]) if grid else 0
    lines.append("    +" + "--" * width + "+")
    for row_idx, row in enumerate(grid):
        cells = "".join(_shade(v, peak) * 2 for v in row)
        lines.append(f"  {row_idx:2d}|{cells}|")
    lines.append("    +" + "--" * width + "+")
    lines.append(f"    peak={peak:g}  ramp='{RAMP}'")
    return "\n".join(lines)


def render_report(report: AttributionReport, top_k: int = 10) -> str:
    """Full text rendering: heatmap + conservation line + top-k tables."""
    lines = [
        render_grid(
            report.router_grid(),
            label=(
                f"per-router outgoing link flits "
                f"({report.height}x{report.width}, "
                f"{report.cycles} cycles, source={report.source})"
            ),
        ),
        "",
    ]
    if report.conserved is None:
        lines.append(
            f"link flits total: {report.link_flits_total} "
            "(conservation not recorded in this report)"
        )
    else:
        verdict = "OK" if report.conserved else "VIOLATED"
        lines.append(
            f"flit conservation: {report.link_flits_total} link crossings "
            f"vs {report.expected_link_flits} expected "
            f"(delivered flits x hops) -- {verdict}"
        )
    lines.append("")
    lines.append(f"top {top_k} links (src router/port, flits, utilization):")
    for row in report.top_links(top_k):
        lines.append(
            f"  r{row['router']:<3d} {row['direction']:<5s} "
            f"{row['flits']:>8d} flits   util {row['utilization']:.3f}"
        )
    lines.append("")
    lines.append(
        f"top {top_k} routers (outgoing flits, credit stalls, SA conflicts):"
    )
    for row in report.top_routers(top_k):
        lines.append(
            f"  r{row['router']:<3d} ({row['row']},{row['col']}) "
            f"{row['flits_out']:>8d} flits   "
            f"stalls {row['credit_stalls']:<6d} "
            f"conflicts {row['arbitration_conflicts']}"
        )
    lines.append("")
    lines.append(f"top {top_k} (src, dst) pairs (flits, packets):")
    for row in report.top_pairs(top_k):
        lines.append(
            f"  {row['src']:>3d} -> {row['dst']:<3d} "
            f"{row['flits']:>8d} flits   {row['packets']} packets"
        )
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.heatmap", description=__doc__
    )
    parser.add_argument(
        "report",
        help="attribution JSON written by AttributionReport.write_json",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="rows per top-k table (default 10)",
    )
    args = parser.parse_args(argv)
    report = AttributionReport.read_json(args.report)
    print(render_report(report, top_k=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
