"""One seed is one offered stream on every layout, flit mode and kernel.

A fault-free run draws, node by node from one RNG, whether a packet fires
and then its destination (``_offer_load``), and reads no network state.
So router provisioning -- the layout, its flit accounting, the kernel --
never reaches which packets are born where; pairing one seed across
layouts compares the networks on the same packets.
"""

import pytest

from repro.core.layouts import LAYOUT_NAMES
from repro.exec import SweepPoint
from repro.noc.ckernel import ckernel_available

needs_ckernel = pytest.mark.skipif(
    not ckernel_available(), reason="compiled kernel unavailable"
)


def _measured(layout, flit_mode, kernel):
    """``(packet_id, src, dst)`` of every measured record, by id, and the
    flit counts seen, for one seed below saturation on a 4x4."""
    point = SweepPoint(
        layout=layout, mesh_size=4, flit_mode=flit_mode, kernel=kernel,
        rate=0.05, seed=7, warmup_packets=20, measure_packets=120,
    )
    result = point.run(point.build_network())
    assert not result.saturated
    records = result.stats.records
    stream = sorted((r.packet_id, r.src, r.dst) for r in records)
    return stream, {r.num_flits for r in records}


@pytest.fixture(scope="module")
def reference():
    return _measured("baseline", "paper", "event")[0]


@pytest.mark.parametrize(
    "layout, flit_mode, kernel",
    [
        pytest.param(
            layout, flit_mode, kernel,
            marks=[needs_ckernel] if kernel == "c" else [],
        )
        for layout in LAYOUT_NAMES
        for flit_mode in ("paper", "strict")
        for kernel in ("event", "c")
    ],
)
def test_one_seed_offers_one_stream(reference, layout, flit_mode, kernel):
    stream, num_flits = _measured(layout, flit_mode, kernel)
    assert len(stream) == 120
    assert stream == reference
    # A 1024 b data packet is six 192 b flits; only strict +BL networks
    # cut it into 128 b flits.
    strict_narrow = flit_mode == "strict" and layout.endswith("+BL")
    assert num_flits == {8 if strict_narrow else 6}
