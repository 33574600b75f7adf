"""The compiled kernel writes a measured packet's latency record itself
(``finish_packet`` in ``_ckernel.c``, exported for this file as
``ck_finish``); :meth:`NetworkStats.record_completions
<repro.noc.stats.NetworkStats.record_completions>` is the reference it
twins.  The same rows through both give the same records -- across the
``min_lanes`` cases, 1-flit packets, the ``(1 - flits) // lanes`` floor
a truncating division would miss by one, and the negative-slack clamp --
and a packet that beats the per-hop pipeline bound is refused by both
with the same error.  The differential suites pin the same records on
whole runs; this pins the formula row by row."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.noc import ckernel
from repro.noc.ckernel import ckernel_available, unavailable_reason
from repro.noc.stats import NetworkStats

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason=f"compiled kernel unavailable: {unavailable_reason()}",
)


def _through_c(rows, stages, link_delay):
    """Write ``rows`` -- ``(id, src, dst, flits, hops, created, injected,
    min_lanes, received)``, ``None`` lanes for unknown -- as measured
    packets of a one-router arena; returns the record columns, or the
    exception the wrapper raises for the error code."""
    lib = ckernel.load_kernel_library()
    ck = lib.ck_new(1, 1, 1, 1, stages - 1, 1, 0, 2, 1, link_delay)
    assert ck
    try:
        for pid, src, dst, flits, hops, created, injected, lanes, received in (
            rows
        ):
            h = lib.ck_handle_new(ck)
            lib.ck_set_packet(
                ck, h, pid, src, dst, flits, injected,
                -1 if lanes is None else lanes, hops, created,
                ckernel.PK_MEASURED,
            )
            code = lib.ck_finish(ck, h, received)
            if code:
                kind, message = ckernel._ERRORS[code]
                return kind(message.format(
                    a=lib.ck_get(ck, ckernel.S_ERR_A),
                    b=lib.ck_get(ck, ckernel.S_ERR_B),
                    c=lib.ck_get(ck, ckernel.S_ERR_C),
                ))
        take = lib.ck_arr(ck, ckernel.A_TAKE)
        records, stride = take[ckernel.TAKE_RECORDS], take[ckernel.TAKE_STRIDE]
        assert records == len(rows) and take[ckernel.TAKE_HELD] == 0
        if not records:
            return [[] for _ in range(ckernel.HELD_HANDLE)]
        cols = lib.ck_arr(ck, ckernel.A_COLS)
        return [
            cols[at:at + records]
            for at in range(0, ckernel.HELD_HANDLE * stride, stride)
        ]
    finally:
        lib.ck_free(ck)


def _through_python(rows, stages, link_delay):
    stats = NetworkStats(1, 1)
    columns = [list(column) for column in zip(*rows)] or [[]] * 9
    try:
        stats.record_completions(
            *columns, ["data"] * len(rows), stages, link_delay
        )
    except RuntimeError as exc:
        return exc
    records = stats.records
    return [getattr(records, name) for name in records.COLUMNS[:-1]]


#: one delivered packet: id, src, dst, flits, hops, created_at, cycles
#: queued, min_lanes (None, 0: unknown), cycles past the per-hop pipeline
#: minimum -- below the tail's serialization the clamp applies.
_ROW = st.tuples(
    st.integers(0, 10**6), st.integers(0, 63), st.integers(0, 63),
    st.one_of(st.just(1), st.integers(1, 12)), st.integers(0, 14),
    st.integers(0, 10**5), st.integers(0, 200),
    st.sampled_from([None, 0, 1, 2]), st.integers(0, 40),
)


def _rows(delivered, stages, link_delay):
    rows = []
    for pid, src, dst, flits, hops, created, wait, lanes, extra in delivered:
        injected = created + wait
        minimum = (stages - 1 + link_delay) * hops + stages - 1
        rows.append((pid, src, dst, flits, hops, created, injected, lanes,
                     injected + minimum + extra))
    return rows


@settings(max_examples=200, deadline=None)
@given(
    delivered=st.lists(_ROW, max_size=30),
    stages=st.integers(1, 5),
    link_delay=st.integers(1, 3),
)
# 2 flits over 2 lanes: (1 - 2) // 2 is -1 where C's truncating / gives 0
@example(delivered=[(5, 0, 1, 2, 3, 10, 0, 2, 9)], stages=3, link_delay=1)
# 1 flit, unknown lanes, no slack: transfer is the pipeline minimum alone
@example(delivered=[(6, 2, 3, 1, 2, 0, 4, None, 0)], stages=2, link_delay=2)
# 12 flits, 1 lane, no slack: the whole serialization is clamped away
@example(delivered=[(7, 1, 0, 12, 4, 3, 1, 1, 0)], stages=2, link_delay=1)
def test_c_records_equal_record_completions(delivered, stages, link_delay):
    rows = _rows(delivered, stages, link_delay)
    assert _through_c(rows, stages, link_delay) == _through_python(
        rows, stages, link_delay
    )


@settings(max_examples=60, deadline=None)
@given(
    before=st.lists(_ROW, max_size=5),
    short=st.integers(1, 5),
    stages=st.integers(1, 5),
    link_delay=st.integers(1, 3),
)
@example(before=[], short=1, stages=3, link_delay=1)
def test_a_packet_faster_than_the_pipeline_is_refused_alike(
    before, short, stages, link_delay
):
    rows = _rows(before, stages, link_delay)
    # hops >= 1 so the per-hop minimum is at least one cycle above 0
    pid, hops, injected = 424242, 3, 50
    minimum = (stages - 1 + link_delay) * hops + stages - 1
    rows.append((pid, 0, 1, 6, hops, 40, injected, None,
                 injected + minimum - short))
    from_c = _through_c(rows, stages, link_delay)
    from_python = _through_python(rows, stages, link_delay)
    assert type(from_c) is type(from_python) is RuntimeError
    assert str(from_c) == str(from_python)
    assert str(from_c).startswith(f"packet {pid} beat the per-hop")


def test_records_grow_past_the_first_block():
    """More records than the columns' first capacity: the stride doubles
    and the rows written before keep their values."""
    rows = _rows([(i, i % 64, 5, 1 + i % 12, i % 9, i, i % 7,
                   (None, 0, 1, 2)[i % 4], i % 11) for i in range(2500)],
                 2, 1)
    assert _through_c(rows, 2, 1) == _through_python(rows, 2, 1)


def test_held_rows_name_their_records():
    """A packet Python holds gets a row of the held columns: its handle,
    the index of its record among the ones taken with it (-1 when it is
    not measured), and what its Packet learns."""
    lib = ckernel.load_kernel_library()
    ck = lib.ck_new(1, 1, 1, 1, 1, 1, 0, 2, 1, 1)
    try:
        flags = (ckernel.PK_MEASURED, ckernel.PK_HELD,
                 ckernel.PK_HELD | ckernel.PK_MEASURED)
        handles = []
        for pid, flag in enumerate(flags):
            h = lib.ck_handle_new(ck)
            handles.append(h)
            lib.ck_set_packet(ck, h, pid, 0, 1, 4, 7, 2, 3, 5, flag)
            assert lib.ck_finish(ck, h, 30 + pid) == 0
        take = lib.ck_arr(ck, ckernel.A_TAKE)
        assert take[ckernel.TAKE_RECORDS] == 2 and take[ckernel.TAKE_HELD] == 2
        stride = take[ckernel.TAKE_STRIDE]
        cols = lib.ck_arr(ck, ckernel.A_COLS)
        held = [
            tuple(cols[k * stride + row]
                  for k in range(ckernel.HELD_HANDLE, ckernel.TAKE_COLS))
            for row in range(2)
        ]
        assert held == [
            (handles[1], -1, 3, 2, 7, 31),
            (handles[2], 1, 3, 2, 7, 32),
        ]
        assert cols[0:2] == [0, 2]  # the measured packets' ids
    finally:
        lib.ck_free(ck)

