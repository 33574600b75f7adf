"""Unit tests for flits and packets."""

import pytest
from hypothesis import given, strategies as st

from repro.noc.flit import (
    FlitType,
    Packet,
    flits_per_packet,
)


class TestFlitsPerPacket:
    def test_baseline_data_packet_is_six_flits(self):
        assert flits_per_packet(1024, 192) == 6

    def test_hetero_data_packet_is_eight_flits(self):
        assert flits_per_packet(1024, 128) == 8

    def test_address_packet_is_single_flit(self):
        assert flits_per_packet(64, 192) == 1
        assert flits_per_packet(64, 128) == 1

    def test_exact_multiple(self):
        assert flits_per_packet(384, 192) == 2

    def test_rounds_up(self):
        assert flits_per_packet(193, 192) == 2

    def test_rejects_nonpositive_payload(self):
        with pytest.raises(ValueError):
            flits_per_packet(0, 192)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            flits_per_packet(1024, 0)

    @given(
        bits=st.integers(min_value=1, max_value=10_000),
        width=st.integers(min_value=1, max_value=512),
    )
    def test_covers_payload_without_excess(self, bits, width):
        n = flits_per_packet(bits, width)
        assert n * width >= bits
        assert (n - 1) * width < bits or n == 1


class TestPacket:
    def _packet(self, num_flits=6):
        return Packet(src=0, dst=5, num_flits=num_flits, created_at=10)

    def test_make_flits_single(self):
        flits = self._packet(1).make_flits()
        assert len(flits) == 1
        assert flits[0].flit_type is FlitType.HEAD_TAIL
        assert flits[0].is_head and flits[0].is_tail

    def test_make_flits_multi(self):
        flits = self._packet(6).make_flits()
        assert len(flits) == 6
        assert flits[0].flit_type is FlitType.HEAD
        assert flits[-1].flit_type is FlitType.TAIL
        assert all(f.flit_type is FlitType.BODY for f in flits[1:-1])
        assert [f.index for f in flits] == list(range(6))

    def test_flit_shortcuts(self):
        flits = self._packet(3).make_flits()
        assert flits[0].src == 0 and flits[0].dst == 5
        assert not flits[1].is_head and not flits[1].is_tail

    def test_rejects_zero_flits(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, num_flits=0, created_at=0)

    def test_rejects_negative_endpoints(self):
        with pytest.raises(ValueError):
            Packet(src=-1, dst=1, num_flits=1, created_at=0)

    def test_latency_requires_delivery(self):
        packet = self._packet()
        with pytest.raises(ValueError):
            _ = packet.latency

    def test_latency_and_queuing(self):
        packet = self._packet()
        packet.injected_at = 13
        packet.received_at = 40
        assert packet.queuing_latency == 3
        assert packet.latency == 30

    def test_unique_packet_ids(self):
        ids = {Packet(src=0, dst=1, num_flits=1, created_at=0).packet_id for _ in range(50)}
        assert len(ids) == 50

    @given(num_flits=st.integers(min_value=1, max_value=64))
    def test_flit_sequence_well_formed(self, num_flits):
        flits = Packet(src=0, dst=1, num_flits=num_flits, created_at=0).make_flits()
        assert len(flits) == num_flits
        assert flits[0].is_head
        assert flits[-1].is_tail
        heads = sum(1 for f in flits if f.is_head)
        tails = sum(1 for f in flits if f.is_tail)
        assert heads == 1 and tails == 1
