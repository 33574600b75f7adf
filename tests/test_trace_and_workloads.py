"""Tests for the trace record and synthetic workload profiles."""

import pytest

from repro.traffic.trace import TraceRecord
from repro.traffic.workloads import (
    BLOCK_BYTES,
    FAR_REGION_BASE,
    SHARED_REGION_BASE,
    WORKLOADS,
    WorkloadProfile,
    app_packet_stream,
    commercial_workloads,
    generate_core_trace,
    home_node,
    parsec_workloads,
)


class TestTraceFormat:
    def test_record_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(gap=-1, is_write=False, address=0)
        with pytest.raises(ValueError):
            TraceRecord(gap=0, is_write=False, address=-4)

    def test_instructions_property(self):
        assert TraceRecord(gap=5, is_write=True, address=0).instructions == 6


class TestWorkloadProfiles:
    def test_all_eleven_benchmarks_present(self):
        expected = {
            "SAP", "SPECjbb", "TPC-C", "SJAS",
            "frrt", "fsim", "vips", "canl", "ddup", "sclst",
            "libquantum",
        }
        assert set(WORKLOADS) == expected

    def test_suites(self):
        assert len(commercial_workloads()) == 4
        assert len(parsec_workloads()) == 6

    def test_mean_gap(self):
        profile = WORKLOADS["SPECjbb"]
        assert profile.mean_gap == pytest.approx(
            (1 - profile.mem_fraction) / profile.mem_fraction
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("x", "spec", 0.0, 0.2, 10, 0.1, 10, 1.5)
        with pytest.raises(ValueError):
            WorkloadProfile("x", "spec", 0.3, 0.2, 10, 1.0, 10, 1.5)
        with pytest.raises(ValueError):
            WorkloadProfile("x", "spec", 0.3, 0.2, 10, 0.1, 10, 0.5)


class TestTraceGeneration:
    def test_deterministic(self):
        a = generate_core_trace(WORKLOADS["SAP"], 3, 200, seed=9)
        b = generate_core_trace(WORKLOADS["SAP"], 3, 200, seed=9)
        assert a == b

    def test_different_cores_differ(self):
        a = generate_core_trace(WORKLOADS["SAP"], 0, 200, seed=9)
        b = generate_core_trace(WORKLOADS["SAP"], 1, 200, seed=9)
        assert a != b

    def test_gap_mean_tracks_mem_fraction(self):
        profile = WORKLOADS["TPC-C"]
        trace = generate_core_trace(profile, 0, 4000, seed=1)
        mean_gap = sum(r.gap for r in trace) / len(trace)
        assert mean_gap == pytest.approx(profile.mean_gap, rel=0.15)

    def test_write_fraction_in_range(self):
        profile = WORKLOADS["fsim"]
        trace = generate_core_trace(profile, 0, 4000, seed=1)
        writes = sum(r.is_write for r in trace) / len(trace)
        # Shared writes are scaled down, so the observed rate is at or
        # below the nominal private write fraction.
        assert 0.5 * profile.write_fraction <= writes <= profile.write_fraction * 1.1

    def test_address_regions(self):
        profile = WORKLOADS["SAP"]
        trace = generate_core_trace(profile, 2, 3000, seed=1)
        shared = [r for r in trace if SHARED_REGION_BASE <= r.address < FAR_REGION_BASE]
        far = [r for r in trace if r.address >= FAR_REGION_BASE]
        private = [r for r in trace if r.address < SHARED_REGION_BASE]
        assert private and shared and far
        share = len(shared) / len(trace)
        assert share == pytest.approx(profile.sharing_fraction, abs=0.05)

    def test_far_blocks_never_repeat(self):
        profile = WORKLOADS["canl"]
        trace = generate_core_trace(profile, 0, 5000, seed=2)
        far_blocks = [
            r.address // BLOCK_BYTES for r in trace if r.address >= FAR_REGION_BASE
        ]
        assert len(far_blocks) == len(set(far_blocks))

    def test_streaming_profile_walks_words(self):
        profile = WORKLOADS["libquantum"]
        trace = generate_core_trace(profile, 0, 2000, seed=3)
        stream_addrs = [
            r.address
            for r in trace
            if r.address < SHARED_REGION_BASE and r.address % BLOCK_BYTES != 0
        ]
        # Word-granular streaming produces intra-line addresses.
        assert stream_addrs

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            generate_core_trace(WORKLOADS["SAP"], 0, -1)


class TestNetworkAbstraction:
    def test_home_node_interleave(self):
        assert home_node(0, 64) == 0
        assert home_node(128, 64) == 1
        assert home_node(128 * 64, 64) == 0

    def test_app_packet_stream_shape(self):
        stream = app_packet_stream(WORKLOADS["SPECjbb"], 64, seed=1)
        pairs = [next(stream) for _ in range(40)]
        # Alternating request (small) and response (data) packets.
        for request, response in zip(pairs[0::2], pairs[1::2]):
            src, dst, bits = request
            rsrc, rdst, rbits = response
            assert (rsrc, rdst) == (dst, src)
            assert bits < rbits
            assert src != dst
