"""Synthetic application workload profiles.

The paper evaluates four commercial workloads (SAP, SPECjbb, TPC-C, SJAS --
traces collected at Intel and not publicly available), six PARSEC
benchmarks (ferret, facesim, vips, canneal, dedup, streamcluster) and
SPEC2K6 libquantum.  We substitute parameterized synthetic memory-reference
generators, one profile per benchmark, following the published
characterizations of these workloads (memory intensity, read/write mix,
working-set size, data sharing, and access locality).  The network and the
coherence protocol see a request stream with the same statistical shape, so
the *relative* network behaviour the paper reports is preserved; see
DESIGN.md's substitution table.

Two consumers:

* the CMP model replays :func:`core_traces` -- one
  :func:`generate_core_trace` stream per core -- through cores, caches and
  the directory protocol (Figures 11-14);
* network-only studies use :func:`app_packet_stream`, which abstracts each
  memory access into a request/response packet pair between a core and the
  home node of the accessed block (Figure 10).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.traffic.trace import TraceRecord

BLOCK_BYTES = 128  # cache line size, Table 2
ADDRESS_PACKET_BITS = 64
DATA_PACKET_BITS = 1024


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one benchmark's memory behaviour.

    Attributes:
        name: short name used in the paper's figures.
        suite: ``"commercial"``, ``"parsec"`` or ``"spec"``.
        mem_fraction: fraction of dynamic instructions that access memory;
            determines the mean non-memory gap between trace records.
        write_fraction: fraction of memory accesses that are stores.
        private_blocks: per-core private working set, in cache blocks.
        sharing_fraction: probability an access targets the shared pool.
        shared_blocks: size of the globally shared block pool.
        locality_skew: exponent >= 1 shaping the access distribution over
            the working set (higher concentrates accesses on hot blocks).
        streaming: when True, private accesses walk sequentially (spatial
            locality, low temporal reuse) instead of sampling the skewed
            distribution -- the libquantum/streamcluster flavour.
    """

    name: str
    suite: str
    mem_fraction: float
    write_fraction: float
    private_blocks: int
    sharing_fraction: float
    shared_blocks: int
    locality_skew: float
    streaming: bool = False
    # Two-tier locality: ``hot_fraction`` of private accesses go to a hot
    # set of ``hot_blocks`` lines (sized to be mostly L1-resident), the
    # rest to the cold tail of the working set.  Real workloads see L1 hit
    # rates near 90%; a single power-law over the full working set cannot
    # deliver that with a 256-line L1.
    hot_fraction: float = 0.9
    hot_blocks: int = 160
    # Writes to shared data are rarer than to private data (locks and
    # producer/consumer buffers, not the bulk of stores); this factor
    # scales write_fraction for shared accesses.
    shared_write_scale: float = 0.3
    # Cores share mostly within clusters of this size (pipeline stages,
    # warehouse groups) rather than all-to-all.
    sharing_cluster: int = 8
    # Fraction of accesses touching fresh, never-reused blocks (cold/
    # compulsory misses that reach DRAM); models the workload's L2 MPKI
    # and keeps the memory controllers busy.
    far_fraction: float = 0.015

    def __post_init__(self) -> None:
        if not 0.0 < self.mem_fraction <= 1.0:
            raise ValueError(f"mem_fraction out of range: {self.mem_fraction}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(
                f"write_fraction out of range: {self.write_fraction}"
            )
        if not 0.0 <= self.sharing_fraction < 1.0:
            raise ValueError(
                f"sharing_fraction out of range: {self.sharing_fraction}"
            )
        if self.locality_skew < 1.0:
            raise ValueError(f"locality_skew must be >= 1: {self.locality_skew}")

    @property
    def mean_gap(self) -> float:
        """Mean non-memory instructions between consecutive accesses."""
        return (1.0 - self.mem_fraction) / self.mem_fraction


# Profiles follow published characterizations: commercial server workloads
# are memory-intensive with substantial read-write sharing; PARSEC spans
# streaming kernels (streamcluster), pointer-chasing with poor locality
# (canneal) and pipeline-parallel sharing (ferret, dedup); libquantum is a
# single-threaded sequential streaming benchmark.
WORKLOADS: Dict[str, WorkloadProfile] = {
    "SAP": WorkloadProfile(
        "SAP", "commercial", 0.34, 0.30, 4096, 0.10, 8192, 1.6,
        hot_fraction=0.95, hot_blocks=104, far_fraction=0.008,
    ),
    "SPECjbb": WorkloadProfile(
        "SPECjbb", "commercial", 0.30, 0.28, 3072, 0.08, 6144, 1.7,
        hot_fraction=0.96, hot_blocks=96, far_fraction=0.006,
    ),
    "TPC-C": WorkloadProfile(
        "TPC-C", "commercial", 0.36, 0.34, 6144, 0.12, 12288, 1.5,
        hot_fraction=0.94, hot_blocks=112, far_fraction=0.010,
    ),
    "SJAS": WorkloadProfile(
        "SJAS", "commercial", 0.31, 0.29, 3072, 0.10, 6144, 1.7,
        hot_fraction=0.95, hot_blocks=96, far_fraction=0.008,
    ),
    "frrt": WorkloadProfile(
        "frrt", "parsec", 0.26, 0.22, 2048, 0.07, 4096, 2.0,
        hot_fraction=0.97, hot_blocks=88, far_fraction=0.004,
    ),
    "fsim": WorkloadProfile(
        "fsim", "parsec", 0.30, 0.33, 4096, 0.04, 2048, 1.4,
        hot_fraction=0.96, hot_blocks=104, far_fraction=0.006,
    ),
    "vips": WorkloadProfile(
        "vips", "parsec", 0.24, 0.26, 2048, 0.03, 2048, 1.9,
        hot_fraction=0.97, hot_blocks=88, far_fraction=0.004,
    ),
    "canl": WorkloadProfile(
        "canl", "parsec", 0.33, 0.20, 8192, 0.12, 16384, 1.1,
        hot_fraction=0.88, hot_blocks=128, far_fraction=0.014,  # pointer chasing
    ),
    "ddup": WorkloadProfile(
        "ddup", "parsec", 0.29, 0.25, 3072, 0.08, 6144, 1.8,
        hot_fraction=0.96, hot_blocks=96, far_fraction=0.006,
    ),
    "sclst": WorkloadProfile(
        "sclst", "parsec", 0.35, 0.15, 6144, 0.05, 4096, 1.2,
        streaming=True, hot_fraction=0.94, hot_blocks=96, far_fraction=0.010,
    ),
    "libquantum": WorkloadProfile(
        "libquantum", "spec", 0.40, 0.25, 16384, 0.0, 1, 1.0,
        streaming=True, hot_fraction=0.93, hot_blocks=80, far_fraction=0.016,
    ),
}


def commercial_workloads() -> List[WorkloadProfile]:
    return [w for w in WORKLOADS.values() if w.suite == "commercial"]


def parsec_workloads() -> List[WorkloadProfile]:
    return [w for w in WORKLOADS.values() if w.suite == "parsec"]


PRIVATE_REGION_BITS = 34  # per-core private regions are 2^34 bytes apart
SHARED_REGION_BASE = 1 << 44
# Fresh (never reused) blocks live here; the CMP warmup skips this region
# so these stay compulsory DRAM misses during the timed run.
FAR_REGION_BASE = 1 << 50


def _skewed_index(rng: random.Random, size: int, skew: float) -> int:
    """Sample [0, size) with a power-law bias toward low indices."""
    return min(size - 1, int(size * (rng.random() ** skew)))


WORD_BYTES = 8


class _CoreAddressStream:
    """Stateful per-core address generator for one profile."""

    def __init__(
        self, profile: WorkloadProfile, core_id: int, rng: random.Random
    ) -> None:
        self.profile = profile
        self.rng = rng
        self.core_id = core_id
        # Stagger private regions by a prime block count so different
        # cores' working sets spread over distinct L2 homes and sets
        # (power-of-two-aligned bases would alias every core's block k
        # onto one home bank set).
        self.private_base = ((core_id + 1) << PRIVATE_REGION_BITS) + (
            core_id * 8191 * BLOCK_BYTES
        )
        self.stream_pointer = 0
        # Shared accesses cluster: this core's slice of the shared pool.
        cluster = core_id // max(1, profile.sharing_cluster)
        pool = max(1, profile.shared_blocks)
        self.cluster_size = max(1, pool // 8)
        self.cluster_base = (cluster * self.cluster_size) % pool
        self.far_base = FAR_REGION_BASE + (core_id << 34)
        self.far_counter = 0

    def next_address(self) -> Tuple[int, bool]:
        """Next (address, is_shared) pair."""
        profile, rng = self.profile, self.rng
        if rng.random() < profile.far_fraction:
            address = self.far_base + self.far_counter * BLOCK_BYTES
            self.far_counter += 1
            return address, False
        if rng.random() < profile.sharing_fraction:
            # Mostly intra-cluster sharing with an occasional global touch.
            if rng.random() < 0.9:
                offset = _skewed_index(
                    rng, self.cluster_size, profile.locality_skew
                )
                block = (self.cluster_base + offset) % max(1, profile.shared_blocks)
            else:
                block = _skewed_index(
                    rng, profile.shared_blocks, profile.locality_skew
                )
            return SHARED_REGION_BASE + block * BLOCK_BYTES, True
        if profile.streaming and rng.random() >= profile.hot_fraction:
            # Sequential word-granular walk: spatial locality within a
            # line, no temporal reuse across lines.
            address = self.private_base + self.stream_pointer * WORD_BYTES
            span_words = profile.private_blocks * (BLOCK_BYTES // WORD_BYTES)
            self.stream_pointer = (self.stream_pointer + 1) % span_words
            return address, False
        if rng.random() < profile.hot_fraction:
            block = _skewed_index(rng, profile.hot_blocks, profile.locality_skew)
        else:
            # The cold tail is itself skewed: real reference streams touch
            # near-tail blocks far more often than the deep tail.
            block = profile.hot_blocks + _skewed_index(
                rng,
                max(1, profile.private_blocks - profile.hot_blocks),
                max(2.0, profile.locality_skew),
            )
        return self.private_base + block * BLOCK_BYTES, False


def generate_core_trace(
    profile: WorkloadProfile,
    core_id: int,
    num_records: int,
    seed: int = 0,
) -> List[TraceRecord]:
    """Synthesize one core's memory trace for ``profile``.

    Gaps are geometric with the profile's mean; addresses mix the core's
    private working set with the shared pool.  Deterministic for a given
    ``(profile, core_id, seed)``.
    """
    if num_records < 0:
        raise ValueError(f"num_records must be >= 0, got {num_records}")
    rng = random.Random(
        (seed * 7919 + core_id) * 104729 + zlib.crc32(profile.name.encode()) % 65536
    )
    stream = _CoreAddressStream(profile, core_id, rng)
    p = profile.mem_fraction
    records = []
    for _ in range(num_records):
        # Geometric gap with success probability p has mean (1-p)/p.
        gap = 0
        while rng.random() > p:
            gap += 1
        address, is_shared = stream.next_address()
        write_probability = profile.write_fraction * (
            profile.shared_write_scale if is_shared else 1.0
        )
        records.append(
            TraceRecord(
                gap=gap,
                is_write=rng.random() < write_probability,
                address=address,
            )
        )
    return records


def core_traces(
    workload: str,
    nodes: Iterable[int],
    records_per_core: int,
    seed: int,
) -> Dict[int, List[TraceRecord]]:
    """``{core: trace}`` of the named workload for every core in ``nodes``:
    the trace map a :class:`~repro.cmp.system.CmpSystem` takes."""
    profile = WORKLOADS[workload]
    return {
        core: generate_core_trace(profile, core, records_per_core, seed=seed)
        for core in nodes
    }


def home_node(address: int, num_nodes: int, block_bytes: int = BLOCK_BYTES) -> int:
    """Home L2 bank (node id) of a block: low-order interleaving.

    Matches the paper's Section 6: "we use the low order address bits above
    the cache line address" (there for memory-controller selection; the
    same interleave maps blocks to L2 banks).
    """
    return (address // block_bytes) % num_nodes


def app_packet_stream(
    profile: WorkloadProfile,
    num_nodes: int,
    seed: int = 0,
) -> Iterator[Tuple[int, int, int]]:
    """Network-level abstraction of a workload: (src, dst, payload_bits).

    Each memory access by core ``c`` to block ``b`` becomes a request
    packet ``c -> home(b)`` followed by a data response ``home(b) -> c``.
    Used by network-only studies (Figure 10) where the full CMP model is
    unnecessary.
    """
    rng = random.Random(seed * 65537 + zlib.crc32(profile.name.encode()) % 65536)
    streams = [
        _CoreAddressStream(profile, core, random.Random(seed * 131 + core))
        for core in range(num_nodes)
    ]
    while True:
        core = rng.randrange(num_nodes)
        address, _is_shared = streams[core].next_address()
        home = home_node(address, num_nodes)
        if home == core:
            home = (home + 1) % num_nodes
        yield (core, home, ADDRESS_PACKET_BITS)
        yield (home, core, DATA_PACKET_BITS)
