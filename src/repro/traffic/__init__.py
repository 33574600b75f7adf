"""Traffic generation: synthetic patterns, self-similar sources, traces
and application-profile workload generators."""

from repro.traffic.patterns import (
    BitComplement,
    BitReverse,
    NearestNeighbor,
    Tornado,
    TrafficPattern,
    Transpose,
    UniformRandom,
    pattern_by_name,
)
from repro.traffic.runner import SyntheticRunResult, run_synthetic
from repro.traffic.selfsimilar import SelfSimilarInjector
from repro.traffic.trace import TraceRecord
from repro.traffic.workloads import (
    WORKLOADS,
    WorkloadProfile,
    commercial_workloads,
    parsec_workloads,
)

__all__ = [
    "BitComplement",
    "BitReverse",
    "NearestNeighbor",
    "SelfSimilarInjector",
    "SyntheticRunResult",
    "Tornado",
    "TraceRecord",
    "TrafficPattern",
    "Transpose",
    "UniformRandom",
    "WORKLOADS",
    "WorkloadProfile",
    "commercial_workloads",
    "parsec_workloads",
    "pattern_by_name",
    "run_synthetic",
]
