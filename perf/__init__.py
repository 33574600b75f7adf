"""The layered end-to-end benchmark of the HeteroNoC reproduction.

``python3 -m perf.run --workload <name> --seed <n>`` runs one workload in a
fresh process, checks its outputs and prints every metric by name; see
``perf/README.md`` and ``BENCHMARK.json`` at the repository root.
"""
