"""Full-system example: a 64-tile CMP running a synthetic SPECjbb.

Builds the paper's Table 2 platform -- 64 out-of-order cores with private
L1s, a shared distributed L2 with a MESI directory, corner memory
controllers -- on top of two network layouts, replays a profile-matched
synthetic SPECjbb trace on every core, and reports IPC, L1 behaviour,
memory round-trip latency and network power.

Run:  python examples/cmp_workload.py
"""

from repro.cmp import CmpSystem
from repro.core import layout_by_name
from repro.core.power import network_power_breakdown
from repro.traffic.workloads import WORKLOADS, core_traces

WORKLOAD = "SPECjbb"
RECORDS_PER_CORE = 400
LAYOUTS = ("baseline", "diagonal+BL")


def main() -> None:
    profile = WORKLOADS[WORKLOAD]
    print(
        f"workload {WORKLOAD}: {profile.mem_fraction:.0%} memory instructions, "
        f"{profile.write_fraction:.0%} writes, "
        f"{profile.sharing_fraction:.0%} shared accesses\n"
    )
    traces = core_traces(WORKLOAD, range(64), RECORDS_PER_CORE, seed=21)
    for name in LAYOUTS:
        system = CmpSystem(layout_by_name(name), traces)
        cycles = system.measure()

        l1_hits = sum(l1.cache.hits for l1 in system.l1s.values())
        l1_total = sum(
            l1.cache.hits + l1.cache.misses for l1 in system.l1s.values()
        )
        misses = system.miss_latency_stats()
        dram = sum(1 for r in system.miss_records if r.via_memory)
        power = network_power_breakdown(system.network, system.network.stats)

        print(f"{name} ({system.network.describe()})")
        print(f"  finished in        : {cycles} cycles")
        print(f"  mean IPC           : {system.mean_ipc():.3f}")
        print(f"  L1 hit rate        : {100 * l1_hits / l1_total:.1f}%")
        print(
            f"  L1 miss round trip : {misses['mean']:.1f} cycles "
            f"({int(misses['count'])} misses, {dram} to DRAM)"
        )
        print(
            f"  network latency    : "
            f"{system.network.stats.avg_latency_cycles:.1f} cycles/packet"
        )
        print(f"  network power      : {power['total']:.2f} W")
        print()


if __name__ == "__main__":
    main()
