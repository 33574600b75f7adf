"""Golden full-system runs: fixed-seed ``CmpSystem`` references, exact match.

``tests/golden/cmp_runs.json`` commits what twelve small fixed-seed CMP
runs produce through :meth:`CmpSystem.measure` -- the one recipe Figures 11-14
run: warm the caches, run to completion inside the network's measurement
window, close it.  Four applications run on the homogeneous mesh and on
Diagonal+BL, one asymmetric run has in-order cores on every other node
(the ``blocking_loads`` stall path), one has no start stagger, and two
larger ones reach the forward races the others miss.  Each row
holds the cycle count, every core's counters (stalls, retired
instructions, start cycle, L1 loads / stores, tag-store hits / misses),
the mean IPC, packets delivered, mean network latency and the number of
miss records.  The tests assert today's code reproduces them *exactly*,
which pins

* the core model, the coherence protocol and their coupling to the
  network per seed (any change to when a core issues, a message is sent
  or an event fires shows up as a golden diff, deliberately);
* ``c`` == ``event`` for a ``CmpSystem``: the delivery callback only
  rules out spans, so the compiled kernel steps the CMP's network one
  cycle at a time and must not change a single number.

Regenerate after an *intentional* model change (the rows then pin what
the figures print, since both go through ``measure``)::

    PYTHONPATH=src python tests/test_golden_cmp.py --regen
"""

import json
import pathlib

import pytest

from repro.cmp.coherence import L1Controller
from repro.cmp.core_model import small_core_config
from repro.cmp.system import CmpConfig, CmpSystem
from repro.core.layouts import layout_by_name
from repro.noc.ckernel import ckernel_available
from repro.traffic.workloads import core_traces

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "cmp_runs.json"

RECORDS_PER_CORE = 120
SEED = 5

#: name -> (application, layout, variant, records per core, seed)
GOLDEN_RUNS = {
    f"{app}/{layout}": (app, layout, "plain", RECORDS_PER_CORE, SEED)
    for app in ("SAP", "TPC-C", "frrt", "canl")
    for layout in ("baseline", "diagonal+BL")
}
GOLDEN_RUNS["SPECjbb/baseline/asymmetric"] = (
    "SPECjbb", "baseline", "asymmetric", RECORDS_PER_CORE, SEED
)
GOLDEN_RUNS["SJAS/diagonal+BL/no-stagger"] = (
    "SJAS", "diagonal+BL", "no-stagger", RECORDS_PER_CORE, SEED
)
# The smallest runs that reach the protocol's forward races, which the
# rows above never do: a FWD_GETX, and a forward met by the owner's PUTX
# still in flight (answered from the writeback buffer) ...
GOLDEN_RUNS["SAP/baseline/forward-meets-writeback"] = (
    "SAP", "baseline", "plain", 180, 1
)
# ... and a forward to an owner that dropped its clean Exclusive line
# without telling the home.
GOLDEN_RUNS["TPC-C/diagonal+BL/forward-to-evicted-owner"] = (
    "TPC-C", "diagonal+BL", "plain", 300, 2
)


def _build(name: str) -> CmpSystem:
    app, layout_name, variant, records, seed = GOLDEN_RUNS[name]
    layout = layout_by_name(layout_name)
    nodes = range(layout.mesh_size**2)
    traces = core_traces(app, nodes, records, seed)
    if variant == "asymmetric":
        small = {node: small_core_config() for node in nodes if node % 2}
        return CmpSystem(layout, traces, core_configs=small)
    if variant == "no-stagger":
        return CmpSystem(layout, traces, config=CmpConfig(start_stagger_window=1))
    return CmpSystem(layout, traces)


def run_row(name: str, kernel: str) -> dict:
    system = _build(name)
    system.network.use_kernel(kernel)
    cycles = system.measure()
    assert system.network.active_kernel == kernel
    stats = system.network.stats
    cores = [system.cores[node] for node in sorted(system.cores)]
    l1s = [system.l1s[node] for node in sorted(system.cores)]
    return {
        "cycles": cycles,
        "stall_cycles": [core.stall_cycles for core in cores],
        "instructions_retired": [core.instructions_retired for core in cores],
        "started_at": [core.started_at for core in cores],
        "l1_loads": [l1.loads for l1 in l1s],
        "l1_stores": [l1.stores for l1 in l1s],
        "l1_hits": [l1.cache.hits for l1 in l1s],
        "l1_misses": [l1.cache.misses for l1 in l1s],
        "mean_ipc": system.mean_ipc(),
        "packets_delivered": stats.packets_delivered,
        "net_latency_cycles": stats.avg_latency_cycles,
        "miss_records": len(system.miss_records),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_rows_match_the_runs_in_code(golden):
    assert sorted(golden) == sorted(GOLDEN_RUNS)


@pytest.mark.parametrize(
    "kernel",
    [
        "event",
        pytest.param(
            "c",
            marks=pytest.mark.skipif(
                not ckernel_available(), reason="compiled kernel unavailable"
            ),
        ),
    ],
)
@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_run_reproduces_golden_exactly(golden, name, kernel):
    assert run_row(name, kernel) == golden[name], (
        f"{name} diverged from its golden reference under the {kernel} "
        "kernel; if the model change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_golden_cmp.py --regen`"
    )


def test_rows_exercise_what_they_are_there_for(golden):
    """A fixture without a stall on either kind of core, or an asymmetric
    row whose small cores behave like the large ones, would pin nothing."""
    for name, row in golden.items():
        assert row["miss_records"] > 0, name
    assert sum(golden["canl/baseline"]["stall_cycles"]) > 0
    asym = golden["SPECjbb/baseline/asymmetric"]
    small = sum(asym["stall_cycles"][1::2])
    large = sum(asym["stall_cycles"][0::2])
    assert small > 2 * large
    assert set(golden["SJAS/diagonal+BL/no-stagger"]["started_at"]) == {0}


@pytest.mark.parametrize(
    "name, rows",
    [
        (
            "SAP/baseline/forward-meets-writeback",
            {("M", "FWD_GETX"), ("MI_A", "FWD_GETX")},
        ),
        ("TPC-C/diagonal+BL/forward-to-evicted-owner", {("I", "FWD_GETS")}),
    ],
)
def test_forward_rows_reach_the_races_they_pin(monkeypatch, name, rows):
    """Each larger row fires the L1 table rows it was added for."""
    fired = set()
    fire = L1Controller._fire

    def recorded(self, block, state, event, arg):
        fired.add((state, event))
        return fire(self, block, state, event, arg)

    monkeypatch.setattr(L1Controller, "_fire", recorded)
    _build(name).measure()
    assert rows <= fired


def _regenerate() -> None:
    payload = {name: run_row(name, "event") for name in GOLDEN_RUNS}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
