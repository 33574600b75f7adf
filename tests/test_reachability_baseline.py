"""The reachability baseline lists only functions that still exist.

``tools/reachability.py`` runs every product surface (minutes, CI's
coverage job) and fails on an unreached function the baseline does not
list, but an entry whose function was deleted only prints a "stale"
note there.  Checking the baseline against the ``ast`` inventory alone
takes well under a second, so a forgotten entry turns tier-1 red.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_baseline_entry_names_an_existing_function():
    tool = _load_tool()
    gone = sorted(tool.read_baseline(tool.BASELINE) - set(tool.inventory()))
    assert gone == [], "delete these from tools/reachability_baseline.txt"
