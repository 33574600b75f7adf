"""Parallel sweep execution over one durable result store.

The package turns "run this list of independent simulations" into a
first-class operation:

* :class:`SweepPoint` -- a picklable, content-hashable spec of one run;
* :func:`execute_point` -- run one spec from scratch, deterministically
  and re-entrantly (the run owns all of its state, packet ids included);
* :func:`run_sweep` -- execute many specs through a ``serial`` or
  ``process`` backend, replaying whatever the :class:`ResultStore`
  already holds (crash-safe WAL-mode SQLite with a sweep journal and
  corrupt-row quarantine -- the only durable backend; ``python -m
  repro.exec <store> info|quarantine`` inspects it);
* :func:`configure` -- process-wide :class:`ExecDefaults`
  (``--jobs``/``--no-cache`` in ``run_all``), seeded once from
  ``REPRO_JOBS`` / ``REPRO_SWEEP_CACHE`` by
  :meth:`ExecDefaults.from_env`.

The contract the test suite pins: for a given spec, serial execution,
process execution and a store replay all yield the same
:class:`PointResult`, bit for bit.
"""

from repro.exec.engine import (
    ExecDefaults,
    configure,
    run_sweep,
    sweep_points,
)
from repro.exec.point import (
    SPEC_VERSION,
    PointResult,
    SweepPoint,
    execute_point,
)
from repro.exec.store import ResultStore, default_store_path

__all__ = [
    "SPEC_VERSION",
    "ExecDefaults",
    "PointResult",
    "ResultStore",
    "SweepPoint",
    "configure",
    "default_store_path",
    "execute_point",
    "run_sweep",
    "sweep_points",
]
