"""Chaos scenario for the job server: SIGKILL mid-sweep, restart, resume.

Drives :func:`repro.serve.smoke.run_serve_smoke` -- the same scenario
the CI ``serve-smoke`` job runs -- against real server subprocesses:

* a chaos kill plan SIGKILLs the server while it executes the third
  point of a submitted sweep;
* a restarted server on the same store requeues the orphaned job,
  replays the committed points, and finishes the rest;
* the results fetched through the client are byte-identical to a serial
  local run, and a resubmission dedups onto the finished job;
* a pushed ``run_sweep`` fetches the job once, and the final SIGTERM
  ends an open event stream with an ``end`` line.

The assertions live inside the smoke module (it must fail CI on its
own); this test pins that the scenario passes under pytest too and that
every step of the report is exercised.
"""

from repro.serve.smoke import run_serve_smoke


def test_sigkill_resume_bit_identical(tmp_path):
    report = run_serve_smoke(tmp_path, log=lambda *_: None)
    assert report == {
        "baseline": "ok",
        "sigkill": "ok",
        "resume_bit_identical": "ok",
        "dedup": "ok",
        "push": "ok",
        "shutdown": "ok",
    }
