"""Profile hook for ``tools/reachability.py``, loaded at interpreter start.

``tools/reachability.py`` puts this directory first on ``PYTHONPATH``, so
every Python process a product surface starts -- pool workers and server
subprocesses included -- imports it.  It does nothing unless
``REACHABILITY_OUT`` names a directory.  Then every function entered for
the first time whose file lies under ``REACHABILITY_ROOT`` is appended,
as ``<file>:<first line>``, to ``<REACHABILITY_OUT>/<pid>.txt``.  Each
line is one unbuffered ``write``, so a process that is SIGKILLed or
leaves through ``os._exit`` (a pool worker) still reports what it ran,
and a fork copies no half-written buffer.
"""

import os
import sys
import threading

_OUT = os.environ.get("REACHABILITY_OUT")
_ROOT = os.environ.get("REACHABILITY_ROOT")

if _OUT and _ROOT:
    _seen = set()
    _fds = {}

    def _record(code):
        path = os.path.abspath(code.co_filename)
        if not path.startswith(_ROOT):
            return
        pid = os.getpid()
        fd = _fds.get(pid)
        if fd is None:
            fd = _fds[pid] = os.open(
                os.path.join(_OUT, f"{pid}.txt"),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        os.write(fd, f"{path}:{code.co_firstlineno}\n".encode())

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                _seen.add(code)
                _record(code)

    sys.setprofile(_hook)
    threading.setprofile(_hook)
