"""``python -m repro.serve`` -- run the sweep job server.

Usage::

    python -m repro.serve --store results.sqlite --port 8923
    python -m repro.serve --store results.sqlite --port 0 --workers 4

``--port 0`` binds an ephemeral port (printed on stderr at startup).
SIGTERM/SIGINT stop the server: open ``/events`` streams end with an
``end`` line, and a job caught mid-run is left in the ``running`` state,
which the next start requeues -- committed points replay from the store,
so stopping is always safe.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from repro.serve.server import SweepServer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run the always-on sweep job server.",
    )
    parser.add_argument(
        "--store", required=True,
        help="SQLite result store (created when missing); jobs, the "
             "journal and results all live here",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8923,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker threads executing jobs (default 2)")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts per failing point (default 1)")
    args = parser.parse_args(argv)

    server = SweepServer(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        retries=args.retries,
    )

    def _shutdown(signum, frame):
        server.request_stop()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
