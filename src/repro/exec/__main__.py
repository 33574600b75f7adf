"""``python -m repro.exec`` -- the result-store CLI.

Delegates to :func:`repro.exec.store.main` (``info`` / ``quarantine`` /
``import``).
"""

import sys

from repro.exec.store import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
