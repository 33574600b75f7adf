"""Build the compiled cycle kernel under UndefinedBehaviorSanitizer.

Compiles ``src/repro/noc/_ckernel.c`` with ``-O1 -g
-fsanitize=undefined -fno-sanitize-recover=all`` into
``<dir>/ckernel-<key>.so``, where ``<key>`` is the cache key the loader
computes for the plain build (``repro.noc.ckernel.library_name``).  With
``REPRO_CKERNEL_CACHE=<dir>`` the loader then finds this library under
its own name and loads it instead of compiling, so every test that runs
the ``c`` kernel runs the sanitized walk, and the first undefined
behaviour aborts the process.

Usage, from the repository root::

    python tools/ckernel_sanitized.py /tmp/ubsan
    REPRO_CKERNEL_CACHE=/tmp/ubsan PYTHONPATH=src python -m pytest tests/test_ckernel.py

Exits 1 (with the compiler's message) when no C compiler is found or the
build fails.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.noc.ckernel import SOURCE, find_compiler, library_name  # noqa: E402

#: the loader's flags with the optimisation level traded for the
#: sanitizer's (-ffp-contract=off still: the RNG twin's self-check must
#: pass, or spans would be switched off under test).
SANITIZE = ("-O1", "-g", "-fsanitize=undefined", "-fno-sanitize-recover=all")
FLAGS = ("-shared", "-fPIC", "-ffp-contract=off")


def build(directory: Path) -> Path:
    """Compile the sanitized library into ``directory``; return its path."""
    compiler = find_compiler()
    if compiler is None:
        raise SystemExit("no C compiler found on PATH")
    target = directory / library_name(compiler, SOURCE.read_bytes())
    directory.mkdir(parents=True, exist_ok=True)
    cmd = [compiler, *SANITIZE, *FLAGS, "-o", str(target), str(SOURCE), "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr or proc.stdout)
        raise SystemExit(1)
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir", type=Path, help="the REPRO_CKERNEL_CACHE to fill")
    args = parser.parse_args(argv)
    print(build(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
