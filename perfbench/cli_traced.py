"""Run one `upsilonkit` command with the layer wrappers installed.

    python cli_traced.py TRACE_FILE ARGS...

Used by traced cli runs in place of `python -m upsilonkit ARGS...`: it times
the package import (cli.import.s), installs `layertrace`, runs the command and
writes the layer totals and spans to TRACE_FILE.  The exit code is the
command's.
"""

import json
import sys
import time

start = time.perf_counter()
import upsilonkit.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - start

import layertrace  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = layertrace.install()
    tracer.enabled = True
    try:
        return upsilonkit.cli.main(argv)
    finally:
        tracer.enabled = False
        snap = tracer.snapshot()
        snap["metrics"]["cli.import.s"] = import_s
        with open(trace_file, "w") as fh:
            json.dump(snap, fh)


if __name__ == "__main__":
    sys.exit(main())
