"""Run `windex.cli.main` with the layer wrappers installed.

    python3 perfbench/cli_launcher.py SPANS.json <windex arguments>

Imports the CLI, installs the tracer, times `main`, and at exit writes the
spans, counters, `main` time and wrapper install time to SPANS.json.  The
exit code is the CLI's.
"""
from __future__ import annotations

import json
import sys
import time

import tracing


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import windex.cli
    t0 = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        code = windex.cli.main(argv)
    finally:
        t2 = time.perf_counter()
        tracer.uninstall()
        data = tracer.dump()
        data.update(main_s=t2 - t1, install_s=t1 - t0)
        with open(out_path, "w") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
