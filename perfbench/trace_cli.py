"""Run one etale-forge CLI command in this process, as ``python -m
etale_forge.cli`` would, and append its timings to a JSON-lines file.

Usage: python3 perfbench/trace_cli.py OUT_FILE TRACE(0|1) CLI-ARGS...

``import_ms`` is the import of ``etale_forge.cli``, ``run_ms`` the command
itself.  With TRACE=1 the command runs under the tracer, and the counts and
per-layer times and spans go to OUT_FILE as well.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    out_file, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    import etale_forge.cli as cli
    imported = time.perf_counter()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ran = time.perf_counter()
    try:
        code = cli.run(argv)
    finally:
        done = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    record = {"import_ms": (imported - start) * 1e3, "run_ms": (done - ran) * 1e3}
    if tracer is not None:
        record.update(tracer.record())
    sys.stdout.flush()
    with out_file.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
