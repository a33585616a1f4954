"""Traced stand-in for ``python -m equiterm``: one CLI call in a fresh process.

Usage: ``cli_child.py TRACE_OUT SUBCOMMAND [ARGS...]``.  Times
``import equiterm``, runs ``equiterm.cli.main`` with the wrappers of
``tracer.py`` installed, writes the import time and the spans to TRACE_OUT
as JSON and exits with the CLI's exit code.
"""

import json
import sys
import time

from tracer import Tracer

t0 = time.perf_counter()
import equiterm.cli  # noqa: E402

import_ms = 1e3 * (time.perf_counter() - t0)

tracer = Tracer()
tracer.install()
try:
    code = equiterm.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"import_ms": import_ms, "unwrapped": tracer.unwrapped,
               "spans": tracer.spans}, fh)
sys.exit(code)
