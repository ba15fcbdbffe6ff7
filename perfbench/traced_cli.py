"""Run one conceptkit CLI command with layer tracing and save the trace.

Usage: python3 perfbench/traced_cli.py TRACE_JSON SUBCOMMAND [ARG ...]

The command runs exactly as ``python -m conceptkit.cli SUBCOMMAND ...``
would, after `layertrace.install` has wrapped the library's functions.
Its exit code is passed through; the spans, per-function times and
counters are written to TRACE_JSON.
"""

from __future__ import annotations

import json
import sys

from layertrace import SPAN, Tracer, install


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from conceptkit import cli

    code = tracer.wrap("cli.main", cli.main, SPAN)(argv)
    with open(trace_path, "w", encoding="utf-8") as out:
        json.dump({"command": argv[0], "spans": tracer.spans,
                   "stats": tracer.stats, "counters": tracer.counters}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
