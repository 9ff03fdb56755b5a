"""Start ``repro serve`` for the benchmark, optionally with layer tracing.

Usage: ``python3 perfbench/serve_entry.py [--trace-out SPANS.json] serve ...``

Everything after the optional ``--trace-out`` is passed to the ``repro``
command line unchanged.  With ``--trace-out`` the daemon runs with the
benchmark's layer wrappers installed and writes its spans to that file when
it stops (``op=shutdown``); job pool workers write theirs to
``spans-<pid>.json`` files in the same directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]

    from repro.cli import main as repro_main

    if trace_out is None:
        return repro_main(argv)

    from perfbench import layers
    from perfbench.tracing import Tracer

    # Pool workers the daemon forks for a job write their spans next to it.
    tracer = Tracer(dump_dir=trace_out.parent)
    layers.install(tracer)
    tracer.active = True
    try:
        return repro_main(argv)
    finally:
        tracer.active = False
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
