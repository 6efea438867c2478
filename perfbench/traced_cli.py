"""Run ``repro.cli`` with span wrappers installed; dump spans at exit.

Usage: ``PERFBENCH_TRACE_OUT=spans.json python perfbench/traced_cli.py
<repro arguments>``.  The fig workloads run their commands through it,
and the serve workload starts its server through it, so spans come from
the benchmark's files and no program file changes.
"""

import os
import sys

from tracer import Tracer, install

tracer = Tracer()
index = tracer.begin("cli.import")
import repro.cli  # noqa: E402  (timed as the cli layer's set-up)

repro.cli.build_parser()
tracer.end(index)
install(tracer)
try:
    code = repro.cli.main(sys.argv[1:])
finally:
    tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])
sys.exit(code)
