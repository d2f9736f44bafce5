"""Run one ncdomains command in this process, as the `ncdomains` console
script does: ``python3 perfbench/launch.py <subcommand> [args...]``.

When PERFBENCH_TRACE_OUT is set, the listed package functions are wrapped
first, and the span summary and the spans are written to
``$PERFBENCH_TRACE_OUT.summary.json`` and ``.spans.json`` when the command ends.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ncdomains.cli  # noqa: E402

out = os.environ.get("PERFBENCH_TRACE_OUT")
if not out:
    sys.exit(ncdomains.cli.main(sys.argv[1:]))

import spans  # noqa: E402

tracer = spans.Tracer()
spans.install(tracer)
try:
    code = ncdomains.cli.main(sys.argv[1:])
finally:
    with open(out + ".summary.json", "w") as fh:
        json.dump(tracer.summary(), fh)
    tracer.dump(out + ".spans.json", {"argv": sys.argv[1:]})
sys.exit(code)
