"""Run the figulat CLI with layer tracing, in a fresh interpreter.

Usage: python3 traced_cli.py FD figulat-args...

Installs the wrappers of `layers`, runs `figulat.cli.main` on the
remaining arguments exactly as the console script does, then writes the
tracer's counters as one JSON object to the inherited file descriptor FD.
Standard output and the exit status are the CLI's own.
"""
import json
import os
import sys

import layers

trace_fd = int(sys.argv[1])
tracer = layers.install()
from figulat import cli  # noqa: E402  (imported after the wrappers are bound)

try:
    code = cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    with os.fdopen(trace_fd, "w") as trace_out:
        json.dump(tracer.snapshot(), trace_out)
sys.exit(code)
