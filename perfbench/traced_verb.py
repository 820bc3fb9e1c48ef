"""Run one chaincut verb through ``chaincut.cli.main`` with tracing on.

    python3 perfbench/traced_verb.py SPANS_FILE ITERATION VERB [ARGS...]

The benchmark starts this script in place of ``python3 -m chaincut.cli``
for a traced iteration.  It wraps the traced functions, runs the verb in
this process, writes the spans and counters it kept in memory to
SPANS_FILE as JSON, and exits with the verb's exit code.
"""

from __future__ import annotations

import json
import sys

from tracer import IMPORT_SPAN, Tracer, install, verb_span


def main(argv: list[str]) -> int:
    spans_file, iteration, verb_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(iteration)
    idx = tracer.open(IMPORT_SPAN)
    install(tracer)
    tracer.close(idx)
    import chaincut.cli

    idx = tracer.open(verb_span(verb_argv[0]))
    try:
        code = chaincut.cli.main(verb_argv)
    finally:
        tracer.close(idx)
        with open(spans_file, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
