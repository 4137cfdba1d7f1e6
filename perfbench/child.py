"""Run the simpleloop CLI from the checked-out src/, optionally traced.

Usage:
    python3 perfbench/child.py [--trace FILE] <simpleloop arguments>

Does what the installed `simpleloop` command does, with the package imported
from the src/ directory next to this one. Before the command runs it writes
`simpleloop_file=<path>` as the first line of stderr, so the caller can check
which copy of the package ran. With `--trace FILE` the layers are wrapped by
`tracing.Tracer` and the spans are written to FILE when the command ends.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    import simpleloop
    import simpleloop.cli

    sys.stderr.write("simpleloop_file=%s\n" % os.path.realpath(simpleloop.__file__))
    sys.stderr.flush()
    if trace_path is None:
        return simpleloop.cli.main(argv)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return simpleloop.cli.main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
