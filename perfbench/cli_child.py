"""One traced ``rrclosure`` command, for the traced run of the cli workload.

    python3 perfbench/cli_child.py TRACE_PATH SUBCOMMAND PROBLEM [OPTIONS...]

Times the import of ``rrclosure.cli``, installs the tracer, runs the
command's ``main`` with the remaining arguments and writes the spans to
TRACE_PATH.  The exit code and output are the command's own.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import rrclosure.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(cli=True)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
