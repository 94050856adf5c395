"""One set-up probe: import the package and build a workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED [--quick]

Prints the seconds it took to import rrclosure into the fresh interpreter
and to build the inputs.  The clock starts before anything else is
imported, and the import of the benchmark's own workload module in between
is left out, so the figure holds neither the start of the interpreter nor
the benchmark's code.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import rrclosure  # noqa: E402,F401

import_s = time.perf_counter() - T0

from workloads import WORKLOADS  # noqa: E402

t1 = time.perf_counter()
WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3:] == ["--quick"])
print(repr(import_s + time.perf_counter() - t1))
