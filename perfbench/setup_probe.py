"""Set-up probe: a fresh process that does what a run does before its first
trial (start the interpreter, import the package, build the workload's
configs) and prints the monotonic clock at that point.

    python3 perfbench/setup_probe.py <workload>

The caller reads the clock before it starts this process; the difference is
the set-up time.  CLOCK_MONOTONIC is shared by all processes on Linux.
"""

import sys
import time

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]].configs(0)
print(repr(time.monotonic()))
