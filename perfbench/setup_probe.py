"""Time one fresh-process set-up of a workload and print it in CPU seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is what a fresh process pays before its first operation: starting
the interpreter, importing screwgrasp (with numpy and scipy) and building
the workload's inputs, up to and including its first block.  The time is
the CPU time of the process since it started, all threads.  run.py runs
this several times per run and reports the median as ``setup_s``.
"""

import sys
import time

import workloads

next(workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).blocks())
print(repr(time.process_time()))
