"""Set-up time of one workload, measured inside a fresh process.

Times `import specmix` plus building the workload's mixture and replicate
config, from the first statement of this script, and prints the seconds.

Usage: python3 perfbench/setup_probe.py <src-dir> <workload>
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import specmix  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[2]]
workload.config(workload.build_mixture(), 0)
print(repr(time.perf_counter() - T0))
