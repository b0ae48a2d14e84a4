"""Set-up probe: import nfmatch, build one workload's matchers, clauses and
evaluator, print "ready" and exit. run.py times it from process start.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import sys

import workloads

workloads.prepare(sys.argv[1])
print("ready", flush=True)
