"""Set-up probe: import coronageo, build one workload's inputs, print their count.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

The benchmark times this process from spawn to exit as ``setup_s``: the cost
a run pays before its first search.
"""

import sys

import workloads

if __name__ == "__main__":
    print(len(workloads.build_inputs(sys.argv[1], int(sys.argv[2]))))
