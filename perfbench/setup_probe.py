"""Time a fresh process's set-up: import charposet and parse the workload.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Prints the seconds from before ``import charposet`` to after every group
expression of WORKLOAD is parsed. Realization is per-op work and not included.
"""
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import WORKLOADS  # noqa: E402


def main(name):
    exprs = WORKLOADS[name].exprs
    t0 = time.perf_counter()
    import charposet
    for text in exprs:
        charposet.parse_group_expr(text)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1])
