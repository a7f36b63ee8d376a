"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/probe.py <workload> <work_dir>

Prints the seconds from the start of this script to the end of the
workload's warm-up operation: importing cusumkit and cusumkit.cli, any JIT
compile or cache fill, and the operation itself.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import program  # noqa: E402


def main() -> None:
    program.load()
    import workloads

    workloads.warm_up(sys.argv[1], Path(sys.argv[2]))
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
