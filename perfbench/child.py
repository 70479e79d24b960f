"""Set up one workload in a fresh interpreter, for the set-up time.

Imports sweil (through the workload module), resolves the configuration
and backends of the workload's jobs, and prints the ``perf_counter``
reading at that point, just before a first suite call would start.  The
parent subtracts its own reading taken before the spawn; both are
CLOCK_MONOTONIC, shared by every process on the machine.

    python3 perfbench/child.py WORKLOAD SEED
"""

from __future__ import annotations

import sys
import time

from envinfo import SRC

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (imports sweil.cli)


def main() -> int:
    workloads.build(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter())
    return 0


if __name__ == "__main__":
    sys.exit(main())
