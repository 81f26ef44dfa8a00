"""lpkit benchmark: drives the lpkit CLI in-process on known-answer instance files.

    python3 perfbench/run.py --workload check-rational --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: lpkit is imported from ``src/``,
and the run fails without printing a result when those sources are missing.
See README.md for the workloads and metrics.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
