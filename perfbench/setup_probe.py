"""Cold set-up: import biorth and build one workload's inputs, then exit.

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` times this script in a fresh interpreter for ``setup_s``; it
expects ``src`` and the checkout root on ``PYTHONPATH``.
"""

import sys

from perfbench import workloads

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]))
