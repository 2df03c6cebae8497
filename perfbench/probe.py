"""One fresh-interpreter set-up of a construction workload.

``python3 perfbench/probe.py <workload> <seed>`` imports the library,
generates the workload's deployment and runs its warm-up build, then
exits; ``common.time_setup`` times it from outside.
"""

import sys

from common import require_program

if __name__ == "__main__":
    require_program()
    from construction import SPECS

    SPECS[sys.argv[1]].setup(int(sys.argv[2]))
