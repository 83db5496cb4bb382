"""Time one cold set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

The clock starts before ``import windmpc`` and stops when the wind
profile, the controller (the offline bank builds two model sets) and the
initial state exist, i.e. just before the first controller step.
"""

import sys
from time import perf_counter

from run import import_windmpc
from workloads import WORKLOADS, setup


def main():
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    t0 = perf_counter()
    windmpc = import_windmpc()
    setup(windmpc, workload, seed, windmpc.TurbineParams(), windmpc.MpcWeights())
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
