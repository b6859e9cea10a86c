"""Set-up time of one workload, measured in a fresh interpreter.

Usage: ``python3 -m perfbench.setup_probe <workload> <seed> <full|tiny>``
with ``src`` and the repository root on ``PYTHONPATH``.  Prints one JSON
line: the seconds from ``import repro`` until the system is ready to
run -- configuration, generated programs and ``Simulator`` construction,
or the sweep plan -- which every command-line run pays before its first
simulated cycle.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, size_name = argv[0], int(argv[1]), argv[2]
    start = time.perf_counter()
    import repro  # noqa: F401 - the import is part of what is timed

    from perfbench import cases

    size = cases.SIZES[size_name][workload]
    if workload == cases.SWEEP:
        cases.make_sweep(seed, size)
    else:
        config = cases.make_config(workload, seed, size.processors)
        cases.make_simulator(
            config, cases.make_programs(workload, config, size.rounds))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
