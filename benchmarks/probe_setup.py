"""Set-up probe: ``python3 benchmarks/probe_setup.py WORKLOAD CASE``.

Imports the package, builds the case's inputs (data, problem, schedule,
validated config) and prints the ``time.monotonic()`` reading at the point
where the first optimizer step would start.  ``run.py`` starts one probe
per fresh interpreter and subtracts the time it launched it.
"""

import sys
import time

from run import pin_threads


def main(workload: str, index: int) -> None:
    pin_threads()
    import workloads

    workloads.WORKLOADS[workload].setup(index)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
