"""Entry point of one fresh child interpreter of the perf ledger.

``run.py`` starts ``python child.py '<job json>'`` once for the frame
bank, per workload run, per cold-start probe and per layer sweep, so
every measurement begins from a clean import state and the child's
process tree can be accounted (CPU, RSS, leaks) as a unit.  The result
goes to the file the job names, inside the driver's work directory.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def main(argv) -> int:
    job = json.loads(argv[1])
    if job["kind"] == "bank":
        from bank import run_bank as handler
    elif job["kind"] == "layers":
        from layers import run_layers as handler
    elif job["kind"] == "setup":
        from workloads import run_setup as handler
    else:
        from workloads import run_workload as handler
    result = handler(job)
    with open(job["out"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
