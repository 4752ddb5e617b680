"""Set-up time of one workload, measured in the fresh process that runs this.

Set-up is ``import lcpower`` plus parsing the workload's input text, up to
the point where the first solve can start.  Prints the seconds.

    python3 bench/probe.py WORKLOAD SEED WORKDIR
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import workloads  # noqa: E402  (imports numpy and lcpower: part of set-up)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3])).parse()
print(time.perf_counter() - start)
