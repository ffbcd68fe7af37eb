"""Set-up probe: one fresh interpreter that gets a workload ready to run.

Imports ``floatlab.cli`` (as every CLI call does) and builds the
workload's grids and generators, then prints one line
``ready <import_s> <build_s>`` and exits.  ``run.py`` times the process
from launch to that line.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

start = perf_counter()
import floatlab.cli  # noqa: E402,F401

imported = perf_counter()
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2])).build()
built = perf_counter()
print(f"ready {imported - start:.6f} {built - imported:.6f}", flush=True)
