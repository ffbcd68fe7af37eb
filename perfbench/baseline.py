"""Reference stage times at n_side 48, 100 and 200 from one traced run.

    python3 perfbench/baseline.py

Times, through the benchmark's tracer, the stages of the baseline table
in ROADMAP.md on the default (sponge-on) grid: ``care_solve`` by
Newton-Kleinman and by the Hamiltonian sign iteration, a closed-loop
``simulate`` over T=240 with dt=0.03 under the Newton-Kleinman gain, and
``energy_balance_report`` on its 8001 samples.  Prints a Markdown table
and writes ``perfbench/results/baseline.json``.  One BLAS thread, as in
the benchmark; it takes about a minute, most of it at n_side 200.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from floatlab import discretization as dz  # noqa: E402
from floatlab import dynamics as dyn  # noqa: E402
from floatlab import lqr  # noqa: E402
from floatlab import spectral as sp  # noqa: E402
from tracing import Tracer  # noqa: E402

SIZES = (48, 100, 200)
STAGES = (
    ("care_solve Newton-Kleinman", ("lqr.care_solve[nk]",)),
    ("care_solve Hamiltonian sign", ("lqr.care_solve[sign]",)),
    ("simulate T=240, dt=0.03, closed loop", ("dynamics.simulate",)),
    ("energy_balance_report (8001 samples)", ("dynamics.energy_balance_report",)),
)


def stage_times(n_side):
    system = dz.assemble(dz.default_grid(sp.PhysicalParams(), n_side=n_side))
    z0 = dz.heave_state(system.grid).flatten(system.grid)
    tracer = Tracer()
    with tracer:
        nk = lqr.care_solve(system)
        lqr.care_solve(system, method="hamiltonian_sign")
        traj = dyn.simulate(system, z0, 240.0, 0.03, gain=nk.gain)
        dyn.energy_balance_report(traj)
    row = {label: tracer.outermost(names)[0] for label, names in STAGES}
    row["lyapunov_solves"] = tracer.outermost(("lqr.lyapunov_solve",))[1]
    row["dim"] = system.dim
    return row


def main():
    rows = {n: stage_times(n) for n in SIZES}
    print("| stage | " + " | ".join(f"n_side={n} (dim {rows[n]['dim']})" for n in SIZES) + " |")
    print("|---|" + "---|" * len(SIZES))
    for label, _ in STAGES:
        print(f"| {label} | " + " | ".join(f"{rows[n][label]:.2f} s" for n in SIZES) + " |")
    print("| Lyapunov solves | " + " | ".join(str(rows[n]["lyapunov_solves"]) for n in SIZES)
          + " |")
    (HERE / "results").mkdir(exist_ok=True)
    with open(HERE / "results" / "baseline.json", "w") as fh:
        json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
