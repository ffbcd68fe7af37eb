"""Self-test of the output checks: each must accept a real output and reject a corrupted one.

    python3 perfbench/selftest.py

Runs every workload once on a small grid (well under a minute), confirms
that its checks pass on the program's own outputs, then feeds each check
one corrupted output and confirms that the check fails.  Exit code 0 iff
every check passed the real output and failed the corrupted one.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import csv  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks as ck  # noqa: E402
from workloads import LqrHeave, ResolventHalfline, SimulateBump  # noqa: E402

SEED = 7


def run_ops(workload, out):
    out.mkdir(parents=True)
    return {name: fn() for name, fn in workload.operations(out)}


def verdict(fn):
    """Failure messages of a check, counting an exception as a failure."""
    try:
        return fn()
    except (ValueError, KeyError, IndexError) as exc:
        return [f"raised {type(exc).__name__}: {exc}"]


class Report:
    def __init__(self):
        self.bad = 0

    def real(self, label, failures):
        ok = not failures
        self.bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} real output passes {label}"
              + ("" if ok else f": {failures}"))

    def corrupt(self, label, failures):
        ok = bool(failures)
        self.bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} rejects {label}" + (f": {failures[0]}" if ok else ""))


def lqr_cases(rep, out):
    w = LqrHeave(SEED, {"grid": {"n_side": 24}})
    res = run_ops(w, out)
    for op, fails in w.check(res, out).items():
        rep.real(f"lqr-heave/{op}", fails)
    system = w.system()
    A, B, C = system.A, system.B, system.C
    n = w.cfg["grid"]["n_side"]
    path = out / "lqr" / "riccati.bin"
    P = ck.read_fltc(path).copy()
    gains = np.loadtxt(out / "lqr" / "gains.csv", delimiter=",")
    costs = ck.read_compare(out / "lqr" / "compare.csv")
    zeros = np.zeros(n)
    z0 = ck.pack_state(w.H0, zeros, zeros, zeros, zeros)
    rest = ck.rest_vector(n) / np.linalg.norm(ck.rest_vector(n))
    scale = np.linalg.norm(P, 2)

    blob = path.read_bytes()
    path.write_bytes(b"FLTX" + blob[4:])
    rep.corrupt("riccati.bin with a wrong magic", verdict(lambda: ck.read_fltc(path)))
    path.write_bytes(blob[:-8])
    rep.corrupt("riccati.bin one value short", verdict(lambda: ck.read_fltc(path)))
    rep.corrupt("P scaled by 1 + 1e-6 (residual)",
                ck.riccati_residual(A, B, C, P * (1 + 1e-6)))
    asym = P.copy()
    asym[0, 1] += 1e-9 * scale
    rep.corrupt("P made asymmetric", ck.riccati_psd(asym))
    rep.corrupt("P with a negative eigenvalue", ck.riccati_psd(P - 1e-6 * scale * np.outer(rest, rest)))
    bad_gains = gains.copy()
    bad_gains[np.argmax(np.abs(gains))] *= 1 + 1e-9
    rep.corrupt("gains.csv off by 1e-9 in one entry", ck.gains_match(bad_gains, B, P))
    rep.corrupt("gain plus an anti-damping term 10*Hdot",
                ck.closed_loop_spectrum(A, B, gains - 10.0 * C))
    rep.corrupt("P that does not annihilate rest",
                ck.annihilates_rest(A, P + 1e-6 * scale * np.outer(rest, rest), n))
    rep.corrupt("sign solution scaled by 1 + 1e-5", ck.methods_agree(P * (1 + 1e-5), P))
    worse = dict(costs, optimal=costs["optimal"] * 1.05)
    rep.corrupt("simulated optimal cost 5% high", ck.cost_table(worse, P, z0))
    beaten = dict(costs, **{"alpha=1": costs["optimal"] * 0.99})
    rep.corrupt("an alpha cost below the optimal one", ck.cost_table(beaten, P, z0))


def simulate_cases(rep, out):
    w = SimulateBump(SEED, {"grid": {"n_side": 48}, "time": {"T_max": 50.0}})
    res = run_ops(w, out)
    for op, fails in w.check(res, out).items():
        rep.real(f"simulate-bump/{op}", fails)
    t, g, p = w.cfg["time"], w.cfg["grid"], w.cfg["params"]
    n_rows = int(round(t["T_max"] / t["dt"])) + 1
    header, bump = ck.read_trajectory(out / "bump" / "trajectory.csv")
    _, flow = ck.read_trajectory(out / "flow" / "trajectory.csv")
    audit = ck.read_json(out / "bump" / "energy_balance.json")
    e_col = ck.TRAJECTORY_COLUMNS.index("E")

    rep.corrupt("trajectory with one row dropped",
                ck.trajectory_shape(header, bump[:-1], n_rows, t["T_max"]))
    rep.corrupt("trajectory with a renamed column",
                ck.trajectory_shape(["t", "H", "Hdot", "q_minus", "q_plus", "energy", "u"],
                                    bump, n_rows, t["T_max"]))
    expected = ck.bump_energy(p["a"], g["L"], g["n_side"], **w.bump)
    e0 = bump.copy()
    e0[0, e_col] *= 1 + 1e-9
    rep.corrupt("E(0) off by 1e-9 relative", ck.initial_energy(e0, expected))
    rise = flow.copy()
    k = len(rise) // 2
    rise[k, e_col] = rise[k - 1, e_col] * (1 + 1e-9)
    rep.corrupt("energy that rises once", ck.energy_nonincreasing(rise))
    law = flow.copy()
    law[len(law) // 3, ck.TRAJECTORY_COLUMNS.index("u")] += 1e-9
    rep.corrupt("u off -alpha*Hdot by 1e-9 once", ck.feedback_law(law, w.ALPHA))
    rep.corrupt("energy audit defect 2e-2", ck.energy_audit(dict(audit, max_defect=2e-2), n_rows))
    rep.corrupt("energy audit one step short",
                ck.energy_audit(dict(audit, steps=audit["steps"] - 1), n_rows))


def resolvent_cases(rep, out):
    w = ResolventHalfline(SEED, halfline_draws=3)
    res = run_ops(w, out)
    for op, fails in w.check(res, out).items():
        rep.real(f"resolvent-halfline/{op}", fails)

    report = ck.read_json(out / "resolvent" / "resolvent.json")
    with open(out / "resolvent" / "resolvent.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    rep.corrupt("resolvent.json with its verdict flipped",
                ck.resolvent_report(dict(report, **{"pass": not report["pass"]}), rows, 9))
    rep.corrupt("resolvent.json with a smaller worst defect",
                ck.resolvent_report(dict(report, worst_relative_defect=1e-4), rows, 9))
    rep.corrupt("resolvent.csv one row short", ck.resolvent_report(report, rows[:-1], 9))
    spectrum = ck.read_json(out / "spectrum" / "spectrum.json")
    a_off = w.system(sponge=False).A
    rep.corrupt("spectrum.json max Re 1e-6",
                ck.spectrum_report(dict(spectrum, max_re_sponge_off=1e-6), a_off))
    rep.corrupt("generator shifted right by 1e-6",
                ck.spectrum_report(spectrum, a_off + 1e-6 * np.eye(a_off.shape[0])))

    defects, spacings = w.sweep_defects(res)
    slow = copy.deepcopy(defects)
    slow[-1][0] *= 2.0
    rep.corrupt("finest-grid defect doubled in one case", ck.consistency_order(slow, spacings))

    o1, o2, o12 = (w._packed(o) for o in res["linearity"])
    o12 = o12.copy()
    o12[5] += 1e-8
    rep.corrupt("resolvent image off by 1e-8 in one entry", ck.linearity(o1, o2, o12, 2.0, -0.5))
    x, q = res["halfline-oracle"]
    q = q.copy()
    q[len(q) // 4] += 1e-3
    rep.corrupt("half-line solution off by 1e-3 at one node", ck.halfline_oracle(x, q))
    # the extension bound is tight once the decay has run its course before L
    omega, g, ext, phi, part = max(res["halfline-bounds"], key=lambda d: d[0].real)
    rep.corrupt("extension 1% above its norm bound",
                ck.norm_bounds([(omega, g, ext * 1.01, phi, part)]))
    rep.corrupt("particular solution scaled by 100",
                ck.norm_bounds([(omega, g, ext, phi, part * 100.0)]))


def main():
    work = HERE / "_work" / f"selftest-{os.getpid()}"
    rep = Report()
    try:
        for cases, sub in ((lqr_cases, "lqr"), (simulate_cases, "simulate"),
                           (resolvent_cases, "resolvent")):
            cases(rep, work / sub)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{rep.bad} problem(s)")
    return 1 if rep.bad else 0


if __name__ == "__main__":
    sys.exit(main())
