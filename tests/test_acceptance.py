"""Acceptance criteria, one test per criterion, at their stated tolerances.

Every test prints one PASS/FAIL line (visible under ``pytest -s``) before
asserting, so a suite run yields a one-line verdict per criterion.
"""

import json
import math

import numpy as np
import pytest

from floatlab import cli
from floatlab import discretization as dz
from floatlab import dynamics as dyn
from floatlab import lqr
from floatlab import spectral as sp
from floatlab import verification as vf

P11 = sp.PhysicalParams(1.0, 1.0)
LAMBDAS = (1.0, 2 + 2j, 0.5 - 3j)


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def default_system(sponge=True, n_side=100):
    grid = dz.default_grid(P11, n_side=n_side) if sponge \
        else dz.build_grid(P11, 20.0, n_side)
    return dz.assemble(grid)


def test_criterion_01_coupling_matrix_inverse():
    report = vf.suite_coupling_matrix()
    verdict(1, report["passed"],
            f"coupling matrix times closed-form inverse: defect "
            f"{report['max_identity_defect']:.2e} <= {vf.COUPLING_DEFECT:.0e}")


def test_criterion_02_branch_cut_characterizations():
    report = vf.suite_branch_cut(P11, 10_000, seed=0)
    verdict(2, report["passed"],
            f"geometric vs sign test on {report['samples']} samples: "
            f"{report['disagreements']} disagreements")


@pytest.fixture(scope="module")
def halfline():
    return vf.suite_halfline(P11, seed=1)


def test_criterion_03_halfline_norm_bounds(halfline):
    worst = max(halfline["worst_extension_overshoot"],
                halfline["worst_particular_overshoot"])
    verdict(3, halfline["passed"],
            f"decay/source operator norms on 100 draws: worst overshoot {worst:.2e} "
            f"<= {vf.HALFLINE_OVERSHOOT:.0e}")


def test_criterion_04_halfline_oracle_and_order(halfline):
    orders = halfline["manufactured_orders"]
    verdict(4, halfline["passed"],
            f"half-line solve: oracle error {halfline['oracle_max_error']:.2e} <= "
            f"{vf.HALFLINE_ORACLE:.0e}, orders {orders[0]:.2f}/{orders[1]:.2f} "
            f">= {vf.HALFLINE_ORDER}")


def test_criterion_05_resolvent_consistency():
    system = default_system(sponge=False)
    worst_defect = 0.0
    for lam in LAMBDAS:
        rng = np.random.default_rng(11)
        for _ in range(5):
            inp = vf.random_resolvent_input(system.grid, rng)
            worst_defect = max(worst_defect, vf.resolvent_defect(system, lam, inp))
    worst_order = math.inf
    systems = {n: dz.assemble(dz.build_grid(P11, 30.0, n)) for n in (152, 303)}
    for lam in LAMBDAS:
        defects = {}
        for n, sys_n in systems.items():
            rng = np.random.default_rng(11)
            defects[n] = [vf.resolvent_defect(sys_n, lam,
                                              vf.random_resolvent_input(sys_n.grid, rng))
                          for _ in range(5)]
        worst_order = min(worst_order,
                          min(math.log2(a / b)
                              for a, b in zip(defects[152], defects[303])))
    ok = worst_defect <= vf.RESOLVENT_DEFECT and worst_order >= 1.7
    verdict(5, ok, f"resolvent consistency: worst defect {worst_defect:.2e} <= "
                   f"{vf.RESOLVENT_DEFECT:.0e}, "
                   f"worst order {worst_order:.2f} >= 1.7")


def test_criterion_06_sector_decay_bound():
    violations = 0
    total = 0
    for theta in (0.0, math.pi / 6, math.pi / 3):
        sector = sp.SectorTheta.with_default_radius(theta, P11)
        lams = sp.sector_grid(sector, n_angles=64, n_radii=40, radius_max=1e6)
        report = sp.sector_decay_bound_check(lams, P11, sector)
        checked = [s for s in report.samples if not s["skipped"]]
        total += len(checked)
        violations += sum(1 for s in checked if not s["pass"])
    verdict(6, violations == 0,
            f"sector square-root bound: {violations} violations over {total} samples")


def test_criterion_07_uniform_resolvent_bounds():
    sector = sp.SectorTheta.with_default_radius(math.pi / 4, P11)
    lams = sp.sector_grid(sector, n_angles=64, n_radii=40,
                          radius_min=1e2, radius_max=1e6)
    report = sp.sector_boundary_matrix_bound_check(lams, P11, sector)

    system = default_system(sponge=True)
    eye = np.eye(system.dim)
    radii = np.logspace(2, 6, 10)
    norms = []
    for rho in radii:
        for angle in (-math.pi / 3, math.pi / 3):
            lam = rho * np.exp(1j * angle)
            res = np.linalg.solve(lam * eye - system.A, eye)
            norms.append((rho, float(np.linalg.norm(lam * res, 2))))
    half = len(norms) // 2
    norms.sort(key=lambda t: t[0])
    op_ratio = max(v for _, v in norms[half:]) / max(v for _, v in norms[:half])
    ok = report.passed and report.value <= 1.1 and op_ratio <= 1.1
    verdict(7, ok, f"uniform bounds: trace-matrix trend {report.value:.3f}, "
                   f"operator trend {op_ratio:.3f}, both <= 1.1")


def test_criterion_08_spectrum_structure():
    disc = vf.suite_discretization(P11)
    boundary = vf.suite_boundary_matrix(P11)
    verdict(8, disc["passed"] and boundary["passed"],
            f"spectrum: max Re(eig) {disc['max_re_eig_no_sponge']:.2e}, rest-state defect "
            f"{disc['equilibrium_defect']:.2e}, {boundary['singular_count']} singular points")


def test_criterion_09_energy_identity():
    defects = []
    monotone = True
    for n, dt in ((100, 1e-3), (199, 5e-4)):
        system = dz.assemble(dz.default_grid(P11, n_side=n))
        traj = dyn.simulate(system, dz.bump_state(system.grid), T=1.0, dt=dt)
        defects.append(dyn.energy_balance_report(traj).max_defect)
        monotone &= bool(np.all(np.diff(traj.energies) <= 1e-10 * traj.energies[0]))
    order = math.log2(defects[0] / defects[1])
    ok = defects[0] <= 1e-3 and order >= 1.7 and monotone
    verdict(9, ok, f"energy identity: defect {defects[0]:.2e} <= 1e-3, order "
                   f"{order:.2f} >= 1.7, energy monotone: {monotone}")


def test_criterion_10_riccati_and_optimality():
    scalar = lqr.care_solve((np.array([[-1.0]]), [1.0], [1.0]))
    scalar_err = float(abs(scalar.P[0, 0] - (math.sqrt(2.0) - 1.0)))

    system = default_system(sponge=True)
    nk = lqr.care_solve(system)
    hs = lqr.care_solve(system, method="hamiltonian_sign")
    rel = float(np.linalg.norm(nk.P - hs.P, "fro") / np.linalg.norm(nk.P, "fro"))
    sym = float(np.abs(nk.P - nk.P.T).max())
    min_eig = float(np.linalg.eigvalsh(nk.P).min())

    # each simulated optimal cost carries its exact tail z(T)^T P z(T)
    table = lqr.compare_feedbacks(system, dz.heave_state(system.grid),
                                  (0.25, 0.5, 1.0, 2.0, 4.0), nk, T=240.0, dt=0.03)
    worst_gap = table.relative_gap
    for name in ("bump", "flow"):
        z0 = dz.preset_state(system.grid, name)
        gap = lqr.compare_feedbacks(system, z0, (), nk, T=240.0, dt=0.03).relative_gap
        worst_gap = max(worst_gap, gap)
    ok = (scalar_err <= 1e-12 and nk.residual <= 1e-8 and sym <= 1e-10
          and min_eig >= -1e-10 * np.linalg.norm(nk.P, 2) and rel <= vf.METHOD_GAP
          and worst_gap <= 0.02 and table.optimal_is_best)
    verdict(10, ok, f"riccati: scalar error {scalar_err:.1e} <= 1e-12, residual "
                    f"{nk.residual:.1e} <= 1e-8, methods differ {rel:.1e} <= "
                    f"{vf.METHOD_GAP:.0e}, "
                    f"cost gap {worst_gap:.2%} <= 2%, optimal beats energy "
                    f"feedbacks: {table.optimal_is_best}")


def test_criterion_11_output_stability_surrogate():
    system = default_system(sponge=True)
    z0 = dz.heave_state(system.grid)
    traj = dyn.simulate(system, z0, T=60.0, dt=0.02, gain=system.C)
    hdot = traj.outputs()
    steps = 0.5 * np.diff(traj.times) * (hdot[:-1] ** 2 + hdot[1:] ** 2)
    cumulative = np.concatenate([[0.0], np.cumsum(steps)])
    margin = float((traj.energies[0] - cumulative).min())
    verdict(11, margin >= -1e-9 * traj.energies[0],
            f"output-energy inequality: E(0) - int(Hdot^2) >= {margin:.3e} "
            f"at every recorded horizon")


def test_criterion_12_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    code1 = cli.main(["--out", str(out1), "--seed", "0", "verify"])
    code2 = cli.main(["--out", str(out2), "--seed", "0", "verify"])
    bytes1 = (out1 / "verify.json").read_bytes()
    bytes2 = (out2 / "verify.json").read_bytes()
    report = json.loads(bytes1)
    ok = code1 == 0 and code2 == 0 and bytes1 == bytes2 and report["all_passed"]
    verdict(12, ok, f"verify: exit codes {code1}/{code2}, byte-identical reports: "
                    f"{bytes1 == bytes2}")
