"""Acceptance criteria, one test per criterion, at their stated tolerances.

Criteria 1-11 take their verdicts from the ``floatlab.verification``
suites that ``verify`` runs, and read their bounds from that module;
criteria that share a suite (6 and 7, 9 and 11) each assert their own
flag in it.
Every test prints one PASS/FAIL line (visible under ``pytest -s``) before
asserting, so a suite run yields a one-line verdict per criterion.
"""

import json

import pytest

from floatlab import cli
from floatlab import spectral as sp
from floatlab import verification as vf

P11 = sp.PhysicalParams(1.0, 1.0)


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_coupling_matrix_inverse():
    report = vf.suite_coupling_matrix()
    verdict(1, report["passed"],
            f"coupling matrix times closed-form inverse: defect "
            f"{report['max_identity_defect']:.2e} <= {vf.COUPLING_DEFECT:.0e}")


def test_criterion_02_branch_cut_characterizations():
    report = vf.suite_branch_cut(P11, seed=0)
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
            f">= {vf.CONVERGENCE_ORDER}")


def test_criterion_05_resolvent_consistency():
    report = vf.suite_resolvent_consistency(P11)
    verdict(5, report["passed"],
            f"resolvent consistency: worst defect {report['max_consistency_defect']:.2e} "
            f"<= {vf.RESOLVENT_DEFECT:.0e}, worst order {report['min_order']:.2f} "
            f">= {vf.CONVERGENCE_ORDER}")


@pytest.fixture(scope="module")
def sector():
    return vf.suite_sector(P11)


def test_criterion_06_sector_decay_bound(sector):
    verdict(6, sector["decay_passed"],
            f"sector square-root bound: {sector['decay_violations']} violations over "
            f"{sector['decay_samples']} samples")


def test_criterion_07_uniform_resolvent_bounds(sector):
    verdict(7, sector["trend_passed"],
            f"uniform bounds: trace-matrix trend {sector['trace_matrix_trend']:.3f}, "
            f"operator trend {sector['operator_trend']:.3f}, both <= {vf.SECTOR_TREND}")


def test_criterion_08_spectrum_structure():
    disc = vf.suite_discretization(P11)
    boundary = vf.suite_boundary_matrix(P11)
    verdict(8, disc["passed"] and boundary["passed"],
            f"spectrum: max Re(eig) {disc['max_re_eig_no_sponge']:.2e}, rest-state defect "
            f"{disc['equilibrium_defect']:.2e}, {boundary['singular_count']} singular points")


@pytest.fixture(scope="module")
def dynamics():
    return vf.suite_dynamics(P11)


def test_criterion_09_energy_identity(dynamics):
    verdict(9, dynamics["identity_passed"],
            f"energy identity: defect {dynamics['identity_defect']:.2e} <= "
            f"{vf.ENERGY_DEFECT:.0e}, order {dynamics['identity_order']:.2f} >= "
            f"{vf.CONVERGENCE_ORDER}, energy monotone: {dynamics['identity_monotone']}")


def test_criterion_10_riccati_and_optimality():
    report = vf.suite_lqr(P11, n_side=100)
    worst_gap = max(report[f"{name}_cost_gap"] for name in ("heave", "bump", "flow"))
    verdict(10, report["passed"],
            f"riccati: scalar error {report['scalar_error']:.1e} <= {vf.ROUNDOFF:.0e}, "
            f"residual {report['residual']:.1e} <= {vf.RICCATI_RESIDUAL:.0e}, methods "
            f"differ {report['method_relative_gap']:.1e} <= {vf.METHOD_GAP:.0e}, "
            f"cost gap {worst_gap:.2%} <= {vf.COST_GAP:.0%}, optimal beats energy "
            f"feedbacks: {report['optimal_is_best']}")


def test_criterion_11_output_stability_surrogate(dynamics):
    verdict(11, dynamics["output_energy_passed"],
            f"output-energy inequality: E(0) - int(Hdot^2) >= "
            f"{dynamics['output_energy_margin']:.3e} at every recorded horizon")


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
