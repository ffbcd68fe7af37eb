"""Acceptance criteria, one test per criterion, at their stated tolerances.

The record is the report of ``floatlab --seed 0 verify``, run twice:
criteria 1-11 read their suites by name from the first report, so each
verdict is the one ``verify`` gives, in its configuration, and criterion
12 compares the two reports byte for byte.  Every bound is read from
``floatlab.verification``; criteria that share a suite (6 and 7, 9 and
11) each assert their own flag in it.
Every test prints one PASS/FAIL line (visible under ``pytest -s``) before
asserting, so a suite run yields a one-line verdict per criterion.
"""

import json

import pytest

from floatlab import cli
from floatlab import verification as vf


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(exit code, verify.json bytes) of two ``--seed 0 verify`` runs."""
    results = []
    for _ in range(2):
        out = tmp_path_factory.mktemp("verify")
        code = cli.main(["--out", str(out), "--seed", "0", "verify"])
        results.append((code, (out / "verify.json").read_bytes()))
    return results


@pytest.fixture(scope="module")
def suites(runs):
    """The first report's suites, by name."""
    return {suite["name"]: suite for suite in json.loads(runs[0][1])["suites"]}


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_coupling_matrix_inverse(suites):
    report = suites["coupling_matrix"]
    verdict(1, report["passed"],
            f"coupling matrix times closed-form inverse: defect "
            f"{report['max_identity_defect']:.2e} <= {vf.COUPLING_DEFECT:.0e}")


def test_criterion_02_branch_cut_characterizations(suites):
    report = suites["branch_cut"]
    verdict(2, report["passed"],
            f"geometric vs sign test on {report['samples']} samples: "
            f"{report['disagreements']} disagreements")


def test_criterion_03_halfline_norm_bounds(suites):
    halfline = suites["halfline_operators"]
    worst = max(halfline["worst_extension_overshoot"],
                halfline["worst_particular_overshoot"])
    verdict(3, halfline["passed"],
            f"decay/source operator norms on 100 draws: worst overshoot {worst:.2e} "
            f"<= {vf.HALFLINE_OVERSHOOT:.0e}")


def test_criterion_04_halfline_oracle_and_order(suites):
    halfline = suites["halfline_operators"]
    orders = halfline["manufactured_orders"]
    verdict(4, halfline["passed"],
            f"half-line solve: oracle error {halfline['oracle_max_error']:.2e} <= "
            f"{vf.HALFLINE_ORACLE:.0e}, orders {orders[0]:.2f}/{orders[1]:.2f} "
            f">= {vf.CONVERGENCE_ORDER}")


def test_criterion_05_resolvent_consistency(suites):
    report = suites["resolvent_consistency"]
    verdict(5, report["passed"],
            f"resolvent consistency: worst defect {report['max_consistency_defect']:.2e} "
            f"<= {vf.RESOLVENT_DEFECT:.0e}, worst order {report['min_order']:.2f} "
            f">= {vf.CONVERGENCE_ORDER}")


def test_criterion_06_sector_decay_bound(suites):
    sector = suites["sector"]
    verdict(6, sector["decay_passed"],
            f"sector square-root bound: {sector['decay_violations']} violations over "
            f"{sector['decay_samples']} samples")


def test_criterion_07_uniform_resolvent_bounds(suites):
    sector = suites["sector"]
    verdict(7, sector["trend_passed"],
            f"uniform bounds: trace-matrix trend {sector['trace_matrix_trend']:.3f}, "
            f"operator trend {sector['operator_trend']:.3f}, both <= {vf.SECTOR_TREND}")


def test_criterion_08_spectrum_structure(suites):
    disc, boundary = suites["discretization"], suites["boundary_matrix"]
    verdict(8, disc["passed"] and boundary["passed"],
            f"spectrum: max Re(eig) {disc['max_re_eig_no_sponge']:.2e}, rest-state defect "
            f"{disc['equilibrium_defect']:.2e}, {boundary['singular_count']} singular points")


def test_criterion_09_energy_identity(suites):
    dynamics = suites["dynamics"]
    verdict(9, dynamics["identity_passed"],
            f"energy identity: defect {dynamics['identity_defect']:.2e} <= "
            f"{vf.ENERGY_DEFECT:.0e}, order {dynamics['identity_order']:.2f} >= "
            f"{vf.CONVERGENCE_ORDER}, energy monotone: {dynamics['identity_monotone']}")


def test_criterion_10_riccati_and_optimality(suites):
    report = suites["lqr"]
    worst_gap = max(report[f"{name}_cost_gap"] for name in ("heave", "bump", "flow"))
    verdict(10, report["passed"],
            f"riccati: scalar error {report['scalar_error']:.1e} <= {vf.ROUNDOFF:.0e}, "
            f"residual {report['residual']:.1e} <= {vf.RICCATI_RESIDUAL:.0e}, methods "
            f"differ {report['method_relative_gap']:.1e} <= {vf.METHOD_GAP:.0e}, "
            f"cost gap {worst_gap:.2%} <= {vf.COST_GAP:.0%}, optimal beats energy "
            f"feedbacks: {report['optimal_is_best']}")


def test_criterion_11_output_stability_surrogate(suites):
    dynamics = suites["dynamics"]
    verdict(11, dynamics["output_energy_passed"],
            f"output-energy inequality: E(0) - int(Hdot^2) >= "
            f"{dynamics['output_energy_margin']:.3e} at every recorded horizon")


def test_criterion_12_verify_determinism(runs):
    (code1, bytes1), (code2, bytes2) = runs
    report = json.loads(bytes1)
    ok = code1 == 0 and code2 == 0 and bytes1 == bytes2 and report["all_passed"]
    verdict(12, ok, f"verify: exit codes {code1}/{code2}, byte-identical reports: "
                    f"{bytes1 == bytes2}")
