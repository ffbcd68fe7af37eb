import cmath
import math

import numpy as np
import pytest

from floatlab import discretization as dz
from floatlab import spectral as sp
from floatlab import verification as vf
from floatlab.errors import DegenerateLambda, ExcludedLambda

P11 = sp.PhysicalParams(1.0, 1.0)


class TestParams:
    def test_positive_fields_required(self):
        with pytest.raises(ValueError):
            sp.PhysicalParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            sp.PhysicalParams(1.0, 0.0)

    def test_sector_angle_range(self):
        with pytest.raises(ValueError):
            vf.sector_floor(math.pi / 2, P11)
        with pytest.raises(ValueError):
            vf.sector_floor(-0.1, P11)
        assert vf.sector_floor(0.0, P11) == pytest.approx(4.0)


class TestBranchCut:
    def test_negative_real_axis_beyond_pole(self):
        # (-2)^2 / (1 - 2) = -4, negative real
        assert sp.on_branch_cut(-2.0, P11) is True

    def test_positive_real_lambda_not_excluded(self):
        assert sp.on_branch_cut(1.0, P11) is False

    def test_circle_point(self):
        # |(-1+i) + 1| = 1 and the ratio equals -2
        lam = -1.0 + 1.0j
        assert sp.on_branch_cut(lam, P11) is True
        assert lam**2 / (1.0 + lam) == pytest.approx(-2.0)

    def test_degenerate_points_raise(self):
        with pytest.raises(DegenerateLambda):
            sp.on_branch_cut(0.0, P11)
        with pytest.raises(DegenerateLambda):
            sp.on_branch_cut(-1.0, P11)

    def test_characterizations_agree_on_random_samples(self):
        rng = np.random.default_rng(0)
        for lam in vf.branch_cut_samples(P11, 2000, rng):
            assert sp.on_branch_cut(lam, P11) == vf.ratio_on_cut(lam, P11)

    def test_viscosity_scaling(self):
        # the excluded set at viscosity mu is the mu=1 set scaled by 1/mu
        rng = np.random.default_rng(1)
        mu = 3.3
        scaled = sp.PhysicalParams(1.0, mu)
        for lam in vf.branch_cut_samples(scaled, 500, rng):
            assert sp.on_branch_cut(lam, scaled) == sp.on_branch_cut(mu * lam, P11)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mu", [0.01, 0.5, 0.8])
    def test_suite_passes_off_unit_viscosity(self, mu, seed):
        # lam^2/(1 + mu*lam) is stationary at -2/mu, where the ratio test's
        # band widens to |delta*eta| <~ 2*rtol/mu^2; the near-set draws there
        # used to fall inside it (at mu = 0.5, seeds 0 and 1; mu = 0.8, seed 0).
        # The redraws end only if kept near -2/mu: at mu = 0.01 the band,
        # applied elsewhere, holds every half-line draw of small offset.
        report = vf.suite_branch_cut(sp.PhysicalParams(1.0, mu), seed=seed)
        assert report["disagreements"] == 0 and report["passed"]

    def test_near_draws_clear_the_stationary_band(self):
        # every circle or half-line draw inside the band is exactly on the set
        params = sp.PhysicalParams(1.0, 0.5)
        r = 1.0 / params.mu
        lams = vf.branch_cut_samples(params, 20_000, np.random.default_rng(0))[:10_000]
        inside = [lam for lam in lams
                  if abs((lam.real + 2.0 * r) * lam.imag) <= 2.0 * sp.MEMBERSHIP_RTOL * r * r]
        assert all(sp.on_branch_cut(lam, params) for lam in inside)


class TestHelmholtzOmega:
    def test_real_lambda(self):
        assert sp.helmholtz_omega(1.0, P11) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_imaginary_lambda(self):
        # i^2/(1+i) = -0.5+0.5i has modulus sqrt(0.5) and argument 3*pi/4
        omega = sp.helmholtz_omega(1j, P11)
        expected = 0.5 ** 0.25 * cmath.exp(1j * 3 * math.pi / 8)
        assert omega == pytest.approx(expected, abs=1e-12)
        assert omega.real == pytest.approx(0.3218, abs=5e-4)
        assert omega.imag == pytest.approx(0.7769, abs=5e-4)

    def test_excluded_lambda_raises(self):
        with pytest.raises(ExcludedLambda):
            sp.helmholtz_omega(-1.0 + 1.0j, P11)

    def test_positive_real_part_on_samples(self):
        rng = np.random.default_rng(2)
        count = 0
        while count < 10_000:
            lam = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            try:
                if lam == 0 or sp.on_branch_cut(lam, P11):
                    continue
            except DegenerateLambda:
                continue
            omega = sp.helmholtz_omega(lam, P11)
            assert omega.real > 0
            assert abs(omega * omega * (1 + lam) - lam * lam) <= 1e-12 * abs(lam * lam)
            count += 1

    def test_principal_root_real_part_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if z.real < 0 and abs(z.imag) < 1e-9:
                continue
            assert cmath.sqrt(z).real == pytest.approx(
                math.sqrt(0.5 * (abs(z) + z.real)), abs=1e-12)


class TestCouplingMatrix:
    def test_unit_half_width_values(self):
        m = sp.coupling_matrix(P11)
        assert m == pytest.approx(np.array([[11 / 40, -1 / 40], [-1 / 40, 11 / 40]]))

    def test_inverse_values(self):
        mi = sp.coupling_matrix_inverse(P11)
        assert mi == pytest.approx(np.array([[11 / 3, 1 / 3], [1 / 3, 11 / 3]]))

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_product_is_identity(self, a):
        params = sp.PhysicalParams(a, 1.0)
        prod = sp.coupling_matrix(params) @ sp.coupling_matrix_inverse(params)
        assert np.abs(prod - np.eye(2)).max() <= 1e-13

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_inverse_matches_numerical_inversion(self, a):
        params = sp.PhysicalParams(a, 1.0)
        direct = np.linalg.inv(sp.coupling_matrix(params))
        assert np.abs(direct - sp.coupling_matrix_inverse(params)).max() <= 1e-13

    def test_symmetry_for_random_half_widths(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = sp.coupling_matrix(sp.PhysicalParams(float(rng.uniform(0.1, 5)), 1.0))
            assert m[0, 1] == m[1, 0]


class TestBoundarySystemMatrix:
    def test_unit_parameter_values(self):
        m = sp.boundary_system_matrix(1.0, P11)
        diag = 11 / 3 + 4 + 4 / math.sqrt(0.5)
        assert m[0, 0] == pytest.approx(diag, abs=1e-12)
        assert m[0, 0].real == pytest.approx(13.3235, abs=5e-4)
        assert m[0, 1] == pytest.approx(-11 / 3, abs=1e-12)

    def test_symmetric_and_real_for_positive_real_lambda(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = complex(rng.uniform(0.1, 5.0), 0.0)
            m = sp.boundary_system_matrix(lam, P11)
            assert m[0, 1] == m[1, 0]
            assert np.abs(m.imag).max() == 0.0

    def test_feedback_variant_shifts_diagonal_by_one(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                if lam == 0 or sp.on_branch_cut(lam, P11):
                    continue
            except DegenerateLambda:
                continue
            delta = sp.boundary_system_matrix_feedback(lam, P11) \
                - sp.boundary_system_matrix(lam, P11)
            assert np.abs(delta - np.eye(2)).max() <= 1e-12

    def test_feedback_diagonal_example(self):
        m = sp.boundary_system_matrix_feedback(1.0, P11)
        assert m[0, 0].real == pytest.approx(14.3235, abs=5e-4)

    def test_determinant_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                if lam == 0 or sp.on_branch_cut(lam, P11):
                    continue
            except DegenerateLambda:
                continue
            direct = np.linalg.det(sp.boundary_system_matrix(lam, P11))
            closed = sp.boundary_system_determinant(lam, P11)
            assert abs(direct - closed) <= 1e-10 * max(1.0, abs(closed))


class TestSingularPoints:
    def test_quartic_candidates_satisfy_the_polynomial(self):
        coeffs = sp.singular_quartic_coefficients(P11)
        roots = np.roots(coeffs)
        assert len(roots) == 4
        for r in roots:
            assert abs(np.polyval(coeffs, r)) <= 1e-8 * max(1.0, abs(r) ** 4)

    @pytest.mark.parametrize("a,mu", [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5), (1.0, 3.0)])
    def test_at_most_four_left_half_plane_roots(self, a, mu):
        params = sp.PhysicalParams(a, mu)
        s = sp.singular_points(params)
        assert len(s) <= 4
        for root in s:
            assert root.real <= 0
            assert abs(sp.boundary_system_determinant(root, params)) < vf.SINGULAR_RESIDUAL

    def test_unit_parameters_all_candidates_are_squaring_artifacts(self):
        # every quartic root takes the spurious square-root branch here,
        # so the verified singular set is empty
        s = sp.singular_points(P11)
        assert len(s) == 0
        for r in np.roots(sp.singular_quartic_coefficients(P11)):
            det = abs(np.linalg.det(sp.boundary_system_matrix(complex(r), P11)))
            assert det > 1.0

    def test_verification_rechecks_reported_roots(self, monkeypatch):
        # a frequency off the determinant's zero set, reported as a singular
        # point, must fail the suite
        lam = next(complex(r) for r in np.roots(sp.singular_quartic_coefficients(P11))
                   if r.real < 0)
        monkeypatch.setattr(sp, "singular_points", lambda params: (lam,))
        report = vf.suite_boundary_matrix(P11, seed=2)
        assert not report["passed"]
        assert report["worst_singular_residual"] > vf.SINGULAR_RESIDUAL


class TestSpectrumDistance:
    def test_origin_is_in_the_set(self):
        assert sp.spectrum_distance(0.0, P11) == 0.0

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_minus_two_over_mu_is_in_the_set(self, mu):
        params = sp.PhysicalParams(1.0, mu)
        assert sp.spectrum_distance(-2.0 / mu, params) <= 1e-15

    def test_unit_point_distance(self):
        # min over |1|, half-line distance 2, circle distance 1; set empty of roots
        s = sp.singular_points(P11)
        assert sp.spectrum_distance(1.0, P11, s) == pytest.approx(1.0)


class TestSectorSweeps:
    def test_lower_bound_example(self):
        # lambda = 4 sits on the floor 4/(mu (1 - sin 0)) of the theta = 0 sector
        assert vf.sector_floor(0.0, P11) == pytest.approx(4.0)
        re_omega, bound = vf.decay_rates([4.0], P11, 0.0)
        assert re_omega[0] == pytest.approx(math.sqrt(16 / 5), abs=1e-12)
        assert bound[0] == pytest.approx(0.5)

    def test_imaginary_sample_recorded(self):
        re_omega, bound = vf.decay_rates([4.0j], P11, 0.0)
        assert bound[0] == pytest.approx(0.5)
        assert re_omega[0] == pytest.approx(sp.helmholtz_omega(4.0j, P11).real, rel=1e-15)

    def test_grid_respects_sector(self):
        theta = math.pi / 4
        floor = vf.sector_floor(theta, P11)
        lams = vf.sector_samples(theta, floor)
        assert len(lams) == 2560
        assert np.all(np.abs(np.angle(lams)) < math.pi / 2 + theta)
        assert np.all(np.abs(lams) >= floor * (1 - 1e-12))

    def test_boundary_matrix_sweep_trend(self):
        lams = vf.sector_samples(math.pi / 4, 1e2)
        norms = vf.trace_matrix_norms(lams, P11)
        direct = [np.linalg.norm(lam * np.linalg.inv(sp.boundary_system_matrix(lam, P11)), 2)
                  for lam in lams[::37]]
        assert norms[::37] == pytest.approx(direct, rel=1e-13)
        assert vf.sweep_trend(norms) <= vf.SECTOR_TREND
        # the limit of lambda * M_lambda^{-1} is the coupling matrix itself
        assert norms[-64:].max() == pytest.approx(
            np.linalg.norm(sp.coupling_matrix(P11), 2), rel=1e-3)

    def test_non_finite_norm_fails_the_suite(self, monkeypatch):
        # a singular boundary-trace matrix gives an infinite norm; on the
        # innermost ring it would make the trend read 0, so it must fail
        # the suite rather than drop out of it
        def singular_inner_ring(lams, params):
            norms = np.ones(len(lams))
            norms[0] = np.inf
            return norms

        monkeypatch.setattr(vf, "trace_matrix_norms", singular_inner_ring)
        grid = dz.default_grid
        monkeypatch.setattr(dz, "default_grid",
                            lambda params, n_side: grid(params, n_side=24))
        report = vf.suite_sector(P11)
        assert report["trace_matrix_trend"] == 0.0
        assert not report["finite_norms"] and not report["trend_passed"]
        assert report["decay_passed"] and not report["passed"]
