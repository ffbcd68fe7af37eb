import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatlab import discretization as dz
from floatlab import resolvent as rv
from floatlab import verification as vf
from floatlab.errors import GridMismatch, NonDecayingOmega, SpectrumProximity
from floatlab.spectral import PhysicalParams, boundary_system_matrix

P11 = PhysicalParams(1.0, 1.0)
#: Weights of a linear combination; a weight near the underflow threshold
#: makes subnormal outputs, which keep too few digits for a relative test.
WEIGHTS = st.floats(-3.0, 3.0).filter(lambda w: w == 0.0 or abs(w) >= 1e-6)


def right_grid(h=0.01, a=1.0, L=20.0):
    return np.arange(a, L + h / 2, h)


class TestHalfLineFunction:
    def test_monotone_grid_required(self):
        with pytest.raises(GridMismatch):
            rv.HalfLineFunction("right", [1.0, 1.0, 2.0], [0, 0, 0])

    def test_side_vocabulary(self):
        with pytest.raises(GridMismatch):
            rv.HalfLineFunction("up", [1.0, 2.0], [0, 0])

    def test_boundary_value(self):
        f = rv.HalfLineFunction("left", [-5.0, -3.0, -1.0], [1.0, 2.0, 3.0])
        assert f.boundary_value == 3.0


class TestExponentialExtension:
    def test_boundary_node_is_gamma(self):
        ext = rv.exponential_extension("right", 1.0, 1.0, right_grid())
        assert ext.values[0] == pytest.approx(1.0)

    def test_value_one_unit_in(self):
        ext = rv.exponential_extension("right", 1.0, 1.0, right_grid())
        i = np.argmin(np.abs(ext.grid - 2.0))
        assert ext.values[i].real == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_zero_gamma(self):
        ext = rv.exponential_extension("left", 2.0, 0.0, -right_grid()[::-1])
        assert np.all(ext.values == 0.0)

    def test_decay_required(self):
        with pytest.raises(NonDecayingOmega):
            rv.exponential_extension("right", -0.5 + 1j, 1.0, right_grid())


class TestHelmholtzParticular:
    def test_zero_source(self):
        phi = rv.HalfLineFunction("right", right_grid(0.1), np.zeros(191))
        out = rv.helmholtz_particular("right", 1.0 + 0.5j, phi)
        assert np.all(out.values == 0.0)

    def test_closed_form_oracle(self):
        # -q'' + q = exp(-(x-1)), q(1)=0, decaying: q = (e/2)(x-1)exp(-x)
        g = right_grid(0.01)
        phi = rv.HalfLineFunction("right", g, np.exp(-(g - 1.0)))
        q = rv.helmholtz_particular("right", 1.0, phi)
        exact = (math.e / 2) * (g - 1.0) * np.exp(-g)
        assert np.abs(q.values - exact).max() <= 5e-4
        i = np.argmin(np.abs(g - 2.0))
        assert q.values[i].real == pytest.approx(math.exp(-1.0) / 2, abs=1e-6)

    def test_left_side_mirror(self):
        g = -right_grid(0.01)[::-1]
        phi = rv.HalfLineFunction("left", g, np.exp(g + 1.0))
        q = rv.helmholtz_particular("left", 1.0, phi)
        exact = (math.e / 2) * (-g - 1.0) * np.exp(g)
        assert np.abs(q.values - exact).max() <= 5e-4

    def test_side_mismatch(self):
        phi = rv.HalfLineFunction("left", [-3.0, -2.0, -1.0], np.zeros(3))
        with pytest.raises(GridMismatch):
            rv.helmholtz_particular("right", 1.0, phi)

    def test_suite_oracle_at_small_radius(self):
        # at a = 0.25 the truncation [a, 20a] ends at s = 4.75, where e^-s
        # has not decayed; the suite's oracle grid reaches s = 19 instead
        report = vf.suite_halfline(PhysicalParams(0.25, 1.0), seed=3)
        assert report["oracle_max_error"] <= vf.HALFLINE_ORACLE
        assert report["passed"]


class TestUniformPath:
    @staticmethod
    def per_node_cumulatives(omega, grid, values):
        # one step h for every node, as the uniform-grid quadrature takes it:
        # the rounded steps of a 12,000-node grid differ by up to 2e-12 h,
        # which would move the sums by about as much whatever the method
        h = grid[1] - grid[0]
        d = cmath.exp(-omega * h)
        v = values.tolist()
        fwd = [0j] * len(v)
        bwd = [0j] * len(v)
        for j in range(1, len(v)):
            fwd[j] = d * fwd[j - 1] + 0.5 * h * (d * v[j - 1] + v[j])
        for j in range(len(v) - 2, -1, -1):
            bwd[j] = d * bwd[j + 1] + 0.5 * h * (v[j] + d * v[j + 1])
        return np.array(fwd), np.array(bwd)

    @pytest.mark.parametrize("construct", [
        lambda n: np.linspace(1.0, 20.0, n),
        lambda n: np.arange(1.0, 20.0 + 9.5 / (n - 1), 19.0 / (n - 1)),
    ], ids=["linspace", "arange"])
    def test_scan_matches_the_per_node_recurrence(self, construct):
        # q and dq give back the two kernel sums exactly: omega q + dq = bwd
        # and omega q - dq = fwd - decay bwd[0] (boundary value 0); q itself
        # divides their cancelling sum by omega, which is tiny at small
        # Re(omega) h.  Re(omega) h = 400 exceeds _SCAN_EXPONENT, so its
        # blocks hold one node.
        cases = [(n, rate) for n in (2, 100, 401, 2000, 12000)
                 for rate in (1e-4, 1e-2, 1.0, 40.0)] + [(2000, 400.0)]
        rng = np.random.default_rng(8)
        for n, rate in cases:
            grid = construct(n)
            assert grid.size == n
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            h = grid[1] - grid[0]
            for phase in (0.0, 0.7, 1.5):
                omega = rate / h / math.cos(phase) * cmath.exp(1j * phase)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    q, dq = rv._solve_right(omega, grid, 0.0, values)
                bwd = omega * q + dq
                fwd = omega * q - dq + np.exp(-omega * (grid - grid[0])) * bwd[0]
                for got, ref in zip((fwd, bwd), self.per_node_cumulatives(omega, grid, values)):
                    err = np.abs(got - ref).max() / np.abs(ref).max()
                    assert err <= 1e-12, (n, rate, phase, err)

    def test_nonuniform_grid_rejected(self):
        grid = np.geomspace(1.0, 20.0, 400)
        phi = rv.HalfLineFunction("right", grid, np.exp(-(grid - 1.0)))
        with pytest.raises(GridMismatch):
            rv.helmholtz_particular("right", 1.0, phi)


class TestHelmholtzHalfline:
    def test_zero_data(self):
        g = right_grid(0.1)
        phi = rv.HalfLineFunction("right", g, np.zeros_like(g))
        out = rv.helmholtz_halfline_with_derivative("right", 1.0, 0.0, phi)[0]
        assert np.all(out.values == 0.0)

    def test_pure_exponential_when_source_vanishes(self):
        g = right_grid(0.1)
        phi = rv.HalfLineFunction("right", g, np.zeros_like(g))
        out = rv.helmholtz_halfline_with_derivative("right", 1.0, 1.0, phi)[0]
        assert out.values == pytest.approx(np.exp(1.0 - g), abs=1e-12)

    def test_boundary_value_exact(self):
        rng = np.random.default_rng(1)
        g = right_grid(0.05)
        phi = rv.HalfLineFunction("right", g, rng.standard_normal(g.size))
        out = rv.helmholtz_halfline_with_derivative("right", 1.0 + 2j, 0.7 - 0.3j, phi)[0]
        assert out.boundary_value == pytest.approx(0.7 - 0.3j, abs=1e-14)

    def test_stencil_residual_second_order(self):
        omega = 1.3 + 0.4j
        errs = []
        for h in (0.02, 0.01):
            g = np.arange(1.0, 25.0 + h / 2, h)
            phi_vals = np.exp(-((g - 4.0) / 1.5) ** 2)
            phi = rv.HalfLineFunction("right", g, phi_vals)
            out, _ = rv.helmholtz_halfline_with_derivative("right", omega, 0.4, phi)
            q = out.values
            res = -(q[:-2] - 2 * q[1:-1] + q[2:]) / h**2 + omega**2 * q[1:-1] \
                - phi_vals[1:-1]
            errs.append(np.abs(res).max())
        assert math.log2(errs[0] / errs[1]) >= 1.7

    def test_derivative_matches_difference_quotients(self):
        g = right_grid(0.005)
        phi_vals = np.exp(-((g - 4.0) / 1.5) ** 2)
        phi = rv.HalfLineFunction("right", g, phi_vals)
        q, dq = rv.helmholtz_halfline_with_derivative("right", 1.0 + 1j, 0.5, phi)
        mid = (q.values[2:] - q.values[:-2]) / (2 * 0.005)
        assert np.abs(mid - dq.values[1:-1]).max() <= 5e-4


class TestResolventApply:
    def grid(self, n=100):
        return dz.build_grid(P11, 20.0, n)

    def zero_input(self, grid, **overrides):
        xl, xr = grid.x_left, grid.x_right
        zl = rv.HalfLineFunction("left", xl, np.zeros_like(xl))
        zr = rv.HalfLineFunction("right", xr, np.zeros_like(xr))
        base = dict(f1=0.0, f2=(zl, zr), f2_prime=(zl, zr), f3=(zl, zr),
                    f4=0.0, f5=0.0)
        base.update(overrides)
        return rv.ResolventInput(**base)

    def test_zero_input_gives_zero_output(self):
        grid = self.grid()
        out = rv.resolvent_apply(1.0, P11, self.zero_input(grid))
        assert out.H_lambda == 0.0
        assert np.all(out.q_lambda[0].values == 0.0)
        assert np.all(out.h_lambda[1].values == 0.0)

    def test_solid_height_forcing_example(self):
        # with only f1 = 1 the traces solve M_lambda [q-, q+] = (4a^2/lam)[-1, 1]
        grid = self.grid()
        out = rv.resolvent_apply(1.0, P11, self.zero_input(grid, f1=1.0))
        expected = np.linalg.solve(boundary_system_matrix(1.0, P11),
                                   np.array([-4.0, 4.0]))
        assert out.q_minus == pytest.approx(expected[0], abs=1e-12)
        assert out.q_plus == pytest.approx(expected[1], abs=1e-12)
        assert out.H_lambda == pytest.approx(
            1.0 - (out.q_plus - out.q_minus) / 2.0, abs=1e-13)

    def test_traces_match_flux_boundary_nodes(self):
        grid = self.grid()
        rng = np.random.default_rng(2)
        out = rv.resolvent_apply(2 + 2j, P11, vf.random_resolvent_input(grid, rng))
        assert out.q_lambda[0].values[-1] == pytest.approx(out.q_minus, abs=1e-14)
        assert out.q_lambda[1].values[0] == pytest.approx(out.q_plus, abs=1e-14)

    def test_spectrum_proximity_guard(self):
        grid = self.grid()
        with pytest.raises(SpectrumProximity):
            rv.resolvent_apply(-2.0, P11, self.zero_input(grid, f1=1.0))

    def test_linearity(self):
        grid = self.grid()
        rng = np.random.default_rng(3)
        i1 = vf.random_resolvent_input(grid, rng)
        i2 = vf.random_resolvent_input(grid, rng)
        al, be = 1.7, -0.4
        pair = lambda attr: tuple(
            rv.HalfLineFunction(x.side, x.grid, al * x.values + be * y.values)
            for x, y in zip(getattr(i1, attr), getattr(i2, attr)))
        combo = rv.ResolventInput(al * i1.f1 + be * i2.f1, pair("f2"),
                                  pair("f2_prime"), pair("f3"),
                                  al * i1.f4 + be * i2.f4, al * i1.f5 + be * i2.f5)
        lam = 0.5 - 3j
        o1 = rv.resolvent_apply(lam, P11, i1)
        o2 = rv.resolvent_apply(lam, P11, i2)
        o3 = rv.resolvent_apply(lam, P11, combo)
        assert abs(o3.H_lambda - (al * o1.H_lambda + be * o2.H_lambda)) <= 1e-10
        for k in (0, 1):
            assert np.abs(o3.q_lambda[k].values
                          - (al * o1.q_lambda[k].values + be * o2.q_lambda[k].values)
                          ).max() <= 1e-10
            assert np.abs(o3.h_lambda[k].values
                          - (al * o1.h_lambda[k].values + be * o2.h_lambda[k].values)
                          ).max() <= 1e-10

    def test_discrete_operator_recovers_input(self):
        grid = self.grid()
        system = dz.assemble(grid)
        rng = np.random.default_rng(4)
        defect = vf.resolvent_defect(system, 2 + 2j, vf.random_resolvent_input(grid, rng))
        assert defect <= 5e-3

    def test_defect_makes_no_complex_copy_of_the_generator(self):
        # A @ z with a complex z would cast the dense real A to a complex
        # copy, twice A's bytes
        grid = self.grid(200)
        system = dz.assemble(grid)
        inp = vf.random_resolvent_input(grid, np.random.default_rng(0))
        vf.resolvent_defect(system, 2 + 2j, inp)  # the first call fills the lazy caches
        tracemalloc.start()
        try:
            vf.resolvent_defect(system, 2 + 2j, inp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < system.A.nbytes / 4

    @settings(max_examples=15, deadline=None)
    @given(re=st.floats(0.2, 4.0), im=st.floats(-4.0, 4.0), al=WEIGHTS, be=WEIGHTS,
           seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    def test_linearity_property(self, re, im, al, be, seeds):
        # R(al i1 + be i2) = al R(i1) + be R(i2) in every component, to 1e-10
        # of the largest entry of the two terms, for lam right of the spectrum
        grid = vf._resolvent_grid(P11, 20.0, 100)
        i1, i2 = (vf.random_resolvent_input(grid, np.random.default_rng(s)) for s in seeds)
        pair = lambda attr: tuple(
            rv.HalfLineFunction(x.side, x.grid, al * x.values + be * y.values)
            for x, y in zip(getattr(i1, attr), getattr(i2, attr)))
        combo = rv.ResolventInput(al * i1.f1 + be * i2.f1, pair("f2"),
                                  pair("f2_prime"), pair("f3"),
                                  al * i1.f4 + be * i2.f4, al * i1.f5 + be * i2.f5)
        lam = complex(re, im)
        o1, o2, o3 = (rv.resolvent_apply(lam, P11, inp) for inp in (i1, i2, combo))

        def components(out):
            return [out.H_lambda, out.q_minus, out.q_plus,
                    *(f.values for f in out.h_lambda + out.q_lambda)]

        for c1, c2, c3 in zip(components(o1), components(o2), components(o3)):
            scale = max(np.abs(al * np.asarray(c1)).max(), np.abs(be * np.asarray(c2)).max())
            assert np.abs(c3 - (al * c1 + be * c2)).max() <= 1e-10 * scale

    def test_suite_passes_at_half_radius(self):
        # the wave packets scale with a, and the grid's spacing with them
        report = vf.suite_resolvent(PhysicalParams(0.5, 1.0), seed=4)
        assert report["max_consistency_defect"] <= vf.RESOLVENT_DEFECT
        assert report["passed"]

    def test_suite_passes_at_double_radius(self):
        # at a = 2 the suite's grid keeps the a = 1 spacing (n_side 199, not
        # 100), which takes the defect from 1.0e-2 to 2.5e-3
        report = vf.suite_resolvent(PhysicalParams(2.0, 1.0), seed=4)
        assert report["max_consistency_defect"] <= vf.RESOLVENT_DEFECT
        assert report["passed"]

    @pytest.mark.parametrize("a, mu", [(0.5, 1.0), (1.0, 0.5), (0.5, 2.0)])
    def test_consistency_suite_follows_the_parameters(self, a, mu):
        # its grids hold as many decay lengths and resolve as finely as at
        # (1, 1): a = 0.5 needs the longer domain, mu = 0.5 the finer
        # spacing, (0.5, 2) both (0.118, 7.4e-3, 0.371 on L = 20a, n_side 100)
        report = vf.suite_resolvent_consistency(PhysicalParams(a, mu))
        assert report["passed"]
