import math

import numpy as np
import pytest

from floatlab import discretization as dz
from floatlab import resolvent as rv
from floatlab import verification as vf
from floatlab.errors import GridMismatch, NonDecayingOmega, SpectrumProximity
from floatlab.spectral import PhysicalParams, boundary_system_matrix

P11 = PhysicalParams(1.0, 1.0)


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
        assert f.boundary_abscissa == -1.0

    def test_csv_roundtrip(self, tmp_path):
        f = rv.HalfLineFunction("right", [1.0, 2.0], [1 + 2j, 3 - 4j])
        path = tmp_path / "f.csv"
        f.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,re,im"
        assert len(lines) == 3


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

    def test_norm_bounds_on_random_draws(self):
        rng = np.random.default_rng(0)
        g = right_grid(0.002)
        for _ in range(40):
            omega = complex(10 ** rng.uniform(-1, 1), rng.uniform(-10, 10))
            ext = rv.exponential_extension("right", omega, 1.0, g)
            assert ext.l2_norm() <= (1.0 + 1e-3) / math.sqrt(2.0 * omega.real)
            vals = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
            phi = rv.HalfLineFunction("right", g, vals)
            part = rv.helmholtz_particular("right", omega, phi)
            bound = 3.0 / (2.0 * abs(omega) * omega.real) * phi.l2_norm()
            assert part.l2_norm() <= (1.0 + 1e-3) * bound

    def test_manufactured_solution_second_order(self):
        # q = (x-1)exp(-(x-1))cos(2x) gives a generic smooth source with
        # genuine quadrature error; the pinned exponential oracle is exact
        # to the truncation remainder and cannot expose the rate
        errs = []
        for h in (0.01, 0.005, 0.0025):
            g = np.arange(1.0, 35.0 + h / 2, h)
            u = (g - 1) * np.exp(-(g - 1))
            up = (2 - g) * np.exp(-(g - 1))
            upp = (g - 3) * np.exp(-(g - 1))
            v, vp, vpp = np.cos(2 * g), -2 * np.sin(2 * g), -4 * np.cos(2 * g)
            q_exact = u * v
            phi_vals = -(upp * v + 2 * up * vp + u * vpp) + q_exact
            phi = rv.HalfLineFunction("right", g, phi_vals)
            q = rv.helmholtz_particular("right", 1.0, phi)
            errs.append(np.abs(q.values - q_exact).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.7


class TestUniformPath:
    @staticmethod
    def per_node_cumulatives(omega, grid, values):
        fwd = np.zeros(grid.size, dtype=complex)
        bwd = np.zeros(grid.size, dtype=complex)
        for j in range(1, grid.size):
            h = grid[j] - grid[j - 1]
            d = np.exp(-omega * h)
            fwd[j] = d * fwd[j - 1] + 0.5 * h * (d * values[j - 1] + values[j])
        for j in range(grid.size - 2, -1, -1):
            h = grid[j + 1] - grid[j]
            d = np.exp(-omega * h)
            bwd[j] = d * bwd[j + 1] + 0.5 * h * (values[j] + d * values[j + 1])
        return fwd, bwd

    @pytest.mark.parametrize("grid", [np.linspace(1.0, 20.0, 9501),
                                      np.arange(1.0, 20.0 + 0.001, 0.002)],
                             ids=["linspace", "arange"])
    def test_fine_grid_takes_the_filter_path(self, grid, monkeypatch):
        import scipy.signal

        calls = []
        real = scipy.signal.lfilter
        monkeypatch.setattr(scipy.signal, "lfilter",
                            lambda *args: calls.append(1) or real(*args))
        rng = np.random.default_rng(8)
        values = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        omega = 0.7 + 2.3j
        rv.helmholtz_particular("right", omega, rv.HalfLineFunction("right", grid, values))
        assert calls
        fast = rv._scaled_cumulatives(omega, grid, values)
        for got, ref in zip(fast, self.per_node_cumulatives(omega, grid, values)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestHelmholtzHalfline:
    def test_zero_data(self):
        g = right_grid(0.1)
        phi = rv.HalfLineFunction("right", g, np.zeros_like(g))
        out = rv.helmholtz_halfline("right", 1.0, 0.0, phi)
        assert np.all(out.values == 0.0)

    def test_pure_exponential_when_source_vanishes(self):
        g = right_grid(0.1)
        phi = rv.HalfLineFunction("right", g, np.zeros_like(g))
        out = rv.helmholtz_halfline("right", 1.0, 1.0, phi)
        assert out.values == pytest.approx(np.exp(1.0 - g), abs=1e-12)

    def test_boundary_value_exact(self):
        rng = np.random.default_rng(1)
        g = right_grid(0.05)
        phi = rv.HalfLineFunction("right", g, rng.standard_normal(g.size))
        out = rv.helmholtz_halfline("right", 1.0 + 2j, 0.7 - 0.3j, phi)
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

    def test_from_callables_central_difference_fallback(self):
        grid = self.grid(60)
        inp = rv.ResolventInput.from_callables(
            (grid.x_left, grid.x_right),
            f2=lambda x: math.exp(-((abs(x) - 4.0) / 2.0) ** 2))
        mid = inp.f2_prime[1].values[30]
        g = grid.x_right
        manual = (inp.f2[1].values[31] - inp.f2[1].values[29]) / (g[31] - g[29])
        assert mid == pytest.approx(manual, abs=1e-12)

    def test_output_json_structure(self, tmp_path):
        grid = self.grid(60)
        out = rv.resolvent_apply(1.0, P11, self.zero_input(grid, f1=1.0))
        path = tmp_path / "out.json"
        out.write_json(path)
        import json
        payload = json.loads(path.read_text())
        assert set(payload) == {"H_lambda", "h_lambda", "q_lambda", "q_minus", "q_plus"}
        assert payload["q_lambda"][0]["side"] == "left"
