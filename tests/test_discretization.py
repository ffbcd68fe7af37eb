import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from floatlab import discretization as dz
from floatlab.errors import CompatibilityViolation, InvalidGeometry
from floatlab.spectral import PhysicalParams, coupling_matrix

P11 = PhysicalParams(1.0, 1.0)


class TestGrid:
    def test_node_placement_example(self):
        grid = dz.build_grid(P11, 8.0, 8)
        assert grid.spacing == pytest.approx(1.0)
        assert grid.x_left == pytest.approx([-8, -7, -6, -5, -4, -3, -2, -1])
        assert grid.x_right == pytest.approx([1, 2, 3, 4, 5, 6, 7, 8])

    def test_sponge_profile(self):
        grid = dz.build_grid(P11, 5.0, 9, sponge_width=2.0, sponge_strength=2.0)
        assert grid.sponge(np.array([5.0]))[0] == pytest.approx(2.0)
        assert grid.sponge(np.array([3.0]))[0] == 0.0
        assert grid.sponge(np.array([-4.0]))[0] == pytest.approx(0.5)

    def test_zero_width_sponge_vanishes(self):
        grid = dz.build_grid(P11, 5.0, 9, sponge_width=0.0, sponge_strength=3.0)
        assert np.all(grid.sponge(grid.x_right) == 0.0)

    def test_geometry_validation(self):
        with pytest.raises(InvalidGeometry):
            dz.build_grid(P11, 0.5, 10)
        with pytest.raises(InvalidGeometry):
            dz.build_grid(P11, 5.0, 4)
        with pytest.raises(InvalidGeometry):
            dz.build_grid(P11, 5.0, 10, sponge_width=4.5)

    def test_state_dimension(self):
        # h on every node, flux interiors, plus H and the two boundary
        # fluxes: the boundary and truncation nodes are not duplicated,
        # so the count is 4*n_side - 1
        grid = dz.build_grid(P11, 5.0, 12)
        assert grid.state_dim == 4 * 12 - 1
        assert dz.assemble(grid).A.shape == (47, 47)


class TestStateLayout:
    def test_flatten_unflatten_roundtrip(self):
        grid = dz.build_grid(P11, 5.0, 10)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(grid.state_dim)
        again = dz.State.unflatten(z, grid).flatten(grid)
        assert again == pytest.approx(z)

    def test_boundary_nodes_are_the_scalar_states(self):
        grid = dz.build_grid(P11, 5.0, 10)
        rng = np.random.default_rng(1)
        st = dz.State.unflatten(rng.standard_normal(grid.state_dim), grid)
        assert st.q_left[-1] == st.q_minus
        assert st.q_right[0] == st.q_plus
        assert st.q_left[0] == 0.0 and st.q_right[-1] == 0.0


    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(8, 64), complex_fields=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_layout_properties(self, n, complex_fields, seed):
        grid = dz.build_grid(P11, 5.0, n)
        rng = np.random.default_rng(seed)

        def field(size):
            re = rng.standard_normal(size)
            return re + 1j * rng.standard_normal(size) if complex_fields else re

        s = dz.State(field(1)[0], field(n), field(n), field(n), field(n))
        z = s.flatten(grid)
        documented = np.concatenate([[s.H], s.h_left, s.h_right, s.q_left[1:-1],
                                     s.q_right[1:-1], [s.q_left[-1], s.q_right[0]]])
        assert z.dtype == documented.dtype and np.array_equal(z, documented)

        back = dz.State.unflatten(z, grid)
        pinned_left, pinned_right = s.q_left.copy(), s.q_right.copy()
        pinned_left[0] = pinned_right[-1] = 0.0
        assert back.H == s.H
        for got, want in ((back.h_left, s.h_left), (back.h_right, s.h_right),
                          (back.q_left, pinned_left), (back.q_right, pinned_right)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

        lay = grid.layout
        every = np.arange(lay.dim)
        covered = np.concatenate([np.atleast_1d(every[getattr(lay, name)]) for name in
                                  ("H", "h_left", "h_right", "q_left", "q_right",
                                   "q_minus", "q_plus")])
        assert np.array_equal(np.sort(covered), every)
        assert lay.dim == grid.state_dim


class TestAssemble:
    def test_input_column_closed_form(self):
        for a in (0.5, 1.0, 2.0):
            grid = dz.default_grid(PhysicalParams(a, 1.0), n_side=16)
            system = dz.assemble(grid)
            lay = grid.layout
            direct = a / (1.0 + 2.0 * a**3 / 3.0)
            assert abs(system.B[lay.q_minus] - direct) <= 1e-12
            assert abs(system.B[lay.q_plus] + direct) <= 1e-12
            m = coupling_matrix(grid.params)
            assert system.B[[lay.q_minus, lay.q_plus]] == pytest.approx(
                2.0 * a * (m @ [1.0, -1.0]), abs=1e-14)

    def test_unit_half_width_input_values(self):
        grid = dz.default_grid(P11, n_side=16)
        system = dz.assemble(grid)
        assert system.B[grid.layout.q_minus] == pytest.approx(0.6)
        assert system.B[grid.layout.q_plus] == pytest.approx(-0.6)

    def test_rest_state_is_equilibrium(self):
        grid = dz.default_grid(P11, n_side=40)
        system = dz.assemble(grid)
        n = grid.n_side
        rest = dz.State(3.0, np.full(n, 3.0), np.full(n, 3.0), np.zeros(n), np.zeros(n))
        assert np.abs(system.A @ rest.flatten(grid)).max() <= 1e-12

    def test_spectrum_in_closed_left_half_plane_without_sponge(self):
        grid = dz.build_grid(P11, 20.0, 80)
        ev = np.linalg.eigvals(dz.assemble(grid).A)
        assert ev.real.max() <= 1e-8

    def test_output_row_reads_hdot(self):
        grid = dz.default_grid(P11, n_side=24)
        system = dz.assemble(grid)
        rng = np.random.default_rng(2)
        z = rng.standard_normal(grid.state_dim)
        st = dz.State.unflatten(z, grid)
        assert system.C @ z == pytest.approx(st.hdot(grid))
        assert system.C @ z == pytest.approx((system.A @ z)[0])


def checkerboard_pair(n_side, L, sponge):
    """n_side^2 * rate of the k = 1 checkerboard pair, and how much B sees it.

    The pair is chosen by its signature: two real, equal nonzero
    eigenvalues with n_side^2 * rate nearest pi^2/4.  It is not the
    slowest mode in general: at L = 40, n_side = 50 complex modes decay
    more slowly.  The eigenvectors of a degenerate pair are not unique,
    so B is tested against the pair's whole left eigenspace.
    """
    grid = dz.default_grid(P11, n_side=n_side, L=L)
    system = dz.assemble(grid if sponge else grid.without_sponge())
    ev, left = sla.eig(system.A, left=True, right=False)
    scaled = -ev.real * n_side**2
    real = np.flatnonzero((ev.imag == 0) & (np.abs(ev) > 1e-8))
    real = real[np.argsort(scaled[real])]
    pairs = [(i, j) for i, j in zip(real, real[1:])
             if abs(ev[i] - ev[j]) <= 1e-5 * abs(ev[i])]
    i, j = min(pairs, key=lambda p: abs(scaled[p[0]] - math.pi**2 / 4))
    space = np.linalg.qr(left[:, [i, j]].real)[0]
    seen = np.linalg.norm(space.T @ system.B) / np.linalg.norm(system.B)
    return 0.5 * (scaled[i] + scaled[j]), seen


class TestCheckerboardFamily:
    @pytest.fixture(scope="class")
    def pairs(self):
        return {(n, L, sponge): checkerboard_pair(n, L, sponge)
                for n in (50, 100) for L in (20.0, 40.0) for sponge in (True, False)}

    def test_rate_tends_to_pi_squared_over_four(self, pairs):
        rates = {n: [r for (m, _, _), (r, _) in pairs.items() if m == n] for n in (50, 100)}
        for n, measured in ((50, 2.6755), (100, 2.5687)):
            # the same for both L and with the sponge on or off: a grid mode
            assert rates[n] == pytest.approx([measured] * 4, rel=1e-3)
        assert math.pi**2 / 4 < min(rates[100]) and max(rates[100]) < min(rates[50])

    def test_input_does_not_see_the_pair(self, pairs):
        for _, seen in pairs.values():
            assert seen <= 1e-9


class TestInitialState:
    def test_rest_flux_accepted(self):
        grid = dz.default_grid(P11, n_side=16)
        st = dz.initial_state(grid, 0.0, 0.0, lambda x: 0.0, lambda x: 0.0)
        assert st.q_minus == 0.0 and st.q_plus == 0.0

    def test_linear_flux_fixes_the_solid_velocity(self):
        grid = dz.default_grid(P11, n_side=16)
        st = dz.initial_state(grid, 0.0, 1.0, lambda x: 0.0, lambda x: -x)
        assert st.q_minus == pytest.approx(1.0)
        assert st.q_plus == pytest.approx(-1.0)

    def test_mismatched_velocity_rejected(self):
        grid = dz.default_grid(P11, n_side=16)
        with pytest.raises(CompatibilityViolation):
            dz.initial_state(grid, 0.0, 0.0, lambda x: 0.0, lambda x: -x)

    def test_presets_are_compatible_by_construction(self):
        grid = dz.default_grid(P11, n_side=32)
        for name in dz.PRESETS:
            st = dz.preset_state(grid, name)
            assert isinstance(st, dz.State)

    def test_unknown_preset(self):
        grid = dz.default_grid(P11, n_side=16)
        with pytest.raises(ValueError):
            dz.preset_state(grid, "vortex")

    def test_heave_with_nonzero_velocity_rejected(self):
        grid = dz.default_grid(P11, n_side=16)
        with pytest.raises(CompatibilityViolation):
            dz.heave_state(grid, 1.0, G0=0.5)


class TestEnergy:
    def test_zero_state(self):
        grid = dz.default_grid(P11, n_side=16)
        assert dz.energy(dz.rest_state(grid), grid) == 0.0

    def test_heave_energy_is_exact(self):
        # only the interior height term contributes: (1/2) * 2a * H^2
        grid = dz.default_grid(P11, n_side=16)
        assert dz.energy(dz.heave_state(grid, 1.0), grid) == pytest.approx(1.0)

    def test_boundary_flux_example_converges_to_hand_value(self):
        # q- = 1, q+ = -1 gives Hdot = 1 and interior flux -x:
        # E -> 1/3 + 1/2 = 5/6; the exterior trapezoid adds h/2 per side
        values = {}
        for n in (100, 400):
            grid = dz.default_grid(P11, n_side=n)
            st = dz.rest_state(grid)
            st.q_left[-1] = 1.0
            st.q_right[0] = -1.0
            values[n] = dz.energy(st, grid)
            assert values[n] == pytest.approx(5.0 / 6.0 + grid.spacing / 2.0, abs=1e-12)
        assert abs(values[400] - 5.0 / 6.0) < abs(values[100] - 5.0 / 6.0)

    def test_quadratic_form_matches_direct_evaluation(self):
        grid = dz.default_grid(P11, n_side=24)
        w = dz.energy_matrix(grid)
        assert np.abs(w - w.T).max() == 0.0
        assert np.linalg.eigvalsh(w).min() >= 0.0
        rng = np.random.default_rng(3)
        for _ in range(5):
            z = rng.standard_normal(grid.state_dim)
            direct = dz.energy(dz.State.unflatten(z, grid), grid)
            assert 0.5 * z @ w @ z == pytest.approx(direct, rel=1e-12)


def random_states(grid, count, seed):
    rng = np.random.default_rng(seed)
    return [dz.State.unflatten(z, grid) for z in rng.standard_normal((count, grid.state_dim))]


def sides(grid, state):
    return ((grid.x_left, state.h_left, state.q_left),
            (grid.x_right, state.h_right, state.q_right))


class TestQuadraticForms:
    @pytest.mark.parametrize("sponge", [True, False])
    @pytest.mark.parametrize("n,a", [(16, 1.0), (64, 1.0), (64, 0.5)])
    def test_forms_match_direct_quadrature(self, n, a, sponge):
        # np.gradient with edge_order=2 is the same stencil, written independently
        grid = dz.default_grid(PhysicalParams(a, 1.0), n_side=n,
                               sponge_strength=1.0 if sponge else 0.0)
        _, gradient, sink = dz.quadratic_forms(grid)
        for state in random_states(grid, 5, seed=n):
            z = state.flatten(grid)
            gradsq = sum(np.trapezoid(np.gradient(q, grid.spacing, edge_order=2) ** 2, x)
                         for x, _, q in sides(grid, state)) \
                + 2.0 * grid.params.a * state.hdot(grid) ** 2
            sponge_sink = sum(np.trapezoid(grid.sponge(x) * q ** 2, x)
                              for x, _, q in sides(grid, state))
            assert z @ gradient @ z == pytest.approx(gradsq, rel=1e-12)
            assert z @ sink @ z == pytest.approx(sponge_sink, rel=1e-12, abs=0.0)

    def test_forms_are_symmetric_psd(self):
        grid = dz.default_grid(P11, n_side=24)
        for form in dz.quadratic_forms(grid):
            dense = form.toarray()
            assert np.abs(dense - dense.T).max() == 0.0
            assert np.linalg.eigvalsh(dense).min() >= -1e-12 * np.abs(dense).max()

    def test_generator_rows_apply_the_same_stencil(self):
        grid = dz.default_grid(P11, n_side=24)
        system = dz.assemble(grid)
        mu, dx = grid.params.mu, grid.spacing
        for state in random_states(grid, 3, seed=1):
            rate = dz.State.unflatten(system.A @ state.flatten(grid), grid)
            for (x, h, q), (_, hdot, qdot) in zip(sides(grid, state), sides(grid, rate)):
                assert hdot == pytest.approx(-np.gradient(q, dx, edge_order=2), abs=1e-12)
                inner = (-np.gradient(h, dx)[1:-1] + mu * np.diff(q, 2) / dx**2
                         - grid.sponge(x)[1:-1] * q[1:-1])
                assert qdot[1:-1] == pytest.approx(inner, abs=1e-11)


class TestPressureReconstruction:
    def apply_generator(self, system, state, u):
        grid = system.grid
        zdot = system.A @ state.flatten(grid) + system.B * u
        return dz.State.unflatten(zdot, grid)

    def test_zero_state_gives_zero_pressure(self):
        grid = dz.default_grid(P11, n_side=32)
        system = dz.assemble(grid)
        st = dz.rest_state(grid)
        profile, defects = dz.reconstruct_pressure(
            st, self.apply_generator(system, st, 0.0), 0.0, grid)
        assert (profile.c0, profile.c1, profile.c2) == (0.0, 0.0, 0.0)
        assert defects["right_jump"] == 0.0 and defects["newton"] == 0.0

    def test_steady_translation_gives_zero_pressure(self):
        grid = dz.default_grid(P11, n_side=32)
        system = dz.assemble(grid)
        n = grid.n_side
        st = dz.State(1.0, np.ones(n), np.ones(n), np.zeros(n), np.zeros(n))
        profile, defects = dz.reconstruct_pressure(
            st, self.apply_generator(system, st, 0.0), 0.0, grid)
        assert abs(profile.c0) <= 1e-12 and abs(profile.c1) <= 1e-12
        assert abs(profile.c2) <= 1e-12
        assert max(defects.values()) <= 1e-12

    def test_defects_at_machine_precision_for_any_state(self):
        # the reconstruction inverts exactly the algebra the boundary-flux
        # rows encode, so the jump and momentum defects sit at rounding
        # level for smooth and rough states alike (comfortably O(h^2))
        def smooth_state(grid):
            h0 = lambda x: 0.3 * math.exp(-((abs(x) - 4.0) / 2.0) ** 2)
            q0 = lambda x: 0.2 * math.exp(-((x - 3.0) / 1.5) ** 2)
            g0 = -(q0(grid.params.a) - q0(-grid.params.a)) / (2 * grid.params.a)
            return dz.initial_state(grid, 0.1, g0, h0, q0)

        rng = np.random.default_rng(7)
        for n in (100, 199):
            grid = dz.build_grid(P11, 20.0, n)
            system = dz.assemble(grid)
            for st in (smooth_state(grid),
                       dz.State.unflatten(rng.standard_normal(grid.state_dim), grid)):
                _, d = dz.reconstruct_pressure(
                    st, self.apply_generator(system, st, 0.3), 0.3, grid)
                assert max(d.values()) <= 1e-12

    def test_profile_integral(self):
        profile = dz.PressureProfile(c0=1.0, c1=5.0, c2=3.0)
        # odd term drops; 2a*c0 + (2 a^3/3) c2 with a = 2
        assert profile.integral(2.0) == pytest.approx(2 * 2 * 1.0 + 16 / 3 * 3.0)
        assert profile(2.0) == pytest.approx(3.0 * 4 + 5.0 * 2 + 1.0)
