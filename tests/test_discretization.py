import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from floatlab import discretization as dz
from floatlab import dynamics as dyn
from floatlab.errors import CompatibilityViolation, InvalidGeometry
from floatlab.spectral import PhysicalParams, coupling_matrix

P11 = PhysicalParams(1.0, 1.0)


class TestGrid:
    def test_node_placement_example(self):
        grid = dz.build_grid(P11, 8.0, 8)
        assert grid.spacing == pytest.approx(1.0)
        assert grid.x_left == pytest.approx([-8, -7, -6, -5, -4, -3, -2, -1])
        assert grid.x_right == pytest.approx([1, 2, 3, 4, 5, 6, 7, 8])

    def test_nodes_are_one_read_only_array_per_grid(self):
        grid = dz.build_grid(P11, 20.0, 100, 5.0, 1.0)
        assert grid.x_left is grid.x_left and grid.x_right is grid.x_right
        with pytest.raises(ValueError):
            grid.x_left[0] = 0.0
        with pytest.raises(ValueError):
            np.negative(grid.x_right, out=grid.x_right)
        bare = grid.without_sponge()
        for mine, theirs, ends in ((grid.x_left, bare.x_left, (-20.0, -1.0)),
                                   (grid.x_right, bare.x_right, (1.0, 20.0))):
            assert theirs is not mine
            assert theirs.tobytes() == mine.tobytes() == np.linspace(*ends, 100).tobytes()

    def test_sponge_profile(self):
        grid = dz.build_grid(P11, 5.0, 9, sponge_width=2.0, sponge_strength=2.0)
        assert grid.sponge(np.array([5.0]))[0] == pytest.approx(2.0)
        assert grid.sponge(np.array([3.0]))[0] == 0.0
        assert grid.sponge(np.array([-4.0]))[0] == pytest.approx(0.5)

    def test_zero_width_sponge_vanishes(self):
        grid = dz.build_grid(P11, 5.0, 9, sponge_width=0.0, sponge_strength=3.0)
        assert np.all(grid.sponge(grid.x_right) == 0.0)

    def test_default_sponge_scales_with_the_radius(self):
        grid = dz.default_grid(PhysicalParams(2.0, 1.0), n_side=16)
        assert (grid.L, grid.sponge_width, grid.sponge_strength) == (40.0, 10.0, 1.0)
        bare = grid.without_sponge()
        assert (bare.sponge_width, bare.sponge_strength) == (0.0, 0.0)
        assert bare.spacing == grid.spacing == (40.0 - 2.0) / 15
        assert np.all(bare.sponge(bare.x_right) == 0.0)

    def test_geometry_validation(self):
        with pytest.raises(InvalidGeometry):
            dz.build_grid(P11, 0.5, 10)
        with pytest.raises(InvalidGeometry):
            dz.build_grid(P11, 5.0, 4)
        with pytest.raises(InvalidGeometry):
            dz.build_grid(P11, 5.0, 10, sponge_width=4.5)

    @pytest.mark.parametrize("strength", [-1.0, -1e-300, np.nan])
    def test_negative_sponge_strength_rejected(self, strength):
        # sigma < 0 turns the sink into a source: the energy grows in the band
        with pytest.raises(InvalidGeometry, match="sponge_strength"):
            dz.build_grid(P11, 5.0, 10, sponge_width=2.0, sponge_strength=strength)
        grid = dz.build_grid(P11, 5.0, 10, sponge_width=2.0, sponge_strength=0.0)
        assert np.all(grid.sponge(grid.x_right) == 0.0)

    def test_state_dimension(self):
        # h on every node, flux interiors, plus H and the two boundary
        # fluxes: the boundary and truncation nodes are not duplicated,
        # so the count is 4*n_side - 1
        grid = dz.build_grid(P11, 5.0, 12)
        assert grid.layout.dim == 4 * 12 - 1
        assert dz.assemble(grid).A.shape == (47, 47)


class TestStateLayout:
    def test_flatten_unflatten_roundtrip(self):
        grid = dz.build_grid(P11, 5.0, 10)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(grid.layout.dim)
        again = dz.State.unflatten(z, grid).flatten(grid)
        assert again == pytest.approx(z)

    def test_boundary_nodes_are_the_scalar_states(self):
        grid = dz.build_grid(P11, 5.0, 10)
        rng = np.random.default_rng(1)
        st = dz.State.unflatten(rng.standard_normal(grid.layout.dim), grid)
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
        z = rng.standard_normal(grid.layout.dim)
        st = dz.State.unflatten(z, grid)
        assert system.C @ z == pytest.approx(st.hdot(grid))
        assert system.C @ z == pytest.approx((system.A @ z)[0])


class TestMirror:
    def test_mirror_is_the_reflection_of_the_fields(self):
        # x -> -x written on the nodal fields: h(x) -> h(-x), q(x) -> -q(-x)
        grid = dz.build_grid(P11, 5.0, 11)
        rng = np.random.default_rng(3)
        n = grid.n_side
        s = dz.State(rng.standard_normal(), *rng.standard_normal((4, n)))
        s.q_left[0] = s.q_right[-1] = 0.0
        image = dz.State(s.H, s.h_right[::-1], s.h_left[::-1], -s.q_right[::-1],
                         -s.q_left[::-1])
        source, sign = grid.layout.mirror
        z = s.flatten(grid)
        assert np.array_equal(sign * z[source], image.flatten(grid))
        assert np.array_equal(source[source], np.arange(grid.layout.dim))

    def test_halves_carry_the_spectrum(self):
        for n_side in (24, 25):
            system = dz.assemble(dz.default_grid(P11, n_side=n_side))
            even, a_odd = system.mirror_halves
            assert even.A.shape == (2 * n_side, 2 * n_side)
            assert a_odd.shape == (2 * n_side - 1, 2 * n_side - 1)
            halves, full = system.eigenvalues(), np.linalg.eigvals(system.A)
            assert halves.size == full.size
            # every eigenvalue of either list lies next to one of the other
            gaps = np.abs(halves[:, None] - full[None, :])
            assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) \
                <= 1e-12 * np.abs(full).max()

    def test_system_without_a_grid_is_all_even(self):
        system = dz.SemiDiscreteSystem(np.diag([-1.0, -2.0]), np.ones(2), np.ones(2), None,
                                       np.zeros((2, 0)))
        even, odd = system.mirror_bases
        assert np.array_equal(even.lift(np.eye(2)), np.eye(2)) and odd.shape == (2, 0)
        assert np.array_equal(even.restrict(system.A), system.A)
        even, a_odd = system.mirror_halves
        assert even.kernel.shape == (2, 0)
        assert np.array_equal(even.A, system.A) and a_odd.shape == (0, 0)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_one_sided_perturbation_rejected(self, side):
        grid = dz.default_grid(P11, n_side=24)
        system = dz.assemble(grid)
        lay = grid.layout
        a, b = system.A.copy(), system.B.copy()
        if side == "A":
            a[lay.h_right.start + 3, lay.q_right.start + 3] += 1e-6
        else:
            b[lay.q_plus] *= 1.0 + 1e-15
        with pytest.raises(ValueError):
            dz.SemiDiscreteSystem(a, b, system.C, grid, system.kernel).mirror_halves


def checkerboard_pair(n_side, L, sponge):
    """n_side^2 * rate of the k = 1 checkerboard pair, and how much B sees it.

    The pair is chosen by its signature: two real, equal nonzero
    eigenvalues with n_side^2 * rate nearest pi^2/4.  It is not the
    slowest mode in general: at L = 40, n_side = 50 complex modes decay
    more slowly.  The eigenvectors of a degenerate pair are not unique,
    so B is tested against the pair's whole left eigenspace.
    """
    grid = dz.build_grid(P11, L, n_side, dz.SPONGE_WIDTH, dz.SPONGE_STRENGTH)
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

    @pytest.mark.parametrize("key", ["radius", "grid", "name"])
    def test_unknown_key_names_the_keys(self, key):
        grid = dz.default_grid(P11, n_side=16)
        with pytest.raises(ValueError, match=r"has no key .*'center', 'width', 'amplitude'"):
            dz.preset_state(grid, "bump", **{key: 1.0})

    def test_heave_with_nonzero_velocity_rejected(self):
        grid = dz.default_grid(P11, n_side=16)
        with pytest.raises(CompatibilityViolation):
            dz.heave_state(grid, 1.0, G0=0.5)


# The energy evaluated from the nodal fields: an oracle of the form W of
# quadratic_forms, written apart from it.


def energy(state: dz.State, grid: dz.Grid) -> float:
    """Total energy: exterior trapezoid quadrature plus exact interior part.

    Under the solid the height equals H and the flux is the linear
    profile -Hdot*x + (q+ + q-)/2, so the interior integrals are closed
    forms in (H, q-, q+).
    """
    a = grid.params.a
    ext = 0.0
    for xs, hs, qs in ((grid.x_left, state.h_left, state.q_left),
                       (grid.x_right, state.h_right, state.q_right)):
        ext += 0.5 * np.trapezoid(hs**2 + qs**2, xs)
    hdot = state.hdot(grid)
    mean_q = 0.5 * (state.q_plus + state.q_minus)
    interior = 0.5 * (2.0 * a * mean_q**2 + (2.0 * a**3 / 3.0) * hdot**2
                      + 2.0 * a * state.H**2)
    return float(ext + interior + 0.5 * hdot**2)


class TestEnergy:
    def test_zero_state(self):
        grid = dz.default_grid(P11, n_side=16)
        assert energy(dz.rest_state(grid), grid) == 0.0

    def test_heave_energy_is_exact(self):
        # only the interior height term contributes: (1/2) * 2a * H^2
        grid = dz.default_grid(P11, n_side=16)
        assert energy(dz.heave_state(grid, 1.0), grid) == pytest.approx(1.0)

    def test_boundary_flux_example_converges_to_hand_value(self):
        # q- = 1, q+ = -1 gives Hdot = 1 and interior flux -x:
        # E -> 1/3 + 1/2 = 5/6; the exterior trapezoid adds h/2 per side
        values = {}
        for n in (100, 400):
            grid = dz.default_grid(P11, n_side=n)
            st = dz.rest_state(grid)
            st.q_left[-1] = 1.0
            st.q_right[0] = -1.0
            values[n] = energy(st, grid)
            assert values[n] == pytest.approx(5.0 / 6.0 + grid.spacing / 2.0, abs=1e-12)
        assert abs(values[400] - 5.0 / 6.0) < abs(values[100] - 5.0 / 6.0)

    def test_quadratic_form_matches_direct_evaluation(self):
        # W = diag(w) + 2a m m^T + (2a^3/3 + 1) C^T C, m the mean-flux row
        grid = dz.default_grid(P11, n_side=24)
        lay, a, c = grid.layout, grid.params.a, dz.assemble(grid).C
        mean = np.zeros(lay.dim)
        mean[[lay.q_minus, lay.q_plus]] = 0.5
        w = (np.diag(dz.quadratic_forms(grid)[0][0]) + 2.0 * a * np.outer(mean, mean)
             + (2.0 * a**3 / 3.0 + 1.0) * np.outer(c, c))
        assert np.abs(w - w.T).max() == 0.0
        assert np.linalg.eigvalsh(w).min() >= 0.0
        rng = np.random.default_rng(3)
        for _ in range(5):
            z = rng.standard_normal(grid.layout.dim)
            direct = energy(dz.State.unflatten(z, grid), grid)
            assert 0.5 * z @ w @ z == pytest.approx(direct, rel=1e-12)


def random_states(grid, count, seed):
    rng = np.random.default_rng(seed)
    return [dz.State.unflatten(z, grid) for z in rng.standard_normal((count, grid.layout.dim))]


def sides(grid, state):
    return ((grid.x_left, state.h_left, state.q_left),
            (grid.x_right, state.h_right, state.q_right))


class TestQuadraticForms:
    @pytest.mark.parametrize("sponge", [True, False])
    @pytest.mark.parametrize("n,a", [(16, 1.0), (64, 1.0), (64, 0.5)])
    def test_forms_match_direct_quadrature(self, n, a, sponge):
        # the sampled E, G and S of a block of states; np.gradient with
        # edge_order=2 is the same stencil, written independently
        grid = dz.default_grid(PhysicalParams(a, 1.0), n_side=n)
        grid = grid if sponge else grid.without_sponge()
        states = random_states(grid, 5, seed=n)
        block = np.column_stack([state.flatten(grid) for state in states])
        samples = dyn._sample(block, dz.assemble(grid), dz.quadratic_forms(grid))
        for state, (e, g, s) in zip(states, samples[4:].T):
            gradsq = sum(np.trapezoid(np.gradient(q, grid.spacing, edge_order=2) ** 2, x)
                         for x, _, q in sides(grid, state)) \
                + 2.0 * grid.params.a * state.hdot(grid) ** 2
            sponge_sink = sum(np.trapezoid(grid.sponge(x) * q ** 2, x)
                              for x, _, q in sides(grid, state))
            assert e == pytest.approx(energy(state, grid), rel=1e-12)
            assert g == pytest.approx(gradsq, rel=1e-12)
            assert s == pytest.approx(sponge_sink, rel=1e-12, abs=0.0)

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


# The interior pressure rebuilt from the state: an oracle of the generator's
# boundary-flux rows.


@dataclass(frozen=True)
class PressureProfile:
    """Quadratic pressure profile p(x) = c2 x^2 + c1 x + c0 under the solid."""

    c0: float
    c1: float
    c2: float

    def __call__(self, x):
        return self.c2 * np.square(x) + self.c1 * np.asarray(x) + self.c0

    def integral(self, a) -> float:
        """Integral of p over [-a, a]."""
        return 2.0 * a**3 / 3.0 * self.c2 + 2.0 * a * self.c0


def reconstruct_pressure(state: dz.State, state_derivative: dz.State, u, grid):
    """Rebuild the interior pressure from the state and its time derivative.

    The flux under the solid is linear in x, so dq/dt + dp/dx = 0 makes p
    quadratic: c2 = Hddot/2 and c1 = -(qdot+ + qdot-)/2, while c0 follows
    from the surface-height jump condition at -a.  Returns the profile
    and a defect report comparing it against the jump condition at +a and
    against the vertical momentum balance of the solid.
    """
    p = grid.params
    a, mu = p.a, p.mu
    hdot = state.hdot(grid)
    hddot = state_derivative.hdot(grid)  # same trace formula applied to qdot-+
    qdot_minus = state_derivative.q_minus
    qdot_plus = state_derivative.q_plus

    _, (rows, cols, weights), _, _ = dz._nodal_operators(grid)

    def slope(q, node):
        """d/dx at one node: that node's row of the stencil."""
        at = rows == node
        return weights[at] @ q[cols[at]] / (2.0 * grid.spacing)

    c2 = 0.5 * hddot
    c1 = -0.5 * (qdot_plus + qdot_minus)
    p_left = state.h_left[-1] - mu * slope(state.q_left, grid.n_side - 1) - state.H - mu * hdot
    c0 = p_left - c2 * a * a + c1 * a
    profile = PressureProfile(float(c0), float(c1), float(c2))

    p_right_target = state.h_right[0] - mu * slope(state.q_right, 0) - state.H - mu * hdot
    defects = {
        "right_jump": float(abs(profile(a) - p_right_target)),
        "newton": float(abs(hddot - (profile.integral(a) + u))),
    }
    return profile, defects


class TestPressureReconstruction:
    def apply_generator(self, system, state, u):
        grid = system.grid
        zdot = system.A @ state.flatten(grid) + system.B * u
        return dz.State.unflatten(zdot, grid)

    def test_zero_state_gives_zero_pressure(self):
        grid = dz.default_grid(P11, n_side=32)
        system = dz.assemble(grid)
        st = dz.rest_state(grid)
        profile, defects = reconstruct_pressure(
            st, self.apply_generator(system, st, 0.0), 0.0, grid)
        assert (profile.c0, profile.c1, profile.c2) == (0.0, 0.0, 0.0)
        assert defects["right_jump"] == 0.0 and defects["newton"] == 0.0

    def test_steady_translation_gives_zero_pressure(self):
        grid = dz.default_grid(P11, n_side=32)
        system = dz.assemble(grid)
        n = grid.n_side
        st = dz.State(1.0, np.ones(n), np.ones(n), np.zeros(n), np.zeros(n))
        profile, defects = reconstruct_pressure(
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
                       dz.State.unflatten(rng.standard_normal(grid.layout.dim), grid)):
                _, d = reconstruct_pressure(
                    st, self.apply_generator(system, st, 0.3), 0.3, grid)
                assert max(d.values()) <= 1e-12

    def test_profile_integral(self):
        profile = PressureProfile(c0=1.0, c1=5.0, c2=3.0)
        # odd term drops; 2a*c0 + (2 a^3/3) c2 with a = 2
        assert profile.integral(2.0) == pytest.approx(2 * 2 * 1.0 + 16 / 3 * 3.0)
        assert profile(2.0) == pytest.approx(3.0 * 4 + 5.0 * 2 + 1.0)
