import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from floatlab import discretization as dz
from floatlab import dynamics as dyn
from floatlab import lqr
from floatlab import verification as vf
from floatlab.errors import NoConvergence, SingularMatrix, UnstableClosedLoop
from floatlab.spectral import PhysicalParams

P11 = PhysicalParams(1.0, 1.0)


def small_system(n=48):
    return dz.assemble(dz.default_grid(P11, n_side=n))


class TestLyapunovSolve:
    def test_scalar_hand_value(self):
        x = lqr.lyapunov_solve(np.array([[-1.0]]), np.array([[2.0]]))
        assert x[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_zero_right_hand_side(self):
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        assert np.all(lqr.lyapunov_solve(a, np.zeros((2, 2))) == 0.0)

    def test_two_by_two_against_direct_solve(self):
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        x = lqr.lyapunov_solve(a, np.eye(2))
        assert np.abs(a.T @ x + x @ a + np.eye(2)).max() <= 1e-10
        # independent oracle: linear system in the three symmetric unknowns
        # of X applied to A^T X + X A = -I
        coeffs = np.array([
            [2 * a[0, 0], 2 * a[1, 0], 0.0],
            [a[0, 1], a[0, 0] + a[1, 1], a[1, 0]],
            [0.0, 2 * a[0, 1], 2 * a[1, 1]],
        ])
        sol = np.linalg.solve(coeffs, [-1.0, 0.0, -1.0])
        expected = np.array([[sol[0], sol[1]], [sol[1], sol[2]]])
        assert x == pytest.approx(expected, abs=1e-12)

    def test_random_residuals(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((9, 9)) - 6.0 * np.eye(9)
            q = rng.standard_normal((9, 9))
            q = q @ q.T
            x = lqr.lyapunov_solve(a, q)
            assert np.abs(a.T @ x + x @ a + q).max() <= 1e-10 * max(1.0, np.abs(q).max())
            assert np.abs(x - x.T).max() <= 1e-12

    def test_unstable_matrix_rejected(self):
        with pytest.raises(UnstableClosedLoop):
            lqr.lyapunov_solve(np.array([[1.0]]), np.array([[1.0]]))

    def test_unstable_complex_pair_rejected(self):
        # real Schur keeps this as one 2x2 block; its diagonal is Re = 0.1
        with pytest.raises(UnstableClosedLoop):
            lqr.lyapunov_solve(np.array([[0.1, 1.0], [-1.0, 0.1]]), np.eye(2))

    def test_nearly_singular_operator_rejected(self):
        # 2 * (-1e-20) is below eps * ||T||: trsyl would perturb the eigenvalue
        with pytest.raises(SingularMatrix):
            lqr.lyapunov_solve(np.diag([-1.0, -1e-20]), np.eye(2))


def by_hand(a, b, c, kernel=None):
    """A system without a grid; its kernel basis is ``kernel``, by default none."""
    a = np.atleast_2d(a)
    kernel = np.zeros((a.shape[0], 0)) if kernel is None else kernel
    return dz.SemiDiscreteSystem(a, np.asarray(b, dtype=float),
                                 np.asarray(c, dtype=float), None, kernel)


SCALAR = by_hand(-1.0, [1.0], [1.0])


class TestCareScalar:
    def test_newton_kleinman_hand_value(self):
        sol = lqr.care_solve(SCALAR)
        assert abs(sol.P[0, 0] - (math.sqrt(2.0) - 1.0)) <= 1e-12
        assert sol.gain[0] == pytest.approx(sol.P[0, 0])
        assert SCALAR.kernel.shape == (1, 0)

    def test_hamiltonian_sign_hand_value(self):
        sol = lqr.care_solve(SCALAR, method="hamiltonian_sign")
        assert abs(sol.P[0, 0] - (math.sqrt(2.0) - 1.0)) <= 1e-12
        assert SCALAR.kernel.shape == (1, 0)

    def test_zero_output_gives_zero_cost(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5)) - 3.0 * np.eye(5)
        sol = lqr.care_solve(by_hand(a, rng.standard_normal(5), np.zeros(5)))
        assert np.abs(sol.P).max() <= 1e-12
        assert np.abs(sol.gain).max() <= 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            lqr.care_solve(SCALAR, method="shooting")

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(lqr, "MAX_ITER", 0)
        for method in lqr.METHODS:
            with pytest.raises(NoConvergence):
                lqr.care_solve(SCALAR, method=method)

    @pytest.mark.parametrize("method", lqr.METHODS)
    def test_non_stabilizing_initial_gain_rejected(self, method):
        # u = +5 Hdot feeds energy in: the initial closed loop has max Re = 0.116
        with pytest.raises(UnstableClosedLoop,
                           match=r"^initial feedback is not stabilizing \(max Re = 1\.160e-01\)$"):
            lqr.care_solve(small_system(24), method=method, alpha0=-5.0)


EPS = np.finfo(float).eps
# every parity of n_side from 8 to 40, then both parities at n_side >= 100
KERNEL_SIDES = [*range(8, 41), 99, 100, 101, 200]
MUS = (0.5, 1.0, 2.0)


class TestDeflation:
    def test_no_kernel_is_identity(self):
        system = by_hand([[-1.0, 0.3], [0.0, -2.0]], np.ones(2), np.ones(2))
        assert lqr.deflate_zero_modes(system) is system.A

    def test_kernel_coupled_to_input_rejected(self):
        a = np.diag([0.0, -1.0])
        with pytest.raises(UnstableClosedLoop):
            lqr.deflate_zero_modes(by_hand(a, [1.0, 0.0], [0.0, 1.0], np.eye(2)[:, :1]))

    def test_kernel_coupled_to_output_rejected(self):
        a = np.diag([0.0, -1.0])
        with pytest.raises(UnstableClosedLoop):
            lqr.deflate_zero_modes(by_hand(a, [0.0, 1.0], [1.0, 0.0], np.eye(2)[:, :1]))

    def test_basis_outside_the_kernel_rejected(self):
        a = np.diag([0.0, -1.0])
        with pytest.raises(ValueError):
            lqr.deflate_zero_modes(by_hand(a, [0.0, 1.0], [0.0, 1.0], np.eye(2)[:, 1:]))

    @pytest.mark.parametrize("method", lqr.METHODS)
    def test_defective_kernel_rejected(self, method):
        # a Jordan block at 0 that input and output do not see: the shift
        # moves one zero eigenvalue to -1 and leaves the other in place
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        e3 = np.array([0.0, 0.0, 1.0])
        with pytest.raises(UnstableClosedLoop):
            lqr.care_solve(by_hand(a, e3, e3), method=method)

    @pytest.mark.parametrize("n_side", KERNEL_SIDES)
    @pytest.mark.parametrize("sponge", [True, False])
    def test_structural_kernel_is_rest_mode_and_combs(self, n_side, sponge):
        # h_right[1::2] = 1: the right comb, odd steps from the solid
        comb, flat = np.arange(n_side) % 2.0, np.zeros(n_side)
        modes = (dz.State(1.0, np.ones(n_side), np.ones(n_side), flat, flat),
                 dz.State(0.0, comb[::-1], flat, flat, flat),
                 dz.State(0.0, flat, comb, flat, flat))
        # mu cycles with n_side, so over six consecutive n_side every
        # (a, mu) pair meets an even and an odd grid
        for i, a in enumerate((0.5, 1.0, 2.0)):
            grid = dz.default_grid(PhysicalParams(a, MUS[(i + n_side) % 3]), n_side=n_side)
            system = dz.assemble(grid if sponge else grid.without_sponge())
            z = system.kernel
            assert z.shape == (system.dim, 3)
            assert np.abs(z.T @ z - np.eye(3)).max() <= 1e-13
            for mode in modes:
                v = mode.flatten(grid)
                assert np.abs(v - z @ (z.T @ v)).max() <= 1e-13
            # the rest mode's q- row sums -1.2 + 1.1 + 0.1 in floating point
            assert np.abs(system.A @ z).max() <= 4 * EPS * np.abs(system.A).max()
            assert np.all(system.C @ z == 0.0)
            # reference: the numerical rank test the closed form replaces
            s = sla.svdvals(system.A)
            assert np.sum(s <= 1e-10 * s[0]) == 3
            shifted = lqr.deflate_zero_modes(system)
            assert np.abs(shifted @ z + z).max() <= 1e-13
            assert np.linalg.eigvals(shifted).real.max() < 0


class TestKernelIsSystemData:
    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(0.25, 4.0), mu=st.floats(0.25, 4.0), n_side=st.integers(8, 40),
           sponge=st.booleans())
    def test_both_halves_carry_their_kernel(self, a, mu, n_side, sponge):
        grid = dz.default_grid(PhysicalParams(a, mu), n_side=n_side)
        system = dz.assemble(grid if sponge else grid.without_sponge())
        even, _ = system.mirror_halves
        # the rest mode and both combs; on the even half the rest mode and
        # the sum of the combs, in even coordinates
        for half, shape in ((system, (system.dim, 3)), (even, (2 * n_side, 2))):
            z = half.kernel
            assert z.shape == shape
            assert np.abs(z.T @ z - np.eye(shape[1])).max() <= 1e-13
            assert np.abs(half.A @ z).max() <= 4 * EPS * np.abs(half.A).max()
            assert np.all(half.C @ z == 0.0)
        # so the even half is a complete system: its own Riccati solution is
        # the full one restricted to the even states
        qe = system.mirror_bases[0]
        for method in lqr.METHODS:
            want = qe.restrict(qe.restrict(lqr.care_solve(system, method=method).P).T).T
            got = lqr.care_solve(even, method=method).P
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# n_side alternates 24/25 with the parity of the other three levels, so every
# value of a, mu and sponge meets both an even and an odd grid
SWEEP = [(a, mu, sponge, 24 + (i + j + k) % 2)
         for i, a in enumerate((0.5, 2.0)) for j, mu in enumerate((0.5, 2.0))
         for k, sponge in enumerate((True, False))]


class TestParameterSweep:
    @pytest.mark.parametrize("a, mu, sponge, n_side", SWEEP)
    def test_kernel_iterations_residual_and_method_gap(self, a, mu, sponge, n_side):
        grid = dz.default_grid(PhysicalParams(a, mu), n_side=n_side)
        system = dz.assemble(grid if sponge else grid.without_sponge())
        nk = lqr.care_solve(system)
        hs = lqr.care_solve(system, method="hamiltonian_sign")
        p_norm = np.linalg.norm(nk.P, "fro")
        assert system.kernel.shape[1] == 3
        assert nk.iterations <= 6
        assert nk.residual <= 1e-8 * (1.0 + p_norm ** 2)
        assert np.linalg.norm(nk.P - hs.P, "fro") / p_norm <= vf.METHOD_GAP

    @pytest.mark.parametrize("a, mu, sponge, n_side", SWEEP)
    def test_mirror_splits_the_system(self, a, mu, sponge, n_side):
        grid = dz.default_grid(PhysicalParams(a, mu), n_side=n_side)
        system = dz.assemble(grid if sponge else grid.without_sponge())
        # what care_solve relies on: the mirror fixes B and C and commutes
        # with A, and Q_e, Q_o split the state and the kernel
        dim = system.dim
        source, sign = grid.layout.mirror
        reflect = sign[:, None] * np.eye(dim)[source]
        assert np.array_equal(reflect @ reflect, np.eye(dim))
        assert np.abs(reflect @ system.A @ reflect - system.A).max() \
            <= 1e-14 * np.abs(system.A).max()
        assert np.array_equal(reflect @ system.B, system.B)
        assert np.array_equal(reflect @ system.C, system.C)

        bases = system.mirror_bases
        assert [q.shape for q in bases] == [(dim, 2 * n_side), (dim, 2 * n_side - 1)]
        even, odd = (q.lift(np.eye(q.shape[1])) for q in bases)
        rng = np.random.default_rng(n_side)
        for q, dense in zip(bases, (even, odd)):
            # restrict and lift are Q^T x and Q y on one column or several;
            # lift places one product a slot, restrict adds two
            lone = q.partner == q.lead
            for shape in ((), (3,)):
                x = rng.standard_normal((dim, *shape))
                y = rng.standard_normal((q.shape[1], *shape))
                assert q.restrict(x).shape == y.shape and q.lift(y).shape == x.shape
                assert np.abs(q.restrict(x) - dense.T @ x).max() <= 2 * EPS * np.abs(x).max()
                assert np.array_equal(q.lift(y), dense @ y)
                # Q^T Q y is y bit for bit on a lone slot; a pair's weights
                # square to fl(sqrt(0.5))^2 > 1/2, so there it is y to rounding
                back = q.restrict(q.lift(y))
                assert np.array_equal(back[lone], y[lone])
                assert np.all(np.abs(back - y) <= 2 * EPS * np.abs(y))
        both = np.hstack([even, odd])
        assert np.abs(both.T @ both - np.eye(dim)).max() <= 1e-15
        assert np.array_equal(reflect @ even, even) and np.array_equal(reflect @ odd, -odd)

        # the kernel splits 2 + 1: the rest mode and the sum of the combs
        # are even, their difference odd
        z, z_even = system.kernel, even @ system.mirror_halves[0].kernel
        assert z_even.shape == (dim, 2)
        assert np.abs(z_even.T @ z_even - np.eye(2)).max() <= 1e-14
        assert np.abs(z_even - z @ (z.T @ z_even)).max() <= 1e-14
        assert np.abs(odd.T @ z_even).max() <= 1e-15
        assert np.linalg.matrix_rank(odd.T @ z, tol=1e-12) == 1


@pytest.fixture
def lyapunov_calls(monkeypatch):
    """Count the Schur steps: the calls of ``lqr.lyapunov_solve`` made through the module."""
    calls = []
    original = lqr.lyapunov_solve

    def counted(*args):
        calls.append(1)
        return original(*args)
    monkeypatch.setattr(lqr, "lyapunov_solve", counted)
    return calls


class TestModalSteps:
    @pytest.mark.parametrize("a, mu, sponge, n_side", SWEEP)
    def test_schur_only_path_agrees_iterate_by_iterate(self, a, mu, sponge, n_side,
                                                        lyapunov_calls, monkeypatch):
        grid = dz.default_grid(PhysicalParams(a, mu), n_side=n_side)
        system = dz.assemble(grid if sponge else grid.without_sponge())
        modal = lqr.care_solve(system, keep_iterates=True)
        assert len(lyapunov_calls) == 1
        # no eigenbasis passes the guard: every step is a Schur step, as before
        monkeypatch.setattr(lqr, "MODAL_COND", 0.0)
        schur = lqr.care_solve(system, keep_iterates=True)
        assert len(lyapunov_calls) == 1 + schur.iterations
        assert modal.iterations == schur.iterations == len(modal.iterates)
        for got, want in zip(modal.iterates, schur.iterates):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_jordan_block_takes_the_schur_path(self, lyapunov_calls):
        # A0 = A - b c^T keeps the 2x2 Jordan block at -1, which c sees and b
        # does not, and the mode at -3 that both see: V is singular to rounding
        a = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]])
        b, c = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0])
        solution = lqr.care_solve(by_hand(a, b, c))
        assert len(lyapunov_calls) == solution.iterations >= 2
        reference = sla.solve_continuous_are(a, b[:, None], np.outer(c, c), np.eye(1))
        assert np.abs(solution.P - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_one_schur_step_a_grid_solve(self, lyapunov_calls):
        solution = lqr.care_solve(small_system())
        assert len(lyapunov_calls) == 1
        assert solution.iterations >= 4
        assert solution.residual <= 1e-8 * (1.0 + np.linalg.norm(solution.P, "fro") ** 2)


def full_newton_kleinman(system):
    """Newton-Kleinman on the whole state, from the energy feedback u = -Hdot."""
    shifted = lqr.deflate_zero_modes(system)
    gain = system.C
    for _ in range(30):
        p = lqr.lyapunov_solve(shifted - np.outer(system.B, gain),
                               np.outer(system.C, system.C) + np.outer(gain, gain))
        gain, previous = system.B @ p, gain
        if np.linalg.norm(gain - previous) <= 1e-13 * np.linalg.norm(gain):
            return p
    raise AssertionError("full-size Newton-Kleinman did not converge")


class TestMirrorHalf:
    @pytest.mark.parametrize("n_side", [24, 25])
    @pytest.mark.parametrize("method", lqr.METHODS)
    def test_lifted_solution_is_the_full_solution(self, n_side, method):
        system = small_system(n_side)
        solution = lqr.care_solve(system, method=method)
        reference = full_newton_kleinman(system)
        assert np.linalg.norm(solution.P - reference, "fro") \
            <= 1e-12 * np.linalg.norm(reference, "fro")
        # P vanishes on the odd half bit for bit, and is symmetric bit for bit
        odd = system.mirror_bases[1]
        assert np.all(odd.restrict(solution.P) == 0.0)
        assert np.array_equal(solution.P, solution.P.T)
        assert solution.P.shape == (system.dim, system.dim)
        assert system.kernel.shape[1] == 3

    def test_iterates_are_lifted(self):
        system = small_system(24)
        solution = lqr.care_solve(system, keep_iterates=True)
        assert len(solution.iterates) == solution.iterations
        assert all(p.shape == (system.dim, system.dim) for p in solution.iterates)
        assert np.array_equal(solution.iterates[-1], solution.P)

    def test_generator_coupling_the_halves_rejected(self):
        system = small_system(24)
        lay = system.grid.layout
        a = system.A.copy()
        a[lay.h_left.start + 2, lay.q_left.start + 2] *= 1.0 + 1e-6
        for method in lqr.METHODS:
            with pytest.raises(ValueError):
                lqr.care_solve(dz.SemiDiscreteSystem(a, system.B, system.C, system.grid,
                                                     system.kernel),
                               method=method)

    @pytest.mark.parametrize("method", lqr.METHODS)
    def test_dense_work_runs_on_the_even_half(self, method, monkeypatch):
        # every dense factorisation sees at most 2n rows, and the Hamiltonian
        # of the sign method 4n: what the state dimension 4n - 1 halves to
        n_side = 48
        system = small_system(n_side)
        rows = {}

        def spy(module, name):
            original = getattr(module, name)

            def counted(x, *args, **kwargs):
                rows.setdefault(name, []).append(np.shape(x)[0])
                return original(x, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        spy(sla, "schur")
        spy(sla.lapack, "dsytrf")
        spy(np.linalg, "solve")
        spy(np.linalg, "eigvals")
        spy(np.linalg, "eig")
        spy(np.linalg, "inv")
        lqr.care_solve(system, method=method)
        if method == "newton_kleinman":
            assert rows.keys() == {"schur", "solve", "eig", "inv"}
        else:
            assert rows.keys() == {"dsytrf", "solve", "eigvals"}
        for name, sizes in rows.items():
            assert max(sizes) <= (4 if name == "dsytrf" else 2) * n_side, (name, sizes)


class TestCareFullSystem:
    @pytest.fixture(scope="class")
    def solution(self):
        return lqr.care_solve(small_system(), keep_iterates=True)

    def test_residual_and_symmetry(self, solution):
        assert solution.residual <= 1e-8 * (1.0 + np.linalg.norm(solution.P, "fro") ** 2)
        assert np.abs(solution.P - solution.P.T).max() <= 1e-10

    def test_positive_semidefinite(self, solution):
        min_eig = np.linalg.eigvalsh(solution.P).min()
        assert min_eig >= -1e-10 * np.linalg.norm(solution.P, 2)

    def test_newton_iterates_monotone(self, solution):
        assert solution.iterations >= 2
        for p_prev, p_next in zip(solution.iterates, solution.iterates[1:]):
            d = 0.5 * (p_prev - p_next + (p_prev - p_next).T)
            assert np.linalg.eigvalsh(d).min() >= -1e-9

    def test_methods_agree(self, solution):
        sign_sol = lqr.care_solve(small_system(), method="hamiltonian_sign")
        rel = np.linalg.norm(solution.P - sign_sol.P, "fro") \
            / np.linalg.norm(solution.P, "fro")
        assert rel <= 1e-6

    def test_closed_loop_spectrum(self, solution):
        # the structural kernel stays on the axis for every feedback (the
        # rest mode and comb modes are invisible to input and output);
        # everything else must be strictly damped
        system = small_system()
        ev = np.linalg.eigvals(system.A - np.outer(system.B, solution.gain))
        n_zero = int(np.sum(np.abs(ev) <= 1e-8))
        assert n_zero == system.kernel.shape[1] == 3
        rest = ev[np.abs(ev) > 1e-8]
        assert rest.real.max() < 0

    def test_kernel_costs_nothing(self, solution):
        for v in small_system().kernel.T:
            assert abs(solution.predicted_cost(v)) <= 1e-10


class TestSignIteration:
    def test_step_count_at_default_grid(self):
        # Frobenius-norm scaling and the quadratic-phase stop take 11 steps
        # on the Hamiltonian at the default n_side 100
        system = dz.assemble(dz.default_grid(P11, n_side=100))
        solution = lqr.care_solve(system, method="hamiltonian_sign")
        assert 1 <= solution.iterations <= 12
        assert solution.residual <= 1e-8 * (1.0 + np.linalg.norm(solution.P, "fro") ** 2)


class TestCompareFeedbacks:
    def test_zero_initial_state_costs_nothing(self):
        system = small_system()
        solution = lqr.care_solve(system)
        table = lqr.compare_feedbacks(system, dz.rest_state(system.grid),
                                      (0.5, 1.0), solution, T=5.0, dt=0.05,
                                      scheme="trapezoidal")
        assert all(row["J"] == 0.0 for row in table.rows)

    def test_optimal_beats_energy_feedbacks(self):
        system = small_system()
        solution = lqr.care_solve(system)
        table = lqr.compare_feedbacks(system, dz.heave_state(system.grid),
                                      (0.25, 0.5, 1.0, 2.0, 4.0), solution,
                                      T=120.0, dt=0.05, scheme="trapezoidal")
        assert table.optimal_is_best
        assert table.relative_gap <= 0.02
        assert table.rows[0]["controller"] == "optimal"
        assert len(table.rows) == 6

    def test_optimal_cost_does_not_depend_on_the_horizon(self):
        # J_T + z(T)^T P z(T) = z0^T P z0 + int |u + B^T P z|^2 is flat in T
        # for the Riccati gain
        system = small_system(32)
        solution = lqr.care_solve(system)
        z0 = dz.heave_state(system.grid)
        short, long = (lqr.compare_feedbacks(system, z0, (), solution, T=T, dt=0.05,
                                             scheme="trapezoidal")
                       for T in (10.0, 120.0))
        assert short.optimal_cost == pytest.approx(long.optimal_cost, rel=1e-5)

    def test_energy_rows_are_nondecreasing_lower_bounds(self):
        system = small_system(32)
        solution = lqr.care_solve(system)
        z0 = dz.heave_state(system.grid)
        costs = np.array([
            [row["J"] for row in lqr.compare_feedbacks(
                system, z0, (0.25, 1.0, 4.0), solution, T=T, dt=0.05,
                scheme="trapezoidal").rows[1:]]
            for T in (10.0, 20.0, 60.0, 120.0)])
        assert np.all(np.diff(costs, axis=0) >= -1e-9 * costs[:-1])

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    def test_riccati_solution_is_below_every_energy_cost(self, alpha):
        # the Loewner order X_alpha >= P that makes the energy rows lower bounds
        system = small_system(24)
        solution = lqr.care_solve(system)
        shifted = lqr.deflate_zero_modes(system)
        x = lqr.lyapunov_solve(shifted - alpha * np.outer(system.B, system.C),
                               (1.0 + alpha ** 2) * np.outer(system.C, system.C))
        assert np.linalg.eigvalsh(x - solution.P).min() >= -1e-12 * np.linalg.norm(x, 2)

    def test_one_factorisation_and_no_history(self, monkeypatch):
        # the default lqr comparison: six loops over 12,000 steps at dim 399
        system = small_system(100)
        solution = lqr.care_solve(system)
        constructed, advanced = [], []
        init, advance = dyn.Stepper.__init__, dyn.Stepper.advance

        def spy(self, *args, **kwargs):
            constructed.append(args)
            init(self, *args, **kwargs)

        def count(self, z):
            advanced.append(1)
            return advance(self, z)

        monkeypatch.setattr(dyn.Stepper, "__init__", spy)
        monkeypatch.setattr(dyn.Stepper, "advance", count)
        tracemalloc.start()
        try:
            table = lqr.compare_feedbacks(system, dz.heave_state(system.grid),
                                          (0.25, 0.5, 1.0, 2.0, 4.0), solution,
                                          T=240.0, dt=0.02, scheme="trapezoidal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(constructed) == 1
        # the blocks take all but the last 12,000 mod _BLOCK = 32 steps
        assert len(advanced) == 12_000 % dyn._BLOCK <= dyn._BLOCK - 1
        history = 12_001 * system.dim * 8
        assert peak <= 0.25 * history
        assert table.optimal_is_best
        assert 0.0 < table.tail_exact

    def test_costs_match_a_stepwise_march(self):
        # the default comparison against one step at a time on a Stepper,
        # the march that feedback_costs makes in blocks
        system = small_system(100)
        solution = lqr.care_solve(system)
        z0 = dz.heave_state(system.grid)
        alphas = (0.25, 0.5, 1.0, 2.0, 4.0)
        table = lqr.compare_feedbacks(system, z0, alphas, solution, T=240.0, dt=0.02,
                                      scheme="trapezoidal")
        gains = np.vstack([solution.gain] + [alpha * system.C for alpha in alphas])
        stepper = dyn.Stepper(system, 0.02, "trapezoidal", gains)
        z = np.repeat(z0.flatten(system.grid)[:, None], len(gains), axis=1)
        inputs, outputs = [-np.vecdot(gains, z.T)], [system.C @ z]
        for _ in range(12_000):
            z, u = stepper.advance(z)
            inputs.append(u)
            outputs.append(system.C @ z)
        mid_u, mid_hdot = (0.5 * (x[:-1] + x[1:]) for x in map(np.array, (inputs, outputs)))
        want = 0.02 * np.sum(mid_u ** 2 + mid_hdot ** 2, axis=0) \
            + np.einsum("ij,ik,kj->j", z, solution.P, z)
        got = np.array([row["J"] for row in table.rows])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).min()

    def test_odd_initial_state_costs_as_on_the_full_state(self):
        # the bump carries an odd part, which neither the gains nor P see:
        # the even march gives the costs of a full-size stepwise march
        system = small_system(32)
        solution = lqr.care_solve(system)
        z0 = dz.bump_state(system.grid)
        alphas = (0.5, 2.0)
        table = lqr.compare_feedbacks(system, z0, alphas, solution, T=20.0, dt=0.05,
                                      scheme="trapezoidal")
        gains = np.vstack([solution.gain] + [alpha * system.C for alpha in alphas])
        stepper = dyn.Stepper(system, 0.05, "trapezoidal", gains)
        z = np.repeat(z0.flatten(system.grid)[:, None], len(gains), axis=1)
        inputs, outputs = [-np.vecdot(gains, z.T)], [system.C @ z]
        for _ in range(400):
            z, u = stepper.advance(z)
            inputs.append(u)
            outputs.append(system.C @ z)
        mid_u, mid_hdot = (0.5 * (x[:-1] + x[1:]) for x in map(np.array, (inputs, outputs)))
        want = 0.05 * np.sum(mid_u ** 2 + mid_hdot ** 2, axis=0) \
            + np.einsum("ij,ik,kj->j", z, solution.P, z)
        got = np.array([row["J"] for row in table.rows])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).min()
        assert table.predicted_optimal == solution.predicted_cost(z0.flatten(system.grid))

    def test_csv_export(self, tmp_path):
        system = small_system(32)
        solution = lqr.care_solve(system)
        table = lqr.compare_feedbacks(system, dz.heave_state(system.grid),
                                      (1.0,), solution, T=60.0, dt=0.05,
                                      scheme="trapezoidal")
        path = tmp_path / "compare.csv"
        table.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "controller,J,predicted,relative_gap"
        assert lines[1].startswith("optimal,")

    def test_csv_gap_is_the_table_gap(self, tmp_path):
        # a zero prediction with a nonzero cost: the row and the table agree
        table = lqr.FeedbackComparison(
            [{"controller": "optimal", "J": 0.5, "predicted": 0.0},
             {"controller": "alpha=1", "J": 0.7}], True, 0.0)
        path = tmp_path / "compare.csv"
        table.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[1] == f"optimal,0.5,0.0,{table.relative_gap}"
        assert lines[2] == "alpha=1,0.7,,"
