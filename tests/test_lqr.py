import math

import numpy as np
import pytest
import scipy.linalg as sla

from floatlab import discretization as dz
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


class TestCareScalar:
    def test_newton_kleinman_hand_value(self):
        sol = lqr.care_solve((np.array([[-1.0]]), [1.0], [1.0]))
        assert abs(sol.P[0, 0] - (math.sqrt(2.0) - 1.0)) <= 1e-12
        assert sol.gain[0] == pytest.approx(sol.P[0, 0])

    def test_hamiltonian_sign_hand_value(self):
        sol = lqr.care_solve((np.array([[-1.0]]), [1.0], [1.0]),
                             method="hamiltonian_sign")
        assert abs(sol.P[0, 0] - (math.sqrt(2.0) - 1.0)) <= 1e-12

    def test_zero_output_gives_zero_cost(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5)) - 3.0 * np.eye(5)
        sol = lqr.care_solve((a, rng.standard_normal(5), np.zeros(5)))
        assert np.abs(sol.P).max() <= 1e-12
        assert np.abs(sol.gain).max() <= 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            lqr.care_solve((np.array([[-1.0]]), [1.0], [1.0]), method="shooting")

    def test_iteration_budget(self):
        with pytest.raises(NoConvergence):
            lqr.care_solve((np.array([[-1.0]]), [1.0], [1.0]), max_iter=0)


EPS = np.finfo(float).eps
# every parity of n_side from 8 to 40, then both parities at n_side >= 100
KERNEL_SIDES = [*range(8, 41), 99, 100, 101, 200]
MUS = (0.5, 1.0, 2.0)


class TestDeflation:
    def test_no_kernel_is_identity(self):
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])
        shifted, k = lqr.deflate_zero_modes(a, np.ones(2), np.ones(2), np.zeros((2, 0)))
        assert shifted is a
        assert k == 0

    def test_kernel_coupled_to_input_rejected(self):
        a = np.diag([0.0, -1.0])
        with pytest.raises(UnstableClosedLoop):
            lqr.deflate_zero_modes(a, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                   np.eye(2)[:, :1])

    def test_kernel_coupled_to_output_rejected(self):
        a = np.diag([0.0, -1.0])
        with pytest.raises(UnstableClosedLoop):
            lqr.deflate_zero_modes(a, np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                                   np.eye(2)[:, :1])

    def test_basis_outside_the_kernel_rejected(self):
        a = np.diag([0.0, -1.0])
        with pytest.raises(ValueError):
            lqr.deflate_zero_modes(a, np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                                   np.eye(2)[:, 1:])

    @pytest.mark.parametrize("method", lqr.METHODS)
    def test_defective_kernel_rejected(self, method):
        # a Jordan block at 0 that input and output do not see: the shift
        # moves one zero eigenvalue to -1 and leaves the other in place
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        e3 = np.array([0.0, 0.0, 1.0])
        with pytest.raises(UnstableClosedLoop):
            lqr.care_solve((a, e3, e3), method=method)

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
            shifted, k = lqr.deflate_zero_modes(system.A, system.B, system.C, z)
            assert k == 3
            assert np.abs(shifted @ z + z).max() <= 1e-13
            assert np.linalg.eigvals(shifted).real.max() < 0


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
        assert nk.kernel_dim == 3
        assert nk.iterations <= 6
        assert nk.residual <= 1e-8 * (1.0 + p_norm ** 2)
        assert np.linalg.norm(nk.P - hs.P, "fro") / p_norm <= vf.METHOD_GAP


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
        assert n_zero == solution.kernel_dim == 3
        rest = ev[np.abs(ev) > 1e-8]
        assert rest.real.max() < 0

    def test_kernel_costs_nothing(self, solution):
        for v in small_system().kernel.T:
            assert abs(solution.predicted_cost(v)) <= 1e-10


class TestCompareFeedbacks:
    def test_zero_initial_state_costs_nothing(self):
        system = small_system()
        solution = lqr.care_solve(system)
        table = lqr.compare_feedbacks(system, dz.rest_state(system.grid),
                                      (0.5, 1.0), solution, T=5.0, dt=0.05)
        assert all(row["J"] == 0.0 for row in table.rows)

    def test_optimal_beats_energy_feedbacks(self):
        system = small_system()
        solution = lqr.care_solve(system)
        table = lqr.compare_feedbacks(system, dz.heave_state(system.grid),
                                      (0.25, 0.5, 1.0, 2.0, 4.0), solution,
                                      T=120.0, dt=0.05)
        assert table.optimal_is_best
        assert table.relative_gap <= 0.02
        assert table.rows[0]["controller"] == "optimal"
        assert len(table.rows) == 6

    def test_csv_export(self, tmp_path):
        system = small_system(32)
        solution = lqr.care_solve(system)
        table = lqr.compare_feedbacks(system, dz.heave_state(system.grid),
                                      (1.0,), solution, T=60.0, dt=0.05)
        path = tmp_path / "compare.csv"
        table.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "controller,J,predicted,relative_gap"
        assert lines[1].startswith("optimal,")

    def test_csv_gap_is_the_table_gap(self, tmp_path):
        # a zero prediction with a nonzero cost: the row and the table agree
        table = lqr.FeedbackComparison(
            [{"controller": "optimal", "J": 0.5, "predicted": 0.0},
             {"controller": "alpha=1", "J": 0.7}], 0.0, 0.5, True)
        path = tmp_path / "compare.csv"
        table.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[1] == f"optimal,0.5,0.0,{table.relative_gap}"
        assert lines[2] == "alpha=1,0.7,,"
