import math

import numpy as np
import pytest

from floatlab import discretization as dz
from floatlab import lqr
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


class TestDeflation:
    def test_no_kernel_is_identity(self):
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])
        ar, br, cr, basis, proj = lqr.deflate_zero_modes(a, np.ones(2), np.ones(2))
        assert ar == pytest.approx(a)
        assert np.array_equal(basis, np.eye(2))
        assert np.array_equal(proj, np.eye(2))

    def test_kernel_coupled_to_input_rejected(self):
        a = np.diag([0.0, -1.0])
        with pytest.raises(UnstableClosedLoop):
            lqr.deflate_zero_modes(a, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_kernel_coupled_to_output_rejected(self):
        a = np.diag([0.0, -1.0])
        with pytest.raises(UnstableClosedLoop):
            lqr.deflate_zero_modes(a, np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_structural_kernel_of_the_model(self):
        system = small_system()
        ar, br, cr, basis, proj = lqr.deflate_zero_modes(system.A, system.B, system.C)
        assert ar.shape[0] == system.dim - 3
        assert np.linalg.eigvals(ar).real.max() < 0
        # the projector annihilates the rest mode
        n = system.grid.n_side
        rest = dz.State(1.0, np.ones(n), np.ones(n),
                        np.zeros(n), np.zeros(n)).flatten(system.grid)
        assert np.abs(proj @ rest).max() <= 1e-10


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
        system = small_system()
        n = system.grid.n_side
        rest = dz.State(1.0, np.ones(n), np.ones(n),
                        np.zeros(n), np.zeros(n)).flatten(system.grid)
        assert abs(solution.predicted_cost(rest)) <= 1e-10


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
