"""Algebraic Riccati solution and optimal feedback for the discretized model.

The semi-discrete generator has a small structural kernel (the conserved
rest mode plus the collocated-stencil comb modes); those directions are
invisible to both the input column and the output row.  The kernel is
written down in closed form by the discretization
(``SemiDiscreteSystem.kernel``), not found by a numerical rank test.
With Z that orthonormal basis, the Riccati equation is solved on the
shifted generator A - Z Z^T, which keeps the rest of A's spectrum and
moves the kernel eigenvalues to -1 (Brauer's deflation), so the closed
loop under the energy feedback is strictly Hurwitz.  The shifted cost of
any state in span Z is zero, so the solution annihilates the kernel, and
then it also satisfies the original equation: it is the minimal
nonnegative solution, under which trajectories that never produce output
cost nothing.

Two independent solvers are provided and cross-checked: Newton-Kleinman
(a sequence of Lyapunov equations from a stabilizing gain) and the
matrix-sign iteration on the Hamiltonian block matrix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dtrsyl

from .discretization import SemiDiscreteSystem
from .dynamics import cost, simulate
from .errors import NoConvergence, SingularMatrix, UnstableClosedLoop
from .linalg import matrix_sign

METHODS = ("newton_kleinman", "hamiltonian_sign")


def lyapunov_solve(acl, q):
    """Solve acl^T X + X acl + q = 0 by Bartels-Stewart in real arithmetic.

    ``acl`` must be Hurwitz; ``q`` symmetric.  The matrix is reduced to
    real Schur form T = U^T acl U and the transformed Sylvester equation
    T^T Y + Y T = -U^T q U is solved by LAPACK's trsyl.
    """
    acl = np.asarray(acl, dtype=float)
    q = np.asarray(q, dtype=float)
    t, u = sla.schur(acl, output="real")
    # LAPACK standardises each 2x2 block to equal diagonal entries, which
    # are then the real part of its complex pair
    re = np.diag(t)
    if np.any(re >= 0):
        raise UnstableClosedLoop(f"closed-loop eigenvalue with Re = {re.max():.3e} >= 0")
    y, scale, info = dtrsyl(t, t, -(u.T @ q @ u), trana="T")
    if info != 0:
        raise SingularMatrix(f"trsyl failed with info={info}")
    x = u @ (y / scale) @ u.T
    return 0.5 * (x + x.T)


@dataclass
class RiccatiSolution:
    """Nonnegative Riccati solution with its gain and diagnostics."""

    P: np.ndarray
    gain: np.ndarray
    residual: float
    iterations: int
    method: str
    kernel_dim: int = 0
    iterates: list = field(default_factory=list, repr=False)

    def predicted_cost(self, z0) -> float:
        return float(z0 @ self.P @ z0)


def _as_matrices(system):
    """(A, B, C, Z): a raw triple has no known kernel, so Z has no columns."""
    if isinstance(system, SemiDiscreteSystem):
        return system.A, system.B, system.C, system.kernel
    a, b, c = system
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return (a, np.asarray(b, dtype=float).reshape(-1),
            np.asarray(c, dtype=float).reshape(-1), np.zeros((a.shape[0], 0)))


def deflate_zero_modes(a, b, c, z):
    """Move the kernel of the generator to -1, returning (a - z z^T, k).

    ``z`` is an orthonormal basis (dim x k) of ker a, written down by the
    caller; with a z = 0 the shift maps each column of z to its negative
    and keeps the rest of the spectrum.  The left kernel of a is then
    (a - z z^T)^-T z, found by one dense solve.  The kernel must be
    invisible to input and output (it is, structurally, for the
    discretized model); anything else is reported as UnstableClosedLoop
    since no stabilizing solution can exist then.
    """
    k = z.shape[1]
    if k == 0:
        return a, 0
    if np.abs(a @ z).max() > 1e-12 * np.abs(a).max():
        raise ValueError("z is not a kernel basis of a")
    shifted = a - z @ z.T
    w = np.linalg.solve(shifted.T, z)
    w /= np.linalg.norm(w, axis=0)
    scale_b = np.linalg.norm(b) or 1.0
    scale_c = np.linalg.norm(c) or 1.0
    if np.abs(w.T @ b).max() > 1e-8 * scale_b or np.abs(c @ z).max() > 1e-8 * scale_c:
        raise UnstableClosedLoop(
            "zero modes are coupled to the input or output; no stabilizing solution")
    return shifted, k


def _full_residual(a, b, c, p):
    res = a.T @ p + p @ a - np.outer(p @ b, b @ p) + np.outer(c, c)
    return float(np.linalg.norm(res, "fro"))


def _newton_kleinman(a, b, c, gain, tol, max_iter, keep_iterates):
    q_out = np.outer(c, c)
    iterates = []
    for it in range(1, max_iter + 1):
        p = lyapunov_solve(a - np.outer(b, gain), q_out + np.outer(gain, gain))
        if keep_iterates:
            iterates.append(p)
        gain_next = b @ p
        delta = np.linalg.norm(gain_next - gain)
        gain = gain_next
        if delta <= tol * max(1.0, np.linalg.norm(gain)):
            return p, it, iterates
    raise NoConvergence(f"Newton-Kleinman stalled after {max_iter} iterations")


def _hamiltonian_sign(a, b, c, max_iter):
    m = a.shape[0]
    ham = np.block([
        [a, -np.outer(b, b)],
        [-np.outer(c, c), -a.T],
    ])
    s = matrix_sign(ham, max_iter=max_iter)
    lhs = np.vstack([s[:m, m:], s[m:, m:] + np.eye(m)])
    rhs = -np.vstack([s[:m, :m] + np.eye(m), s[m:, :m]])
    p, *_ = np.linalg.lstsq(lhs, rhs)
    return 0.5 * (p + p.T)


def care_solve(system, method="newton_kleinman", tol=1e-9, alpha0=1.0,
               max_iter=60, keep_iterates=False) -> RiccatiSolution:
    """Minimal nonnegative solution of A^T P + P A - P B B^T P + C^T C = 0.

    ``system`` is a SemiDiscreteSystem, whose structural kernel is
    deflated, or a raw (A, B, C) triple with a single input and single
    output, which is solved as given.  ``alpha0`` scales the initial
    stabilizing gain alpha0 * C (the energy feedback u = -alpha0*Hdot).
    ``method`` is one of ``METHODS``.
    """
    a, b, c, z = _as_matrices(system)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    shifted, kernel_dim = deflate_zero_modes(a, b, c, z)
    gain0 = alpha0 * c

    if method == "newton_kleinman":
        # the first Lyapunov solve rejects a non-stabilizing gain0 itself
        p, iterations, iterates = _newton_kleinman(
            shifted, b, c, gain0, tol, max_iter, keep_iterates)
    else:
        eigs = np.linalg.eigvals(shifted - np.outer(b, gain0))
        if np.any(eigs.real >= 0):
            raise UnstableClosedLoop(
                f"initial feedback is not stabilizing (max Re = {eigs.real.max():.3e})")
        p = _hamiltonian_sign(shifted, b, c, max_iter)
        iterations, iterates = 0, []

    return RiccatiSolution(p, b @ p, _full_residual(a, b, c, p), iterations, method,
                           kernel_dim=kernel_dim, iterates=iterates)


@dataclass
class FeedbackComparison:
    """Closed-loop cost table: the Riccati gain against energy feedbacks."""

    rows: list[dict]
    predicted_optimal: float
    optimal_cost: float
    optimal_is_best: bool

    @property
    def relative_gap(self) -> float:
        if self.predicted_optimal == 0:
            return abs(self.optimal_cost - self.predicted_optimal)
        return abs(self.optimal_cost - self.predicted_optimal) / self.predicted_optimal

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["controller", "J", "predicted", "relative_gap"])
            for row in self.rows:
                gap = self.relative_gap if "predicted" in row else ""
                writer.writerow([row["controller"], row["J"], row.get("predicted", ""), gap])


def compare_feedbacks(system, z0, alpha_grid, riccati: RiccatiSolution,
                      T, dt) -> FeedbackComparison:
    """Simulate the optimal gain against the energy feedbacks u = -alpha*Hdot.

    Every closed loop is marched over the same horizon; costs include
    the fitted tail remainder.  The optimal row also records the
    Riccati-predicted cost <P z0, z0>; its relative gap is the table's.
    """
    grid = system.grid
    z0_vec = z0 if isinstance(z0, np.ndarray) else z0.flatten(grid)

    traj = simulate(system, z0_vec, T, dt, gain=riccati.gain)
    optimal_cost = cost(traj).total
    predicted = riccati.predicted_cost(z0_vec)
    rows = [{"controller": "optimal", "J": optimal_cost, "predicted": predicted}]

    alpha_costs = []
    for alpha in alpha_grid:
        traj = simulate(system, z0_vec, T, dt, gain=alpha * system.C)
        j_alpha = cost(traj).total
        alpha_costs.append(j_alpha)
        rows.append({"controller": f"alpha={alpha:g}", "J": j_alpha})

    best = optimal_cost <= min(alpha_costs, default=np.inf) * (1.0 + 1e-6) + 1e-12
    return FeedbackComparison(rows, predicted, optimal_cost, best)
