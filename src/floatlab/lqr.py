"""Algebraic Riccati solution and optimal feedback for the discretized model.

The semi-discrete generator has a small structural kernel (the conserved
rest mode plus the collocated-stencil comb modes); those directions are
invisible to both the input column and the output row, so the Riccati
problem is solved on the complementary invariant subspace, where the
closed loop under the energy feedback is strictly Hurwitz, and lifted
back.  The lifted solution satisfies the full-dimension Riccati equation
and annihilates the kernel directions, which is exactly the minimal
nonnegative solution: trajectories that never produce output cost
nothing.

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

_KERNEL_RCOND = 1e-10


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
    if isinstance(system, SemiDiscreteSystem):
        return system.A, system.B, system.C
    a, b, c = system
    return (np.atleast_2d(np.asarray(a, dtype=float)),
            np.asarray(b, dtype=float).reshape(-1),
            np.asarray(c, dtype=float).reshape(-1))


def deflate_zero_modes(a, b, c, rcond=_KERNEL_RCOND):
    """Split off the kernel of the generator, returning the reduced triple.

    Returns (ar, br, cr, basis, projector) where ``basis`` has
    orthonormal columns spanning the invariant complement of the kernel
    and ``projector`` is the oblique projection onto it along the
    kernel.  Requires the kernel to be invisible to input and output
    (it is, structurally, for the discretized model); anything else is
    reported as UnstableClosedLoop since no stabilizing solution can
    exist then.
    """
    n = a.shape[0]
    w = sla.null_space(a.T, rcond=rcond)
    z = sla.null_space(a, rcond=rcond)
    k = w.shape[1]
    if k == 0:
        return a, b, c, np.eye(n), np.eye(n)
    if z.shape[1] != k:
        raise UnstableClosedLoop("generator kernel is defective; cannot deflate")
    scale_b = np.linalg.norm(b) or 1.0
    scale_c = np.linalg.norm(c) or 1.0
    if np.abs(w.T @ b).max() > 1e-8 * scale_b or np.abs(c @ z).max() > 1e-8 * scale_c:
        raise UnstableClosedLoop(
            "zero modes are coupled to the input or output; no stabilizing solution")
    basis = sla.qr(w, mode="full")[0][:, k:]  # orthonormal basis of {w^T x = 0}
    projector = np.eye(n) - z @ np.linalg.solve(w.T @ z, w.T)
    return basis.T @ a @ basis, basis.T @ b, c @ basis, basis, projector


def _lift(p_red, basis, projector):
    vp = basis @ p_red @ basis.T
    p = projector.T @ vp @ projector
    return 0.5 * (p + p.T)


def _full_residual(a, b, c, p):
    res = a.T @ p + p @ a - np.outer(p @ b, b @ p) + np.outer(c, c)
    return float(np.linalg.norm(res, "fro"))


def _newton_kleinman(ar, br, cr, tol, alpha0, max_iter, keep_iterates):
    gain = alpha0 * cr
    eigs = np.linalg.eigvals(ar - np.outer(br, gain))
    if np.any(eigs.real >= 0):
        raise UnstableClosedLoop(
            f"initial feedback is not stabilizing (max Re = {eigs.real.max():.3e})")
    q_out = np.outer(cr, cr)
    iterates = []
    p = None
    for it in range(1, max_iter + 1):
        acl = ar - np.outer(br, gain)
        p = lyapunov_solve(acl, q_out + np.outer(gain, gain))
        if keep_iterates:
            iterates.append(p)
        gain_next = br @ p
        delta = np.linalg.norm(gain_next - gain)
        gain = gain_next
        if delta <= tol * max(1.0, np.linalg.norm(gain)):
            return p, it, iterates
    raise NoConvergence(f"Newton-Kleinman stalled after {max_iter} iterations")


def _hamiltonian_sign(ar, br, cr, max_iter):
    m = ar.shape[0]
    ham = np.block([
        [ar, -np.outer(br, br)],
        [-np.outer(cr, cr), -ar.T],
    ])
    s = matrix_sign(ham, max_iter=max_iter)
    lhs = np.vstack([s[:m, m:], s[m:, m:] + np.eye(m)])
    rhs = -np.vstack([s[:m, :m] + np.eye(m), s[m:, :m]])
    p, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return 0.5 * (p + p.T)


def care_solve(system, method="newton_kleinman", tol=1e-9, alpha0=1.0,
               max_iter=60, keep_iterates=False) -> RiccatiSolution:
    """Minimal nonnegative solution of A^T P + P A - P B B^T P + C^T C = 0.

    ``system`` is a SemiDiscreteSystem or a raw (A, B, C) triple with a
    single input and single output.  ``alpha0`` scales the initial
    stabilizing gain alpha0 * C (the energy feedback u = -alpha0*Hdot).
    ``method`` selects "newton_kleinman" or "hamiltonian_sign".
    """
    a, b, c = _as_matrices(system)
    ar, br, cr, basis, projector = deflate_zero_modes(a, b, c)
    kernel_dim = a.shape[0] - ar.shape[0]

    if method == "newton_kleinman":
        p_red, iterations, iterates = _newton_kleinman(
            ar, br, cr, tol, alpha0, max_iter, keep_iterates)
    elif method == "hamiltonian_sign":
        eigs = np.linalg.eigvals(ar - np.outer(br, alpha0 * cr))
        if np.any(eigs.real >= 0):
            raise UnstableClosedLoop(
                f"initial feedback is not stabilizing (max Re = {eigs.real.max():.3e})")
        p_red = _hamiltonian_sign(ar, br, cr, max_iter)
        iterations, iterates = 0, []
    else:
        raise ValueError(f"unknown method {method!r}")

    p = _lift(p_red, basis, projector)
    gain = b @ p
    residual = _full_residual(a, b, c, p)
    lifted = [_lift(pi, basis, projector) for pi in iterates] if keep_iterates else []
    return RiccatiSolution(p, gain, residual, iterations, method,
                           kernel_dim=kernel_dim, iterates=lifted)


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
                writer.writerow([row["controller"], row["J"],
                                 row.get("predicted", ""), row.get("relative_gap", "")])


def compare_feedbacks(system, z0, alpha_grid, riccati: RiccatiSolution,
                      T, dt) -> FeedbackComparison:
    """Simulate the optimal gain against the energy feedbacks u = -alpha*Hdot.

    Every closed loop is marched over the same horizon; costs include
    the fitted tail remainder.  The optimal row also records the
    Riccati-predicted cost <P z0, z0> and the relative gap.
    """
    grid = system.grid
    z0_vec = z0 if isinstance(z0, np.ndarray) else z0.flatten(grid)

    rows = []
    traj = simulate(system, z0_vec, T, dt, gain=riccati.gain)
    optimal_cost = cost(traj).total
    predicted = riccati.predicted_cost(z0_vec)
    gap = abs(optimal_cost - predicted) / predicted if predicted else 0.0
    rows.append({"controller": "optimal", "J": optimal_cost,
                 "predicted": predicted, "relative_gap": gap})

    alpha_costs = []
    for alpha in alpha_grid:
        traj = simulate(system, z0_vec, T, dt, gain=alpha * system.C)
        j_alpha = cost(traj).total
        alpha_costs.append(j_alpha)
        rows.append({"controller": f"alpha={alpha:g}", "J": j_alpha})

    best = optimal_cost <= min(alpha_costs, default=np.inf) * (1.0 + 1e-6) + 1e-12
    return FeedbackComparison(rows, predicted, optimal_cost, best)
