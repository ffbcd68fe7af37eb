"""Algebraic Riccati solution and optimal feedback for the discretized model.

The semi-discrete generator has a small structural kernel (the conserved
rest mode plus the collocated-stencil comb modes); those directions are
invisible to both the input column and the output row.  The kernel is
data of the system (``SemiDiscreteSystem.kernel``), written down in
closed form by whoever builds it, not found by a numerical rank test.
With Z that orthonormal basis, the Riccati equation is solved on the
shifted generator A - Z Z^T, which keeps the rest of A's spectrum and
moves the kernel eigenvalues to -1 (Brauer's deflation), so the closed
loop under the energy feedback is strictly Hurwitz.  The shifted cost of
any state in span Z is zero, so the solution annihilates the kernel, and
then it also satisfies the original equation: it is the minimal
nonnegative solution, under which trajectories that never produce output
cost nothing.

Every dense solve runs on half the state.  The geometry is symmetric
about the solid's axis: under the mirror x -> -x (h(x) -> h(-x),
q(x) -> -q(-x), H fixed) the input column and the output row are even
and A commutes with the mirror.  So the odd states are neither driven
nor observed, and an odd state never feeds the even ones: the minimal
solution vanishes on them, and with Q_e an orthonormal basis of the even
states it is P = Q_e P_e Q_e^T, P_e solving the Riccati equation of
(Q_e^T A Q_e, Q_e^T B, C Q_e), of dimension 2n against 4n - 1.  Of the
three kernel modes only the rest mode and the sum of the combs are even,
and the even half carries those two as its own kernel.  The split is
checked before each solve (``SemiDiscreteSystem.mirror_halves``); a
system built by hand has no mirror and is its own even half.

Two independent solvers are provided and cross-checked: Newton-Kleinman
(a sequence of Lyapunov equations from a stabilizing gain) and the
matrix-sign iteration on the Hamiltonian block matrix H, which
``linalg.matrix_sign`` runs on the symmetric W = J H with an L D L^T
factorisation a step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .discretization import SemiDiscreteSystem
from .dynamics import feedback_costs, state_vector
from .errors import NoConvergence, SingularMatrix, UnstableClosedLoop
from .linalg import matrix_sign

METHODS = ("newton_kleinman", "hamiltonian_sign")
#: Weights of the feedbacks u = -alpha*Hdot that the ``lqr`` verb and suite set against P.
COMPARISON_ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)
#: Horizon of that comparison's march; z(T)^T P z(T) prices the rest.
COMPARISON_HORIZON = 240.0
#: Most Newton-Kleinman or sign-iteration steps of one Riccati solve.
MAX_ITER = 60


def lyapunov_solve(acl, q):
    """Solve acl^T X + X acl + q = 0 by Bartels-Stewart in real arithmetic.

    ``acl`` must be Hurwitz; ``q`` symmetric.  The matrix is reduced to
    real Schur form T = U^T acl U and the transformed Sylvester equation
    T^T Y + Y T = -U^T q U is solved by LAPACK's trsyl.
    """
    import scipy.linalg as sla  # not at module level: see the package docstring
    from scipy.linalg.lapack import dtrsyl

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
    """Nonnegative Riccati solution with its gain and diagnostics.

    ``iterations`` counts Newton-Kleinman steps or sign-iteration steps,
    whichever ``method`` ran.
    """

    P: np.ndarray
    gain: np.ndarray
    residual: float
    iterations: int
    method: str
    iterates: list = field(default_factory=list, repr=False)

    def predicted_cost(self, z0) -> float:
        return float(z0 @ self.P @ z0)


def deflate_zero_modes(system: SemiDiscreteSystem):
    """Move the kernel of the generator to -1, returning A - Z Z^T.

    Z is ``system.kernel``, an orthonormal basis (dim x k) of ker A; with
    A Z = 0 the shift maps each column of Z to its negative and keeps the
    rest of the spectrum.  The left kernel of A is then (A - Z Z^T)^-T Z,
    found by one dense solve.  The kernel must be invisible to input and
    output (it is, structurally, for the discretized model); anything
    else is reported as UnstableClosedLoop since no stabilizing solution
    can exist then.
    """
    a, b, c, z = system.A, system.B, system.C, system.kernel
    if z.shape[1] == 0:
        return a
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
    return shifted


def _full_residual(a, b, c, p):
    # A^T P + P A = S^T + S with S = P A, since P is symmetric: one dim^3 product
    s = p @ a
    res = s + s.T - np.outer(p @ b, b @ p) + np.outer(c, c)
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
    import scipy.linalg as sla

    m = a.shape[0]
    ham = np.block([
        [a, -np.outer(b, b)],
        [-np.outer(c, c), -a.T],
    ])
    s, steps = matrix_sign(ham, max_iter)
    lhs = np.vstack([s[:m, m:], s[m:, m:] + np.eye(m)])
    rhs = -np.vstack([s[:m, :m] + np.eye(m), s[m:, :m]])
    # least squares on the full-column-rank (2m, m) system by a thin QR
    q, r = sla.qr(lhs, mode="economic")
    p = sla.solve_triangular(r, q.T @ rhs)
    return 0.5 * (p + p.T), steps


def care_solve(system: SemiDiscreteSystem, method="newton_kleinman", tol=1e-9, alpha0=1.0,
               keep_iterates=False) -> RiccatiSolution:
    """Minimal nonnegative solution of A^T P + P A - P B B^T P + C^T C = 0.

    The equation is solved on the mirror-even half of ``system``
    (``SemiDiscreteSystem.mirror_halves``, which checks the split), after
    deflating that half's kernel; a system built by hand without a grid
    is its own even half.  P = Q_e P_e Q_e^T and the kept iterates are
    lifted back to the full state; the residual is that of the full
    equation.  ``alpha0`` scales the initial stabilizing gain alpha0 * C
    (the energy feedback u = -alpha0*Hdot).  ``method`` is one of
    ``METHODS``.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    even, _ = system.mirror_halves
    basis = system.mirror_bases[0]
    b, c = even.B, even.C
    shifted = deflate_zero_modes(even)
    gain0 = alpha0 * c

    if method == "newton_kleinman":
        # the first Lyapunov solve rejects a non-stabilizing gain0 itself
        p, iterations, iterates = _newton_kleinman(
            shifted, b, c, gain0, tol, MAX_ITER, keep_iterates)
    else:
        eigs = np.linalg.eigvals(shifted - np.outer(b, gain0))
        if np.any(eigs.real >= 0):
            raise UnstableClosedLoop(
                f"initial feedback is not stabilizing (max Re = {eigs.real.max():.3e})")
        p, iterations = _hamiltonian_sign(shifted, b, c, MAX_ITER)
        iterates = []

    def lift(x):  # Q_e x Q_e^T, with X Q_e^T = (Q_e X^T)^T
        x = basis.lift(basis.lift(x).T).T
        return 0.5 * (x + x.T)

    p = lift(p)
    return RiccatiSolution(p, system.B @ p, _full_residual(system.A, system.B, system.C, p),
                           iterations, method, iterates=[lift(x) for x in iterates])


@dataclass
class FeedbackComparison:
    """Closed-loop cost table: the Riccati gain against energy feedbacks.

    Each row's J is the cost over [0, T] plus z(T)^T P z(T), the Riccati
    price of the state left at the horizon.  P is the minimal cost-to-go,
    so J is the exact infinite-horizon cost of the optimal row (up to the
    time step's error) and a lower bound, nondecreasing in T, for every
    other row.  The first row is the optimal one, which ``optimal_cost``
    and ``predicted_optimal`` read; ``tail_exact`` is its z(T)^T P z(T).
    """

    rows: list[dict]
    optimal_is_best: bool
    tail_exact: float

    @property
    def optimal_cost(self) -> float:
        return self.rows[0]["J"]

    @property
    def predicted_optimal(self) -> float:
        return self.rows[0]["predicted"]

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
                      T, dt, scheme) -> FeedbackComparison:
    """Simulate the optimal gain against the energy feedbacks u = -alpha*Hdot.

    All the closed loops march together over the same horizon with the
    time-stepping ``scheme``, on a single factorisation and 64 steps per
    dense product (``feedback_costs``), and keep only the
    running cost; each J adds z(T)^T P z(T).  Every gain is mirror-even,
    so u, Hdot and z(T)^T P z(T) depend only on the even part Q_e^T z0,
    and the loops march on the even half of ``system``.  The optimal row
    also records the Riccati-predicted cost <P z0, z0>; its relative gap
    is the table's.  The optimal row is best when its exact cost is within
    1e-6 relative (plus 1e-12) of the least lower bound of the energy rows.
    """
    even, _ = system.mirror_halves
    basis = system.mirror_bases[0]
    z0 = state_vector(system, z0)
    gains = np.vstack([basis.restrict(riccati.gain)] + [alpha * even.C for alpha in alpha_grid])
    horizon, z_end = feedback_costs(even, basis.restrict(z0), gains, T, dt, scheme)
    tails = np.vecdot(z_end, basis.restrict(basis.restrict(riccati.P).T).T @ z_end, axis=0)
    costs = horizon + tails
    predicted = riccati.predicted_cost(z0)
    rows = [{"controller": "optimal", "J": float(costs[0]), "predicted": predicted}]
    rows += [{"controller": f"alpha={alpha:g}", "J": float(j)}
             for alpha, j in zip(alpha_grid, costs[1:])]
    best = bool(costs[0] <= costs[1:].min(initial=np.inf) * (1.0 + 1e-6) + 1e-12)
    return FeedbackComparison(rows, best, float(tails[0]))
