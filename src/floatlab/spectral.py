"""Closed-form complex-plane objects of the floating-solid model.

Everything in this module is an explicit formula in the two physical
parameters: the solid half-width ``a`` and the viscosity ``mu``.  The
central quantity is the principal square root

    omega(lambda) = sqrt(lambda^2 / (1 + mu*lambda)),

which is well defined (with positive real part) exactly when the ratio
avoids the negative real axis.  The set where it fails -- the half-line
(-inf, -1/mu) together with the circle |lambda + 1/mu| = 1/mu -- is the
skeleton of the essential spectrum of the evolution operator, and the
2x2 boundary-trace matrices built from omega control where the resolvent
can be assembled.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLambda, ExcludedLambda, RootFindingFailure

#: Relative tolerance for membership in the branch-cut set (circle/half-line).
MEMBERSHIP_RTOL = 1e-9
#: |det| of the boundary-trace matrix below which a quartic root is a singular point.
SINGULAR_DET_TOL = 1e-8


@dataclass(frozen=True)
class PhysicalParams:
    """The two parameters every formula depends on.

    a : solid half-width (the wetted region is [-a, a])
    mu : viscosity coefficient
    """

    a: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"half-width a must be positive, got {self.a}")
        if not self.mu > 0:
            raise ValueError(f"viscosity mu must be positive, got {self.mu}")


def _ratio(lam: complex, params: PhysicalParams) -> complex:
    return lam * lam / (1.0 + params.mu * lam)


def on_branch_cut(lam, params) -> bool:
    """True iff lambda belongs to the branch-cut set of the square root.

    The set consists of the half-line (-inf, -1/mu) and the circle
    |lambda + 1/mu| = 1/mu, each within ``MEMBERSHIP_RTOL`` relative to
    the scale 1/mu (to max(|lambda|, 1/mu) on the half-line); on it
    lambda^2/(1 + mu*lambda) is negative real and the principal square
    root has no positive real part.
    Raises DegenerateLambda for lambda in {0, -1/mu}.
    """
    scale = 1.0 / params.mu
    if lam == 0 or lam == -scale:
        raise DegenerateLambda(f"lambda={lam} is a degenerate point")
    on_halfline = (abs(lam.imag) <= MEMBERSHIP_RTOL * max(abs(lam), scale)
                   and lam.real < -scale)
    return on_halfline or abs(abs(lam + scale) - scale) <= MEMBERSHIP_RTOL * scale


def helmholtz_omega(lam, params) -> complex:
    """Principal square root of lambda^2 / (1 + mu*lambda).

    This is the decay/oscillation rate of the half-line Helmholtz modes
    exp(-omega*|x|); it has strictly positive real part for every lambda
    off the branch-cut set.
    """
    lam = complex(lam)
    if lam == 0 or lam == -1.0 / params.mu:
        raise DegenerateLambda(f"lambda={lam} is a degenerate point")
    if on_branch_cut(lam, params):
        raise ExcludedLambda(
            f"lambda={lam} lies on the branch-cut set (half-line or circle)"
        )
    return cmath.sqrt(_ratio(lam, params))


def coupling_matrix(params) -> np.ndarray:
    """Symmetric 2x2 matrix coupling the solid to its two boundary fluxes."""
    a = params.a
    a3 = a**3
    pref = 1.0 / (8.0 * a3 * (1.0 + 2.0 * a3 / 3.0))
    diag = 1.0 + 8.0 * a3 / 3.0
    off = 1.0 - 4.0 * a3 / 3.0
    return pref * np.array([[diag, off], [off, diag]])


def coupling_matrix_inverse(params) -> np.ndarray:
    """Closed-form inverse of :func:`coupling_matrix`."""
    a3 = params.a**3
    diag = 1.0 + 8.0 * a3 / 3.0
    off = -(1.0 - 4.0 * a3 / 3.0)
    return np.array([[diag, off], [off, diag]])


def boundary_system_entries(lam, omega, params):
    """Diagonal and off-diagonal entry of the boundary-trace matrix, elementwise.

    diag = lambda*(1 + 8a^3/3) + 2a*(mu + 1/lambda) + 4a^2*lambda/omega,
    off = -lambda*(1 - 4a^3/3) - 2a*(mu + 1/lambda).
    """
    a = params.a
    a3 = a**3
    diag = lam * (1.0 + 8.0 * a3 / 3.0) + 2.0 * a * (params.mu + 1.0 / lam) \
        + 4.0 * a * a * lam / omega
    off = -lam * (1.0 - 4.0 * a3 / 3.0) - 2.0 * a * (params.mu + 1.0 / lam)
    return diag, off


def boundary_system_matrix(lam, params) -> np.ndarray:
    """Symmetric 2x2 matrix of the boundary-trace system at frequency lambda.

    Solving the resolvent reduces, after eliminating the half-line
    Helmholtz problems, to this 2x2 linear system for the fluxes at -a, +a.
    """
    lam = complex(lam)
    diag, off = boundary_system_entries(lam, helmholtz_omega(lam, params), params)
    return np.array([[diag, off], [off, diag]])


def boundary_system_matrix_feedback(lam, params) -> np.ndarray:
    """Boundary-trace matrix of the closed loop under the energy feedback.

    The feedback u = -Hdot adds 1/(2a) to the damping inside the diagonal
    term, which shifts each diagonal entry by exactly 2a * 1/(2a) = 1.
    """
    m = boundary_system_matrix(lam, params)
    return m + np.eye(2)


def singular_quartic_coefficients(params) -> np.ndarray:
    """Degree-4 polynomial whose roots contain every singular frequency.

    Setting the determinant of the boundary-trace matrix to zero and
    squaring away the square root yields a quartic in lambda; squaring
    can introduce spurious roots, so candidates must be re-checked
    against the determinant directly.
    Coefficients are returned highest degree first.
    """
    a, mu = params.a, params.mu
    b = 2.0 + 4.0 * a**3 / 3.0
    return np.array([
        b * b,
        8.0 * a * mu * (b - 2.0 * a**3),
        16.0 * a**2 * mu**2 + 8.0 * a * b - 16.0 * a**4,
        32.0 * a**2 * mu,
        16.0 * a**2,
    ])


def singular_points(params) -> tuple[complex, ...]:
    """All frequencies at which the boundary-trace matrix is singular.

    Solves the quartic via companion-matrix eigenvalues, then keeps only
    roots that avoid the branch-cut set, have nonpositive real part and
    pass the direct determinant check |det| < ``SINGULAR_DET_TOL``.  At
    most four roots can survive.
    """
    coeffs = singular_quartic_coefficients(params)
    if not np.all(np.isfinite(coeffs)):
        raise RootFindingFailure("quartic coefficients are not finite")
    candidates = np.roots(coeffs)
    if not np.all(np.isfinite(candidates)):
        raise RootFindingFailure("companion-matrix eigenvalues did not converge")

    roots = []
    for lam in candidates:
        lam = complex(lam)
        try:
            if on_branch_cut(lam, params):
                continue
        except DegenerateLambda:
            continue
        if lam.real > 0:
            continue
        if abs(np.linalg.det(boundary_system_matrix(lam, params))) < SINGULAR_DET_TOL:
            roots.append(lam)
    return tuple(roots)


def spectrum_distance(lam, params, singular=()):
    """Euclidean distance from lambda to the spectrum set, elementwise.

    The set is the union of {0}, the ``singular`` points (a tuple from
    :func:`singular_points`; none by default), the half-line
    (-inf, -1/mu] and the circle |lambda + 1/mu| = 1/mu restricted to
    the left half-plane (its only closure point with Re >= 0 is 0,
    already included).  A scalar lambda gives a float, an array an
    array.  Moduli are np.hypot of the real and imaginary parts, which
    rounds as Python's abs(complex) does; numpy's complex abs does not.
    """
    lam = np.asarray(lam, dtype=complex)
    re, im = lam.real, lam.imag
    scale = 1.0 / params.mu
    shifted = np.hypot(re + scale, im)
    # half-line (-inf, -1/mu]
    dist = np.minimum(np.hypot(re, im), np.where(re <= -scale, np.abs(im), shifted))
    for s in singular:
        dist = np.minimum(dist, np.hypot(re - s.real, im - s.imag))
    # circle of radius 1/mu centred at -1/mu
    dist = np.minimum(dist, np.abs(shifted - scale))
    return float(dist) if dist.ndim == 0 else dist


def boundary_system_determinant(lam, params) -> complex:
    """Closed-form determinant of the boundary-trace matrix.

    det = 4a^2*lambda*(a + 1/omega) *
          [lambda*(2 + 4a^3/3) + 4a*(mu + 1/lambda) + 4a^2*lambda/omega].
    Used as an independent cross-check of the assembled matrix.
    """
    lam = complex(lam)
    omega = helmholtz_omega(lam, params)
    a, mu = params.a, params.mu
    bracket = lam * (2.0 + 4.0 * a**3 / 3.0) + 4.0 * a * (mu + 1.0 / lam) \
        + 4.0 * a * a * lam / omega
    return 4.0 * a * a * lam * (a + 1.0 / omega) * bracket
