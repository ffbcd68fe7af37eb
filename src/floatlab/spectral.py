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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLambda, ExcludedLambda, RootFindingFailure

#: Relative tolerance for membership in the branch-cut set (circle/half-line).
MEMBERSHIP_RTOL = 1e-9


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


@dataclass(frozen=True)
class SectorTheta:
    """A sector arg(lambda) in (-pi/2 - theta, pi/2 + theta) with a radius floor.

    ``radius_threshold`` is the sampled stand-in for the (unquantified)
    radius beyond which the sector bounds are asserted; by default the
    explicit constant 4/(mu*(1 - sin(theta))) is used.
    """

    theta: float
    radius_threshold: float

    def __post_init__(self):
        if not 0 <= self.theta < math.pi / 2:
            raise ValueError(f"theta must lie in [0, pi/2), got {self.theta}")
        if not self.radius_threshold > 0:
            raise ValueError("radius_threshold must be positive")

    @classmethod
    def with_default_radius(cls, theta, params):
        return cls(theta, 4.0 / (params.mu * (1.0 - math.sin(theta))))

    def contains(self, lam: complex) -> bool:
        # closed sector: the bounds extend to the boundary rays by continuity
        return abs(cmath.phase(lam)) <= math.pi / 2 + self.theta


@dataclass(frozen=True)
class SingularSet:
    """Isolated points where the 2x2 boundary-trace matrix is singular."""

    roots: tuple[complex, ...]
    residuals: tuple[float, ...] = field(default=())

    def __len__(self):
        return len(self.roots)


def _ratio(lam: complex, params: PhysicalParams) -> complex:
    return lam * lam / (1.0 + params.mu * lam)


def branch_cut_characterizations(lam, params, rtol=MEMBERSHIP_RTOL):
    """Both membership tests for the square-root branch-cut set.

    Returns ``(geometric, ratio_sign)`` where

    * ``geometric`` is true iff lambda lies (within ``rtol``, relative to
      the scale 1/mu) on the open half-line (-inf, -1/mu) or on the
      circle |lambda + 1/mu| = 1/mu;
    * ``ratio_sign`` is true iff lambda^2/(1 + mu*lambda) is negative
      real within the same relative tolerance.

    The two characterizations are equivalent in exact arithmetic; away
    from the tolerance boundary they agree in floating point as well.
    """
    mu = params.mu
    scale = 1.0 / mu
    if lam == 0 or lam == -scale:
        raise DegenerateLambda(f"lambda={lam} is a degenerate point")

    on_halfline = abs(lam.imag) <= rtol * max(abs(lam), scale) and lam.real < -scale
    on_circle = abs(abs(lam + scale) - scale) <= rtol * scale
    geometric = on_halfline or on_circle

    z = _ratio(lam, params)
    ratio_sign = z.real < 0 and abs(z.imag) <= rtol * abs(z)
    return geometric, ratio_sign


def on_branch_cut(lam, params, rtol=MEMBERSHIP_RTOL) -> bool:
    """True iff lambda belongs to the branch-cut set of the square root.

    The set consists of the half-line (-inf, -1/mu) and the circle
    |lambda + 1/mu| = 1/mu; on it lambda^2/(1 + mu*lambda) is negative
    real and the principal square root has no positive real part.
    Raises DegenerateLambda for lambda in {0, -1/mu}.
    """
    geometric, _ = branch_cut_characterizations(lam, params, rtol)
    return geometric


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


def boundary_system_matrix(lam, params) -> np.ndarray:
    """Symmetric 2x2 matrix of the boundary-trace system at frequency lambda.

    Solving the resolvent reduces, after eliminating the half-line
    Helmholtz problems, to a 2x2 linear system for the fluxes at -a and
    +a; this is its matrix.  Diagonal entries read

        lambda*(1 + 8a^3/3) + 2a*(mu + 1/lambda) + 4a^2*lambda/omega,

    and off-diagonal entries -lambda*(1 - 4a^3/3) - 2a*(mu + 1/lambda).
    """
    lam = complex(lam)
    omega = helmholtz_omega(lam, params)
    a = params.a
    a3 = a**3
    diag = lam * (1.0 + 8.0 * a3 / 3.0) + 2.0 * a * (params.mu + 1.0 / lam) \
        + 4.0 * a * a * lam / omega
    off = -lam * (1.0 - 4.0 * a3 / 3.0) - 2.0 * a * (params.mu + 1.0 / lam)
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


def singular_points(params, det_tol=1e-8) -> SingularSet:
    """All frequencies at which the boundary-trace matrix is singular.

    Solves the quartic via companion-matrix eigenvalues, then keeps only
    roots that avoid the branch-cut set, have nonpositive real part and
    pass the direct determinant check |det| < ``det_tol``.  At most four
    roots can survive.
    """
    coeffs = singular_quartic_coefficients(params)
    if not np.all(np.isfinite(coeffs)):
        raise RootFindingFailure("quartic coefficients are not finite")
    candidates = np.roots(coeffs)
    if not np.all(np.isfinite(candidates)):
        raise RootFindingFailure("companion-matrix eigenvalues did not converge")

    roots, residuals = [], []
    for lam in candidates:
        lam = complex(lam)
        try:
            if on_branch_cut(lam, params):
                continue
        except DegenerateLambda:
            continue
        if lam.real > 0:
            continue
        res = abs(np.linalg.det(boundary_system_matrix(lam, params)))
        if res < det_tol:
            roots.append(lam)
            residuals.append(res)
    return SingularSet(tuple(roots), tuple(residuals))


def spectrum_distance(lam, params, singular: SingularSet | None = None) -> float:
    """Euclidean distance from lambda to the spectrum set.

    The set is the union of {0}, the singular points, the half-line
    (-inf, -1/mu] and the circle |lambda + 1/mu| = 1/mu restricted to
    the left half-plane (its only closure point with Re >= 0 is 0,
    already included).
    """
    lam = complex(lam)
    mu = params.mu
    dists = [abs(lam)]
    if singular is not None:
        dists.extend(abs(lam - s) for s in singular.roots)
    # half-line (-inf, -1/mu]
    if lam.real <= -1.0 / mu:
        dists.append(abs(lam.imag))
    else:
        dists.append(abs(lam + 1.0 / mu))
    # circle of radius 1/mu centred at -1/mu
    dists.append(abs(abs(lam + 1.0 / mu) - 1.0 / mu))
    return min(dists)


def sector_grid(sector: SectorTheta, n_angles=64, n_radii=40, radius_max=1e6,
                radius_min=None) -> np.ndarray:
    """Log-radial sampling grid of a sector, endpoints of the arc excluded.

    Radii run logarithmically from ``radius_min`` (default: the sector's
    radius threshold) to ``radius_max``; angles stay strictly inside the
    open sector.
    """
    if radius_min is None:
        radius_min = sector.radius_threshold
    half_open = math.pi / 2 + sector.theta
    pad = half_open / (n_angles + 1)
    angles = np.linspace(-half_open + pad, half_open - pad, n_angles)
    radii = np.logspace(math.log10(radius_min), math.log10(radius_max), n_radii)
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


@dataclass
class SweepReport:
    """Result of a sampled verification sweep over the complex plane.

    ``samples`` holds one record per lambda; ``bound`` and ``value`` are
    the headline threshold and measured quantity of the sweep; ``passed``
    is the overall verdict.
    """

    samples: list[dict]
    bound: float
    value: float
    passed: bool


def sector_decay_bound_check(lambdas, params, sector: SectorTheta) -> SweepReport:
    """Verify Re(omega) >= (1/4)*sqrt(|lambda|*(1-sin(theta))/mu) on samples.

    Samples outside the sector or below the radius threshold are skipped
    and recorded as such; the sweep passes iff every retained sample
    satisfies the bound.
    """
    mu = params.mu
    sin_t = math.sin(sector.theta)
    floor = 4.0 / (mu * (1.0 - sin_t))
    samples = []
    worst = math.inf
    all_ok = True
    for lam in np.atleast_1d(np.asarray(lambdas, dtype=complex)):
        lam = complex(lam)
        rec = {"re_lambda": lam.real, "im_lambda": lam.imag}
        if not sector.contains(lam) or abs(lam) < floor:
            rec.update(re_omega=math.nan, bound=math.nan, skipped=True, **{"pass": True})
            samples.append(rec)
            continue
        omega = helmholtz_omega(lam, params)
        bound = 0.25 * math.sqrt(abs(lam) * (1.0 - sin_t) / mu)
        ok = omega.real >= bound
        worst = min(worst, omega.real - bound)
        all_ok = all_ok and ok
        rec.update(re_omega=omega.real, bound=bound, **{"pass": ok}, skipped=False)
        samples.append(rec)
    if not math.isfinite(worst):
        worst = 0.0  # vacuous sweep: nothing retained
    return SweepReport(samples, bound=0.0, value=worst, passed=all_ok)


def sector_boundary_matrix_bound_check(lambdas, params, sector: SectorTheta,
                                       trend_tol=1.1) -> SweepReport:
    """Empirical boundedness of ||lambda * M_lambda^{-1}|| over a sector.

    Records the spectral norm per sample and compares the supremum over
    the outer half of the radii against the inner half: a trend ratio
    <= ``trend_tol`` indicates the quantity stays bounded as |lambda|
    grows.  Samples where the matrix is numerically singular are
    excluded and flagged.
    """
    retained = []
    samples = []
    for lam in np.atleast_1d(np.asarray(lambdas, dtype=complex)):
        lam = complex(lam)
        rec = {"re_lambda": lam.real, "im_lambda": lam.imag}
        if not sector.contains(lam) or abs(lam) < sector.radius_threshold:
            rec.update(re_omega=math.nan, bound=math.nan, skipped=True, **{"pass": True})
            samples.append(rec)
            continue
        omega = helmholtz_omega(lam, params)
        m = boundary_system_matrix(lam, params)
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            rec.update(re_omega=omega.real, bound=math.nan, skipped=True,
                       singular=True, **{"pass": True})
            samples.append(rec)
            continue
        norm = float(np.linalg.norm(lam * inv, 2))
        if not np.isfinite(norm) or norm > 1e14:
            rec.update(re_omega=omega.real, bound=math.nan, skipped=True,
                       singular=True, **{"pass": True})
            samples.append(rec)
            continue
        retained.append((abs(lam), norm))
        rec.update(re_omega=omega.real, bound=norm, **{"pass": True}, skipped=False)
        samples.append(rec)

    if not retained:
        return SweepReport(samples, bound=trend_tol, value=1.0, passed=True)
    retained.sort(key=lambda t: t[0])
    if len(retained) == 1:
        ratio = 1.0
    else:
        half = len(retained) // 2
        sup_inner = max(norm for _, norm in retained[:half])
        sup_outer = max(norm for _, norm in retained[half:])
        ratio = sup_outer / sup_inner
    passed = ratio <= trend_tol
    for rec in samples:
        if not rec.get("skipped", False):
            rec["pass"] = passed
    return SweepReport(samples, bound=trend_tol, value=ratio, passed=passed)


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
