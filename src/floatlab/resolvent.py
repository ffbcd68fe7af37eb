"""Half-line Helmholtz operators and the analytic resolvent of the model.

On each exterior side of the solid the resolvent equation collapses to

    -q'' + omega^2 q = phi,    q(boundary) = gamma,    q decaying,

whose solution splits into a pure exponential carrying the boundary
value and a particular part given by three exponential-kernel integrals.
Everything here is evaluated on a truncated uniform grid [a, L]
(mirrored on the left) by composite trapezoid quadrature; the kernels
are kept in scaled form exp(omega*(xi - x)) with nonpositive exponent so
that no intermediate overflows, and the tail beyond L is dropped (the
source is taken to vanish there).

The solves run on value arrays (the left side as its mirror on the right,
through reversed views) and wrap only their results, on grids the caller
validated.  The kernel sums work in place with the powers as the left
factor: numpy's vectorised complex multiply rounds differently with the
operands swapped.  The spectrum distance that guards the resolvent takes
np.hypot of the real and imaginary parts: numpy's complex abs does not
round as Python's abs does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonDecayingOmega, SingularMatrix, SpectrumProximity
from .spectral import (
    PhysicalParams,
    boundary_system_matrix,
    coupling_matrix_inverse,
    helmholtz_omega,
    spectrum_distance,
)

_SIDES = ("left", "right")
#: Distance to the spectrum set below which the resolvent is refused.
PROXIMITY_TOL = 1e-6
#: Largest Re(omega) * (x - x0) within one block of the half-line sums:
#: exp(300) is finite, and a grid with Re(omega) (L - a) <= 300 is one block.
_SCAN_EXPONENT = 300


@dataclass(frozen=True)
class HalfLineFunction:
    """Complex nodal values on one exterior side of the solid.

    ``side`` is "left" for a grid increasing over [-L, -a] or "right"
    for [a, L]; the solid boundary is the last node on the left and the
    first node on the right.
    """

    side: str
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.side not in _SIDES:
            raise GridMismatch(f"side must be one of {_SIDES}, got {self.side!r}")
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 2:
            raise GridMismatch("grid must be one-dimensional with >= 2 nodes")
        if not (grid[1:] > grid[:-1]).all():
            raise GridMismatch("grid must be strictly increasing")
        if values.shape != grid.shape:
            raise GridMismatch("values and grid must have matching shapes")

    @property
    def boundary_value(self) -> complex:
        return complex(self.values[-1] if self.side == "left" else self.values[0])

    def l2_norm(self) -> float:
        return float(np.sqrt(np.trapezoid(np.abs(self.values) ** 2, self.grid)))


def _require_decaying(omega):
    omega = complex(omega)
    if not omega.real > 0:
        raise NonDecayingOmega(f"Re(omega) must be positive, got {omega}")
    return omega


def _wrap(side, grid, values) -> HalfLineFunction:
    """A HalfLineFunction on a grid its caller validated, without the checks."""
    f = object.__new__(HalfLineFunction)
    f.__dict__.update(side=side, grid=grid, values=values)
    return f


def _running_sums(g, power, d):
    """out[j] = d*out[j-1] + g[j], out[0] = g[0], with power = [1, d, d^2, ...].

    Within a block of len(power) nodes out = power * cumsum(g / power); the
    last value of a block, times d, carries into the next.  Each block is
    done in place, power the left factor (``block *= p`` rounds otherwise).
    """
    out = np.empty(g.size, dtype=complex)
    carry = 0.0
    for s in range(0, g.size, power.size):
        e = min(s + power.size, g.size)
        p, block = power[:e - s], out[s:e]
        np.divide(g[s:e], p, out=block)
        np.cumsum(block, out=block)
        block += carry
        np.multiply(p, block, out=block)
        carry = d * out[e - 1]
    return out


def _solve(side, omega, grid, gamma, values, derivative=True):
    """Solution and derivative of the half-line problem on a uniform grid.

    On the right, built from the trapezoid cumulants of the two kernels,
        fwd[j] = int_{x0}^{xj} exp(omega*(xi - xj)) * phi(xi) dxi,
        bwd[j] = int_{xj}^{xN} exp(-omega*(xi - xj)) * phi(xi) dxi,
    first-order recurrences with the factor d = exp(-omega*h), whose
    powers d^k are decay[k].  They run in blocks over which Re(omega)
    times the block length is at most ``_SCAN_EXPONENT``, so that every
    power and its reciprocal is finite.  The left side is solved as its
    mirror x -> -x, through reversed views.  dq is None without ``derivative``.
    """
    if side == "left":
        q, dq = _solve("right", omega, -grid[::-1], gamma, values[::-1], derivative)
        return q[::-1], (None if dq is None else (-dq)[::-1])
    steps = np.diff(grid)
    # uniform up to the rounding of the abscissae themselves
    if not np.abs(steps - steps[0]).max() <= 4 * np.finfo(float).eps * np.abs(grid).max():
        raise GridMismatch(f"half-line quadrature needs a uniform grid; steps span "
                           f"[{steps.min():.6g}, {steps.max():.6g}]")
    decay = np.exp(-omega * (grid - grid[0]))
    d = decay[1]
    block = max(1, int(min(grid.size, _SCAN_EXPONENT / (omega.real * steps[0]))))
    power = decay[:block]
    half = 0.5 * steps[0]
    g = np.zeros(grid.size, dtype=complex)
    g[1:] = half * (d * values[:-1] + values[1:])
    fwd = _running_sums(g, power, d)
    rev_vals = values[::-1]
    g[1:] = half * (rev_vals[1:] + d * rev_vals[:-1])
    bwd = _running_sums(g, power, d)[::-1]
    q = (fwd + bwd - decay * bwd[0]) / (2.0 * omega) + gamma * decay
    if not derivative:
        return q, None
    dq = 0.5 * (-fwd + bwd + decay * bwd[0]) - omega * gamma * decay
    return q, dq


def _halfline(side, omega, gamma, phi, derivative):
    """The checked solve behind both public half-line solvers."""
    omega = _require_decaying(omega)
    if phi.side != side:
        raise GridMismatch(f"phi lives on side {phi.side!r}, expected {side!r}")
    q, dq = _solve(side, omega, phi.grid, gamma, phi.values, derivative)
    return _wrap(side, phi.grid, q), dq if dq is None else _wrap(side, phi.grid, dq)


def exponential_extension(side, omega, gamma, grid) -> HalfLineFunction:
    """Extend a boundary value into the half-line as a decaying exponential.

    Right side: gamma * exp(omega*(a - x)); left side: gamma * exp(omega*(a + x)).
    """
    omega = _require_decaying(omega)
    grid = np.asarray(grid, dtype=float)
    boundary = grid[-1] if side == "left" else grid[0]
    dist = np.abs(grid - boundary)
    return HalfLineFunction(side, grid, gamma * np.exp(-omega * dist))


def helmholtz_particular(side, omega, phi: HalfLineFunction) -> HalfLineFunction:
    """Particular solution of -q'' + omega^2 q = phi with zero boundary value.

    Evaluates the three exponential-kernel integrals by composite
    trapezoid quadrature on the grid of ``phi``, which must be uniform
    (GridMismatch otherwise); the result vanishes at the solid boundary
    and decays toward the truncation end.  It is q of
    :func:`helmholtz_halfline_with_derivative` at gamma = 0, bit for bit,
    with the same relative error eps / (|omega| (L - a)) at small omega,
    which only :func:`resolvent_apply` guards, through ``PROXIMITY_TOL``.
    """
    return _halfline(side, omega, 0.0, phi, derivative=False)[0]


def helmholtz_halfline_with_derivative(side, omega, gamma, phi):
    """Solve -q'' + omega^2 q = phi with boundary value gamma, decaying.

    Returns q and dq/dx.  The derivative comes from the closed-form
    differentiated kernel expressions, not from finite differences of
    the solution.  q divides a cancelling sum of the two kernel sums by
    omega, so its relative error grows like eps / (|omega| (L - a)):
    1.35e-12 at Re(omega) h = 1e-4 on a 2-node grid over [1, 20].  Only
    :func:`resolvent_apply` guards against a tiny omega, through
    ``PROXIMITY_TOL``; a direct caller gets what it asks for.
    """
    return _halfline(side, omega, gamma, phi, derivative=True)


@dataclass(frozen=True)
class ResolventInput:
    """Right-hand side of the resolvent equation.

    Components mirror the state layout: a scalar for the solid height
    equation, a pair of nodal functions (with nodal derivatives) for the
    surface-height equations, a pair for the flux equations, and two
    scalars for the boundary-flux equations.
    """

    f1: complex
    f2: tuple[HalfLineFunction, HalfLineFunction]
    f2_prime: tuple[HalfLineFunction, HalfLineFunction]
    f3: tuple[HalfLineFunction, HalfLineFunction]
    f4: complex
    f5: complex

    def __post_init__(self):
        for name in ("f2", "f2_prime", "f3"):
            left, right = getattr(self, name)
            if left.side != "left" or right.side != "right":
                raise GridMismatch(f"{name} must be a (left, right) pair")
        base_l, base_r = self.f2
        for name in ("f2_prime", "f3"):
            left, right = getattr(self, name)
            if left.grid.shape != base_l.grid.shape or \
                    not np.abs(left.grid - base_l.grid).max() <= 1e-12 or \
                    right.grid.shape != base_r.grid.shape or \
                    not np.abs(right.grid - base_r.grid).max() <= 1e-12:
                raise GridMismatch(f"{name} grid differs from the f2 grid")


@dataclass(frozen=True)
class ResolventOutput:
    """Resolvent image: solid height, surface heights, fluxes and traces."""

    H_lambda: complex
    h_lambda: tuple[HalfLineFunction, HalfLineFunction]
    q_lambda: tuple[HalfLineFunction, HalfLineFunction]
    q_minus: complex
    q_plus: complex


def resolvent_apply(lam, params: PhysicalParams, inp: ResolventInput) -> ResolventOutput:
    """Apply the resolvent of the evolution operator to a right-hand side.

    Reduces the flux equations to the half-line Helmholtz problems,
    solves the 2x2 boundary-trace system, rebuilds the fluxes on both
    sides and recovers the height components algebraically.  Refuses
    frequencies closer than ``PROXIMITY_TOL`` to 0, the half-line or the
    circle of the spectrum set.  The isolated singular points are not
    part of that test; no tested (a, mu) has one.
    """
    lam = complex(lam)
    if spectrum_distance(lam, params) < PROXIMITY_TOL:
        raise SpectrumProximity(f"lambda={lam} is within {PROXIMITY_TOL} of the spectrum")
    omega = _require_decaying(helmholtz_omega(lam, params))
    a = params.a
    mu = params.mu

    f2_l, f2_r = inp.f2
    f2p_l, f2p_r = inp.f2_prime
    f3_l, f3_r = inp.f3
    x_l, x_r = f3_l.grid, f3_r.grid
    denom = 1.0 + mu * lam
    phi_l = (lam * f3_l.values - f2p_l.values) / denom
    phi_r = (lam * f3_r.values - f2p_r.values) / denom

    # boundary-weighted source integrals, kernels scaled to exponent <= 0
    kern_l = np.exp(omega * (x_l - x_l[-1]))
    int_l = np.trapezoid(kern_l * phi_l, x_l)
    kern_r = np.exp(-omega * (x_r - x_r[0]))
    int_r = np.trapezoid(kern_r * phi_r, x_r)

    rhs = (coupling_matrix_inverse(params) @ np.array([inp.f4, inp.f5])
           + (4.0 * a * a / lam) * np.array([
               f2_l.boundary_value - inp.f1,
               inp.f1 - f2_r.boundary_value,
           ])
           + (4.0 * a * a * lam / omega**2) * np.array([int_l, int_r]))
    m_lam = boundary_system_matrix(lam, params)
    try:
        traces = np.linalg.solve(m_lam, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"boundary-trace system singular at lambda={lam}") from exc
    q_minus, q_plus = (complex(traces[0]), complex(traces[1]))

    q_l, dq_l = _solve("left", omega, x_l, q_minus, phi_l)
    q_r, dq_r = _solve("right", omega, x_r, q_plus, phi_r)

    h_l = _wrap("left", f2_l.grid, (f2_l.values - dq_l) / lam)
    h_r = _wrap("right", f2_r.grid, (f2_r.values - dq_r) / lam)
    H_lam = (inp.f1 - (q_plus - q_minus) / (2.0 * a)) / lam
    q_lam = (_wrap("left", x_l, q_l), _wrap("right", x_r, q_r))
    return ResolventOutput(H_lam, (h_l, h_r), q_lam, q_minus, q_plus)
