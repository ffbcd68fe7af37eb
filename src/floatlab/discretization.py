"""Truncated-domain semi-discretization of the floating-solid system.

The unbounded fluid domain is cut at x = +-L and the two exterior sides
[-L, -a] and [a, L] carry uniform grids of ``n_side`` nodes each.  The
flattened state vector is ordered

    [H | h_left | h_right | q_left interior | q_right interior | q-, q+]

where h lives on every node, the boundary fluxes at -+a are the scalar
states q-, q+ themselves, and the truncation condition q(+-L) = 0
eliminates the outer flux nodes.  :class:`StateLayout` (``grid.layout``)
is the one place that order is written down; everything else indexes
the state through its named slots.  Spatial derivatives are second-order
central stencils with second-order one-sided closures at -+a and +-L; an
optional sponge profile damps the flux near the truncation boundary to
emulate radiation to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CompatibilityViolation, InvalidGeometry
from .spectral import PhysicalParams, coupling_matrix


@dataclass(frozen=True)
class StateLayout:
    """Named slots of the flattened state vector for ``n_side`` nodes a side.

    ``q_left`` and ``q_right`` cover the interior flux nodes only; the
    boundary fluxes q-, q+ have their own slots and the outer flux nodes
    at +-L are not stored.
    """

    n_side: int
    H: int = field(init=False)
    h_left: slice = field(init=False)
    h_right: slice = field(init=False)
    q_left: slice = field(init=False)
    q_right: slice = field(init=False)
    q_minus: int = field(init=False)
    q_plus: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        n = self.n_side
        slots = {
            "H": 0,
            "h_left": slice(1, n + 1),
            "h_right": slice(n + 1, 2 * n + 1),
            "q_left": slice(2 * n + 1, 3 * n - 1),
            "q_right": slice(3 * n - 1, 4 * n - 3),
            "q_minus": 4 * n - 3,
            "q_plus": 4 * n - 2,
            "dim": 4 * n - 1,
        }
        for name, slot in slots.items():
            object.__setattr__(self, name, slot)


@dataclass(frozen=True)
class Grid:
    """Uniform exterior grids plus sponge metadata."""

    params: PhysicalParams
    L: float
    n_side: int
    spacing: float
    sponge_width: float
    sponge_strength: float

    @property
    def x_left(self) -> np.ndarray:
        return np.linspace(-self.L, -self.params.a, self.n_side)

    @property
    def x_right(self) -> np.ndarray:
        return np.linspace(self.params.a, self.L, self.n_side)

    @cached_property
    def layout(self) -> StateLayout:
        return StateLayout(self.n_side)

    @property
    def state_dim(self) -> int:
        return self.layout.dim

    def sponge(self, x) -> np.ndarray:
        """Damping profile: quadratic ramp inside the sponge band, else 0."""
        x = np.asarray(x, dtype=float)
        if self.sponge_width <= 0 or self.sponge_strength == 0:
            return np.zeros_like(x)
        start = self.L - self.sponge_width
        ramp = (np.abs(x) - start) / self.sponge_width
        return self.sponge_strength * np.square(np.clip(ramp, 0.0, None))

    def without_sponge(self) -> "Grid":
        return Grid(self.params, self.L, self.n_side, self.spacing, 0.0, 0.0)


def build_grid(params, L, n_side, sponge_width=0.0, sponge_strength=0.0) -> Grid:
    """Validate geometry and construct the truncated-domain grid."""
    if not L > params.a:
        raise InvalidGeometry(f"L={L} must exceed the half-width a={params.a}")
    if n_side < 8:
        raise InvalidGeometry(f"n_side={n_side} must be at least 8")
    if not 0 <= sponge_width < L - params.a:
        raise InvalidGeometry(
            f"sponge_width={sponge_width} must lie in [0, L-a)={L - params.a}")
    spacing = (L - params.a) / (n_side - 1)
    return Grid(params, float(L), int(n_side), spacing,
                float(sponge_width), float(sponge_strength))


def default_grid(params=PhysicalParams(), n_side=100, L=None,
                 sponge_width=None, sponge_strength=1.0) -> Grid:
    """Desk-scale defaults: L = 20a with a 5a-wide sponge of strength 1."""
    a = params.a
    if L is None:
        L = 20.0 * a
    if sponge_width is None:
        sponge_width = 5.0 * a
    return build_grid(params, L, n_side, sponge_width, sponge_strength)


@dataclass
class State:
    """Nodal state: solid height, surface heights and fluxes on both sides.

    ``q_left`` and ``q_right`` are full nodal arrays; their boundary
    entries at -+a ARE the scalar flux states and their outer entries at
    +-L are pinned to zero by the truncation condition.
    """

    H: float
    h_left: np.ndarray
    h_right: np.ndarray
    q_left: np.ndarray
    q_right: np.ndarray

    @property
    def q_minus(self) -> float:
        return float(self.q_left[-1])

    @property
    def q_plus(self) -> float:
        return float(self.q_right[0])

    def hdot(self, grid) -> float:
        """Vertical velocity of the solid, -(q+ - q-)/(2a)."""
        return -(self.q_plus - self.q_minus) / (2.0 * grid.params.a)

    def flatten(self, grid) -> np.ndarray:
        """Pack into ``grid.layout`` order: real, or complex if any field is."""
        lay = grid.layout
        z = np.empty(lay.dim, dtype=np.result_type(float, self.H, self.h_left,
                                                    self.h_right, self.q_left, self.q_right))
        z[lay.H] = self.H
        z[lay.h_left] = self.h_left
        z[lay.h_right] = self.h_right
        z[lay.q_left] = self.q_left[1:-1]
        z[lay.q_right] = self.q_right[1:-1]
        z[lay.q_minus] = self.q_left[-1]
        z[lay.q_plus] = self.q_right[0]
        return z

    @classmethod
    def unflatten(cls, z, grid) -> "State":
        """Inverse of :meth:`flatten`; the outer flux nodes come back as 0."""
        lay = grid.layout
        z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
        if z.shape != (lay.dim,):
            raise ValueError(f"expected state vector of length {lay.dim}")
        q_left = np.concatenate([[0.0], z[lay.q_left], [z[lay.q_minus]]])
        q_right = np.concatenate([[z[lay.q_plus]], z[lay.q_right], [0.0]])
        return cls(z[lay.H].item(), z[lay.h_left].copy(), z[lay.h_right].copy(),
                   q_left, q_right)


@dataclass(frozen=True)
class SemiDiscreteSystem:
    """Dense generator, input column and output row; u = -C z feeds energy back."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    grid: Grid

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def _node_slots(lay: StateLayout):
    """State index of every node, per side; None marks a pinned outer flux node."""
    at = range(lay.dim)
    return (list(at[lay.h_left]), list(at[lay.h_right]),
            [None, *at[lay.q_left], lay.q_minus], [lay.q_plus, *at[lay.q_right], None])


def _first_derivative_coeffs(n, i):
    """Stencil (index, weight) pairs for d/dx at node i, in units of 1/(2*spacing)."""
    if i == 0:
        return [(0, -3.0), (1, 4.0), (2, -1.0)]
    if i == n - 1:
        return [(n - 1, 3.0), (n - 2, -4.0), (n - 3, 1.0)]
    return [(i - 1, -1.0), (i + 1, 1.0)]


def assemble(grid: Grid) -> SemiDiscreteSystem:
    """Assemble the dense generator A, input column B and output row C.

    Rows implement: Hdot = -(q+ - q-)/(2a); hdot = -dq/dx at every node;
    qdot = -dh/dx + mu*d2q/dx2 - sigma(x)*q at interior exterior nodes;
    and the coupled flux ODEs at -+a driven by the surface-height traces
    and one-sided flux derivatives.
    """
    p = grid.params
    a, mu = p.a, p.mu
    n = grid.n_side
    dx = grid.spacing
    lay = grid.layout
    h_left, h_right, q_left, q_right = _node_slots(lay)
    qm, qp = lay.q_minus, lay.q_plus
    A = np.zeros((lay.dim, lay.dim))

    def add(row, col, val):
        if col is not None:
            row[col] += val

    # solid height: Hdot = -(q+ - q-)/(2a)
    add(A[lay.H], qp, -1.0 / (2.0 * a))
    add(A[lay.H], qm, +1.0 / (2.0 * a))

    # surface height: hdot = -dq/dx on every node of both sides
    for q_of, h_of in ((q_left, h_left), (q_right, h_right)):
        for i in range(n):
            for j, w in _first_derivative_coeffs(n, i):
                add(A[h_of[i]], q_of[j], -w / (2.0 * dx))

    # flux: qdot = -dh/dx + mu*q'' - sigma*q at interior exterior nodes
    for q_of, h_of, xs in ((q_left, h_left, grid.x_left),
                           (q_right, h_right, grid.x_right)):
        sig = grid.sponge(xs)
        for i in range(1, n - 1):
            row = A[q_of[i]]
            add(row, h_of[i + 1], -1.0 / (2.0 * dx))
            add(row, h_of[i - 1], +1.0 / (2.0 * dx))
            add(row, q_of[i - 1], mu / dx**2)
            add(row, q_of[i], -2.0 * mu / dx**2)
            add(row, q_of[i + 1], mu / dx**2)
            add(row, q_of[i], -sig[i])

    # boundary fluxes: [qdot-, qdot+] = 4a^2 M [b1, b2] with
    # b1 =  mu*(q+ - q-)/(2a) + (h(-a) - H) - mu*dq/dx(-a-)
    # b2 = -mu*(q+ - q-)/(2a) - (h(a) - H) + mu*dq/dx(a+)
    b1 = np.zeros(lay.dim)
    b2 = np.zeros(lay.dim)

    add(b1, qp, mu / (2.0 * a))
    add(b1, qm, -mu / (2.0 * a))
    add(b1, h_left[n - 1], 1.0)
    add(b1, lay.H, -1.0)
    for j, w in _first_derivative_coeffs(n, n - 1):
        add(b1, q_left[j], -mu * w / (2.0 * dx))

    add(b2, qp, -mu / (2.0 * a))
    add(b2, qm, +mu / (2.0 * a))
    add(b2, h_right[0], -1.0)
    add(b2, lay.H, +1.0)
    for j, w in _first_derivative_coeffs(n, 0):
        add(b2, q_right[j], +mu * w / (2.0 * dx))

    m = coupling_matrix(p)
    A[qm, :] = 4.0 * a * a * (m[0, 0] * b1 + m[0, 1] * b2)
    A[qp, :] = 4.0 * a * a * (m[1, 0] * b1 + m[1, 1] * b2)

    B = np.zeros(lay.dim)
    bm = 2.0 * a * (m @ np.array([1.0, -1.0]))
    B[qm] = bm[0]
    B[qp] = bm[1]

    C = np.zeros(lay.dim)
    C[qp] = -1.0 / (2.0 * a)
    C[qm] = +1.0 / (2.0 * a)
    return SemiDiscreteSystem(A, B, C, grid)


def dqdx_nodal(values, spacing):
    """d/dx of a full nodal side array: central interior, one-sided ends."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * spacing)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * spacing)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * spacing)
    return out


def initial_state(grid, H0, G0, h0, q0) -> State:
    """Sample initial data onto the grid, enforcing the compatibility condition.

    ``h0`` and ``q0`` are callables on the exterior.  The slope content of
    the compatibility condition requires G0 = -(q0(a) - q0(-a))/(2a) to
    within 1e-10; the outer flux samples are replaced by the truncation
    value q(+-L) = 0.
    """
    xl, xr = grid.x_left, grid.x_right
    h_left = np.array([h0(x) for x in xl], dtype=float)
    h_right = np.array([h0(x) for x in xr], dtype=float)
    q_left = np.array([q0(x) for x in xl], dtype=float)
    q_right = np.array([q0(x) for x in xr], dtype=float)
    q_left[0] = 0.0
    q_right[-1] = 0.0
    a = grid.params.a
    g_required = -(q_right[0] - q_left[-1]) / (2.0 * a)
    if abs(G0 - g_required) > 1e-10:
        raise CompatibilityViolation(
            f"G0={G0} inconsistent with flux traces; need {g_required}")
    return State(float(H0), h_left, h_right, q_left, q_right)


def rest_state(grid) -> State:
    n = grid.n_side
    return State(0.0, np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n))


def heave_state(grid, H0=1.0, G0=0.0) -> State:
    """Solid displaced vertically by H0 over an undisturbed fluid.

    The fluid is at rest, so compatibility forces G0 = 0; a nonzero G0
    is rejected.
    """
    return initial_state(grid, H0, G0, lambda x: 0.0, lambda x: 0.0)


def _gaussian(center, width, amplitude):
    """x -> amplitude*exp(-((x - center)/width)^2) for a positive width."""
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")

    def profile(x):
        t = (x - center) / width
        return amplitude * np.exp(-t * t)  # t * t overflows to inf where t ** 2 raises
    return profile


def bump_state(grid, center=5.0, width=2.0, amplitude=0.2) -> State:
    """Gaussian bump on the surface height, fluid initially at rest."""
    return initial_state(grid, 0.0, 0.0, _gaussian(center, width, amplitude),
                         lambda x: 0.0)


def flow_state(grid, center=4.0, width=1.5, amplitude=0.3) -> State:
    """Localized flux profile; the solid velocity follows by compatibility."""
    prof = _gaussian(center, width, amplitude)
    a = grid.params.a
    g0 = -(prof(a) - prof(-a)) / (2.0 * a)
    return initial_state(grid, 0.0, g0, lambda x: 0.0, prof)


PRESETS = {
    "rest": rest_state,
    "heave": heave_state,
    "bump": bump_state,
    "flow": flow_state,
}


def preset_state(grid, name, **kwargs) -> State:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return factory(grid, **kwargs)


def energy(state: State, grid: Grid) -> float:
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


def energy_matrix(grid: Grid) -> np.ndarray:
    """Symmetric psd matrix W with energy(z) = 0.5 * z^T W z."""
    n = grid.n_side
    dx = grid.spacing
    a = grid.params.a
    lay = grid.layout
    W = np.zeros((lay.dim, lay.dim))
    w_trapz = np.full(n, dx)
    w_trapz[0] = w_trapz[-1] = dx / 2.0
    for nodes in _node_slots(lay):
        for col, w in zip(nodes, w_trapz):
            if col is not None:
                W[col, col] += w
    # interior closed forms: 2a*H^2, 2a*mean_q^2, (2a^3/3 + 1)*hdot^2
    W[lay.H, lay.H] += 2.0 * a
    mean_vec = np.zeros(lay.dim)
    mean_vec[[lay.q_plus, lay.q_minus]] = 0.5
    W += 2.0 * a * np.outer(mean_vec, mean_vec)
    hdot_vec = np.zeros(lay.dim)
    hdot_vec[lay.q_plus] = -1.0 / (2.0 * a)
    hdot_vec[lay.q_minus] = +1.0 / (2.0 * a)
    W += (2.0 * a**3 / 3.0 + 1.0) * np.outer(hdot_vec, hdot_vec)
    return W


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


def reconstruct_pressure(state: State, state_derivative: State, u, grid):
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

    c2 = 0.5 * hddot
    c1 = -0.5 * (qdot_plus + qdot_minus)
    dq_left = dqdx_nodal(state.q_left, grid.spacing)
    dq_right = dqdx_nodal(state.q_right, grid.spacing)
    p_left = state.h_left[-1] - mu * dq_left[-1] - state.H - mu * hdot
    c0 = p_left - c2 * a * a + c1 * a
    profile = PressureProfile(float(c0), float(c1), float(c2))

    p_right_target = state.h_right[0] - mu * dq_right[0] - state.H - mu * hdot
    defects = {
        "right_jump": float(abs(profile(a) - p_right_target)),
        "newton": float(abs(hddot - (profile.integral(a) + u))),
    }
    return profile, defects
