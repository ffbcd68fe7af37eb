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
import scipy.sparse as sps

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
    """Dense generator, input column, output row and the generator's kernel.

    u = -C z feeds energy back.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    grid: Grid

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def kernel(self) -> np.ndarray:
        """Orthonormal basis (dim x 3) of the generator's structural kernel.

        The columns span three modes, written from ``grid.layout``:

        - the rest mode: H = 1 and h = 1 on every node, no flux;
        - the left comb: h = 1 on every second node of the left side,
          starting one step from the solid, all else 0;
        - the right comb: the same on the right side.

        The combs are the odd-even decoupling of the collocated central
        stencil: a comb has zero central difference at every interior
        node and zero trace at -+a.  All three are equilibria with zero
        flux, so the output row does not see them.  Lazy, because a
        system built by hand may have no grid.
        """
        lay, n = self.grid.layout, self.grid.n_side
        rest, left, right = np.zeros((3, lay.dim))
        rest[lay.H] = 1.0
        rest[lay.h_left] = rest[lay.h_right] = 1.0
        # h_left ends at -a and h_right starts at +a: odd steps from the solid
        left[lay.h_left][n - 2::-2] = 1.0
        right[lay.h_right][1::2] = 1.0
        return np.linalg.qr(np.column_stack([rest, left, right]))[0]


def _nodal_operators(grid):
    """The nodal operators that the generator and the quadratic forms share.

    Returns ``(sides, stencil, trapezoid, C)``:

    - ``sides``: for the left and then the right side, the state slots of
      the n surface-height nodes and of the n flux nodes, -1 marking the
      pinned outer flux node at +-L;
    - ``stencil``: ``(rows, cols, weights)`` of d/dx on n nodes in units of
      1/(2*spacing), central inside and second-order one-sided at both ends;
    - ``trapezoid``: the quadrature weights of the n nodes;
    - ``C``: the output row, Hdot = C z = -(q+ - q-)/(2a).
    """
    lay, n = grid.layout, grid.n_side
    at = np.arange(lay.dim)
    sides = ((at[lay.h_left], np.r_[-1, at[lay.q_left], lay.q_minus]),
             (at[lay.h_right], np.r_[lay.q_plus, at[lay.q_right], -1]))
    i = np.arange(1, n - 1)
    rows = np.r_[0, 0, 0, i, i, n - 1, n - 1, n - 1]
    cols = np.r_[0, 1, 2, i - 1, i + 1, n - 1, n - 2, n - 3]
    weights = np.r_[-3.0, 4.0, -1.0, np.full(n - 2, -1.0), np.ones(n - 2), 3.0, -4.0, 1.0]
    trapezoid = np.full(n, grid.spacing)
    trapezoid[[0, -1]] = grid.spacing / 2.0
    C = np.zeros(lay.dim)
    C[[lay.q_minus, lay.q_plus]] = np.array([1.0, -1.0]) / (2.0 * grid.params.a)
    return sides, (rows, cols, weights), trapezoid, C


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
    sides, (rows, cols, weights), _, C = _nodal_operators(grid)
    inner = (rows > 0) & (rows < n - 1)
    i = np.arange(1, n - 1)
    triplets = []
    for (h, q), xs in zip(sides, (grid.x_left, grid.x_right)):
        # surface height: hdot = -dq/dx on every node
        triplets.append((h[rows], q[cols], -weights / (2.0 * dx)))
        # flux: qdot = -dh/dx + mu*q'' - sigma*q at interior exterior nodes
        triplets.append((q[rows[inner]], h[cols[inner]], -weights[inner] / (2.0 * dx)))
        laplacian = np.column_stack([np.full(n - 2, mu / dx**2),
                                     -2.0 * mu / dx**2 - grid.sponge(xs)[i],
                                     np.full(n - 2, mu / dx**2)])
        triplets.append((np.repeat(q[i], 3), np.column_stack([q[i - 1], q[i], q[i + 1]]),
                         laplacian))
    r, c, v = (np.concatenate([np.ravel(x) for x in part]) for part in zip(*triplets))
    kept = c >= 0
    A = np.zeros((lay.dim, lay.dim))
    A[r[kept], c[kept]] = v[kept]  # each (row, col) occurs once, so assigning scatters
    A[lay.H] = C

    # boundary fluxes: [qdot-, qdot+] = 4a^2 M [b1, b2] with
    # b1 =  mu*(q+ - q-)/(2a) + (h(-a) - H) - mu*dq/dx(-a-)
    # b2 = -mu*(q+ - q-)/(2a) - (h(a) - H) + mu*dq/dx(a+)
    # b2 is b1 written at the right trace with every sign flipped
    b = []
    for sign, (h, q), node in ((1.0, sides[0], n - 1), (-1.0, sides[1], 0)):
        row = -mu * C
        row[h[node]] += 1.0
        row[lay.H] -= 1.0
        at = rows == node
        row[q[cols[at]]] -= mu * weights[at] / (2.0 * dx)
        b.append(sign * row)

    m = coupling_matrix(p)
    A[lay.q_minus] = 4.0 * a * a * (m[0, 0] * b[0] + m[0, 1] * b[1])
    A[lay.q_plus] = 4.0 * a * a * (m[1, 0] * b[0] + m[1, 1] * b[1])

    B = np.zeros(lay.dim)
    bm = 2.0 * a * (m @ np.array([1.0, -1.0]))
    B[lay.q_minus] = bm[0]
    B[lay.q_plus] = bm[1]
    return SemiDiscreteSystem(A, B, C, grid)


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
        # t * t overflows to inf where t ** 2 raises, and exp(-inf) = 0
        with np.errstate(over="ignore"):
            return amplitude * np.exp(-t * t)
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


def quadratic_forms(grid: Grid):
    """Sparse symmetric forms (W, G, S) of the discrete energy identity.

    Built from the stencil and quadrature that :func:`assemble` uses:

    - ``0.5 * z^T W z`` is the energy (see :func:`energy`);
    - ``z^T G z`` is ||dq/dx||^2: the trapezoid rule of the squared stencil
      derivative on both sides plus 2a*Hdot^2 under the solid, where the
      slope is -Hdot;
    - ``z^T S z`` is the sponge sink, the trapezoid rule of sigma*q^2.

    Along a trajectory dE/dt = -mu * z^T G z + u * C z - z^T S z.
    """
    a = grid.params.a
    lay = grid.layout
    sides, (rows, cols, weights), trapezoid, C = _nodal_operators(grid)
    shape = (lay.dim, lay.dim)

    def diagonal(slots, values):
        kept = slots >= 0
        return sps.coo_array((values[kept], (slots[kept], slots[kept])), shape=shape)

    def outer(v):
        v = sps.csr_array(v[None, :])
        return v.T @ v

    heights, fluxes = (np.concatenate(slots) for slots in zip(*sides))
    mean = np.zeros(lay.dim)
    mean[[lay.q_minus, lay.q_plus]] = 0.5
    # exterior trapezoid of h^2 + q^2; interior closed forms 2a*H^2,
    # 2a*mean_q^2 and (2a^3/3 + 1)*Hdot^2
    W = (diagonal(np.r_[heights, fluxes, lay.H], np.r_[np.tile(trapezoid, 4), 2.0 * a])
         + 2.0 * a * outer(mean) + (2.0 * a**3 / 3.0 + 1.0) * outer(C))

    G = 2.0 * a * outer(C)
    for _, q in sides:
        kept = q[cols] >= 0
        slope = sps.csr_array((weights[kept] / (2.0 * grid.spacing),
                               (rows[kept], q[cols[kept]])), shape=(grid.n_side, lay.dim))
        weighted = sps.diags_array(np.sqrt(trapezoid)) @ slope  # M^T M is exactly symmetric
        G = G + weighted.T @ weighted

    sink = np.concatenate([trapezoid * grid.sponge(xs) for xs in (grid.x_left, grid.x_right)])
    return W.tocsr(), G.tocsr(), diagonal(fluxes, sink).tocsr()


def energy_matrix(grid: Grid) -> np.ndarray:
    """Symmetric psd matrix W with energy(z) = 0.5 * z^T W z, dense."""
    return quadratic_forms(grid)[0].toarray()


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

    _, (rows, cols, weights), _, _ = _nodal_operators(grid)

    def slope(q, node):
        """d/dx at one node: that node's row of the stencil."""
        at = rows == node
        return weights[at] @ q[cols[at]] / (2.0 * grid.spacing)

    c2 = 0.5 * hddot
    c1 = -0.5 * (qdot_plus + qdot_minus)
    p_left = state.h_left[-1] - mu * slope(state.q_left, grid.n_side - 1) - state.H - mu * hdot
    c0 = p_left - c2 * a * a + c1 * a
    profile = PressureProfile(float(c0), float(c1), float(c2))

    p_right_target = state.h_right[0] - mu * slope(state.q_right, 0) - state.H - mu * hdot
    defects = {
        "right_jump": float(abs(profile(a) - p_right_target)),
        "newton": float(abs(hddot - (profile.integral(a) + u))),
    }
    return profile, defects
