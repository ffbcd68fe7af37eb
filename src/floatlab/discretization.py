"""Truncated-domain semi-discretization of the floating-solid system.

The unbounded fluid domain is cut at x = +-L and the two exterior sides
[-L, -a] and [a, L] carry uniform grids of ``n_side`` nodes each.  The
flattened state vector is ordered

    [H | h_left | h_right | q_left interior | q_right interior | q-, q+]

where h lives on every node, the boundary fluxes at -+a are the scalar
states q-, q+ themselves, and the truncation condition q(+-L) = 0
eliminates the outer flux nodes.  :class:`StateLayout` (``grid.layout``)
is the one place that order, and the mirror x -> -x that splits it into
even and odd halves (``StateLayout.mirror``), are written down;
everything else indexes the state through its named slots.  Spatial
derivatives are second-order central stencils with second-order
one-sided closures at -+a and +-L; an optional sponge profile damps the
flux near the truncation boundary to emulate radiation to infinity.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import CompatibilityViolation, InvalidGeometry
from .spectral import PhysicalParams, coupling_matrix

#: Width of the default grid's sponge band, in units of the half-width a.
SPONGE_WIDTH = 5.0
#: Damping rate of the default grid's sponge at the truncation boundary.
SPONGE_STRENGTH = 1.0
#: How far, relative to max|A|, the mirror may fail to commute with the
#: generator: x_left is the mirror of x_right only to rounding.
MIRROR_TOL = 1e-12


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

    @cached_property
    def mirror(self) -> tuple[np.ndarray, np.ndarray]:
        """The reflection x -> -x as ``(source, sign)``: (R z)[i] = sign[i] * z[source[i]].

        H stays put, h(x) -> h(-x) and q(x) -> -q(-x): h_left swaps with
        h_right reversed, q_left with q_right reversed and negated, and q-
        with -q+.  R is its own inverse.
        """
        at = np.arange(self.dim)
        source, sign = at.copy(), np.ones(self.dim)
        for left, right in ((self.h_left, self.h_right), (self.q_left, self.q_right)):
            source[left], source[right] = at[right][::-1], at[left][::-1]
        source[[self.q_minus, self.q_plus]] = self.q_plus, self.q_minus
        sign[self.q_left] = sign[self.q_right] = -1.0
        sign[[self.q_minus, self.q_plus]] = -1.0
        return source, sign


@dataclass(frozen=True)
class Grid:
    """Uniform exterior grids plus sponge metadata."""

    params: PhysicalParams
    L: float
    n_side: int
    sponge_width: float
    sponge_strength: float

    @property
    def spacing(self) -> float:
        return (self.L - self.params.a) / (self.n_side - 1)

    @property
    def x_left(self) -> np.ndarray:
        return np.linspace(-self.L, -self.params.a, self.n_side)

    @property
    def x_right(self) -> np.ndarray:
        return np.linspace(self.params.a, self.L, self.n_side)

    @cached_property
    def layout(self) -> StateLayout:
        return StateLayout(self.n_side)

    def sponge(self, x) -> np.ndarray:
        """Damping profile: quadratic ramp inside the sponge band, else 0."""
        x = np.asarray(x, dtype=float)
        if self.sponge_width <= 0 or self.sponge_strength == 0:
            return np.zeros_like(x)
        start = self.L - self.sponge_width
        ramp = (np.abs(x) - start) / self.sponge_width
        return self.sponge_strength * np.square(np.clip(ramp, 0.0, None))

    def without_sponge(self) -> "Grid":
        return replace(self, sponge_width=0.0, sponge_strength=0.0)


def build_grid(params, L, n_side, sponge_width=0.0, sponge_strength=0.0) -> Grid:
    """Validate geometry and construct the truncated-domain grid."""
    if not L > params.a:
        raise InvalidGeometry(f"L={L} must exceed the half-width a={params.a}")
    if n_side < 8:
        raise InvalidGeometry(f"n_side={n_side} must be at least 8")
    if not 0 <= sponge_width < L - params.a:
        raise InvalidGeometry(
            f"sponge_width={sponge_width} must lie in [0, L-a)={L - params.a}")
    if not sponge_strength >= 0:  # a negative strength makes the sponge a source
        raise InvalidGeometry(f"sponge_strength={sponge_strength} must be non-negative")
    return Grid(params, float(L), int(n_side), float(sponge_width), float(sponge_strength))


def default_grid(params, n_side=100) -> Grid:
    """Desk-scale defaults: L = 20a and the sponge ``SPONGE_WIDTH``*a, ``SPONGE_STRENGTH``."""
    return build_grid(params, 20.0 * params.a, n_side, SPONGE_WIDTH * params.a, SPONGE_STRENGTH)


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


class ParityBasis:
    """Orthonormal basis Q (dim x k) of the states z with R z = parity * z, as slot arrays.

    R is the signed permutation ``(source, sign)``.  A slot that R fixes with the wanted
    sign gives the column e_i; a swapped pair i < j gives (e_i + parity*sign[i] e_j)/sqrt(2).
    Columns follow their first slot.  Column c is ``weights[:, c]`` at slots ``lead[c]`` and
    ``partner[c]``; a lone slot pairs with itself at weight 0, so Q^T x adds two products.
    """

    def __init__(self, source, sign, parity):
        at = np.arange(source.size)
        self.lead = at[(at < source) | ((at == source) & (sign == parity))]
        self.partner = source[self.lead]
        paired = self.partner != self.lead
        half = np.where(paired, np.sqrt(0.5), 0.0)
        self.weights = np.array([np.where(paired, half, 1.0), parity * sign[self.lead] * half])
        self.shape = (source.size, self.lead.size)

    def restrict(self, x) -> np.ndarray:
        """Q^T x along the first axis of a (dim,) or (dim, m) ``x``; X Q is restrict(X.T).T."""
        return (self.weights[0] * x[self.lead].T + self.weights[1] * x[self.partner].T).T

    def lift(self, y) -> np.ndarray:
        """Q y along the first axis of a (k,) or (k, m) ``y``; a slot of no column gets +0.0."""
        z = np.zeros(self.shape[:1] + np.shape(y)[1:])
        z[self.lead] += (self.weights[0] * y.T).T
        z[self.partner] += (self.weights[1] * y.T).T
        return z


def _kernel_modes(lay):
    """The generator's structural kernel, unnormalised: rest mode, left and right comb.

    - the rest mode: H = 1 and h = 1 on every node, no flux;
    - the left comb: h = 1 on every second node of the left side,
      starting one step from the solid, all else 0;
    - the right comb: the same on the right side.

    The combs are the odd-even decoupling of the collocated central
    stencil: a comb has zero central difference at every interior node
    and zero trace at -+a.  All three are equilibria with zero flux, so
    the output row does not see them.  The mirror swaps the combs, so
    the rest mode and their sum are even and their difference is odd.
    """
    rest, left, right = np.zeros((3, lay.dim))
    rest[lay.H] = 1.0
    rest[lay.h_left] = rest[lay.h_right] = 1.0
    # h_left ends at -a and h_right starts at +a: odd steps from the solid
    left[lay.h_left][lay.n_side - 2::-2] = 1.0
    right[lay.h_right][1::2] = 1.0
    return rest, left, right


@dataclass(frozen=True)
class SemiDiscreteSystem:
    """Dense generator, input column, output row and the generator's kernel.

    u = -C z feeds energy back.  ``kernel`` is an orthonormal basis
    (dim x k) of the generator's structural kernel, which neither input
    nor output sees; whoever builds the system writes it down, so no
    numerical rank test decides it.  :func:`assemble` gives the rest mode
    and the two combs, and a system built by hand states its own, often
    none, (dim x 0).  The mirror x -> -x fixes B and C, and A commutes
    with it, so the system splits into a mirror-even half, which input
    and output see, and an odd half, which neither does.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    grid: Grid | None
    kernel: np.ndarray

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def mirror_bases(self) -> tuple[ParityBasis, ParityBasis]:
        """``(Q_e, Q_o)``: bases of the mirror-even (dim x 2n) and odd (dim x 2n-1) states.

        One column of Q_e is e_H, each other pairs a slot with its mirror image.
        A system built by hand knows no mirror: Q_e = I and Q_o has no column.
        """
        mirror = (np.arange(self.dim), np.ones(self.dim)) if self.grid is None \
            else self.grid.layout.mirror
        return ParityBasis(*mirror, 1.0), ParityBasis(*mirror, -1.0)

    @cached_property
    def mirror_halves(self) -> tuple["SemiDiscreteSystem", np.ndarray]:
        """``(even, a_odd)``: the system on Q_e^T z, and the generator on Q_o^T z.

        The split is checked, never assumed: the odd parts of B and C must
        be zero bit for bit, and what A carries between the halves at most
        ``MIRROR_TOL`` max|A|; otherwise ValueError.  ``even`` has no grid;
        its kernel is the rest mode and the sum of the combs, in even
        coordinates.  A system built by hand knows no mirror and is its
        own even half.
        """
        if self.grid is None:
            return self, np.zeros((0, 0))
        qe, qo = self.mirror_bases
        if np.any(qo.restrict(self.B)) or np.any(qo.restrict(self.C)):
            raise ValueError("the input column or the output row is not mirror-even")
        even_rows, odd_rows = qe.restrict(self.A), qo.restrict(self.A)
        leak = max(np.abs(qo.restrict(even_rows.T)).max(initial=0.0),
                   np.abs(qe.restrict(odd_rows.T)).max(initial=0.0))
        if leak > MIRROR_TOL * np.abs(self.A).max():
            raise ValueError(f"the generator couples the mirror halves ({leak:.3e})")
        rest, left, right = _kernel_modes(self.grid.layout)
        kernel = qe.restrict(np.linalg.qr(np.column_stack([rest, left + right]))[0])
        return (SemiDiscreteSystem(qe.restrict(even_rows.T).T, qe.restrict(self.B),
                                   qe.restrict(self.C), None, kernel),
                qo.restrict(odd_rows.T).T)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A: those of its even half, then those of its odd half."""
        even, a_odd = self.mirror_halves
        return np.concatenate([np.linalg.eigvals(even.A), np.linalg.eigvals(a_odd)])


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
    return SemiDiscreteSystem(A, B, C, grid, np.linalg.qr(np.column_stack(_kernel_modes(lay)))[0])


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
        # (x - center) / width and t * t overflow to inf far out (a huge
        # center over a tiny width), where t ** 2 raises, and exp(-inf) = 0
        with np.errstate(over="ignore"):
            t = (x - center) / width
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


def preset_state(grid, name, /, **kwargs) -> State:
    """The preset ``name`` on ``grid``; an unknown name or key is a ValueError."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    keys = list(inspect.signature(factory).parameters)[1:]  # after grid
    for key in kwargs:
        if key not in keys:
            raise ValueError(f"preset {name!r} has no key {key!r}; keys: {keys}")
    return factory(grid, **kwargs)


def quadratic_forms(grid: Grid):
    """Sparse symmetric forms (W, G, S) of the discrete energy identity.

    Built from the stencil and quadrature that :func:`assemble` uses:

    - ``0.5 * z^T W z`` is the energy: the exterior trapezoid rule of
      h^2 + q^2 plus the closed-form interior part in (H, q-, q+);
    - ``z^T G z`` is ||dq/dx||^2: the trapezoid rule of the squared stencil
      derivative on both sides plus 2a*Hdot^2 under the solid, where the
      slope is -Hdot;
    - ``z^T S z`` is the sponge sink, the trapezoid rule of sigma*q^2.

    Along a trajectory dE/dt = -mu * z^T G z + u * C z - z^T S z.
    """
    import scipy.sparse as sps

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
