"""Time integration, energy bookkeeping and finite-horizon costs.

The semigroup is analytic, so the semi-discrete system is stiff and the
schemes here are unconditionally stable implicit one-step methods:
trapezoidal (default, second order) and implicit Euler.  Every march
is the loop u = -K z of a state feedback, and the free motion is the
zero gain K = 0, so one step serves all of them: ``Stepper.advance``.
The generator has a few nonzeros per row, so the implicit matrix
I - theta*dt*A is factorised once per march with a sparse LU (theta =
1/2 trapezoidal, 1 implicit Euler), and each step is one solve on it:
the explicit half of the scheme is rewritten in terms of the implicit
matrix, so no step multiplies by A, and the feedback enters as a
rank-one (Sherman-Morrison) correction along w = (I - theta*dt*A)^-1 B,
so the closed loop A - B K is never formed.

A step is linear, so ``_BLOCK`` steps of a loop are one jump map
z -> F z + R v (``_JumpMap``), which both marches below use.  F =
Phi0^_BLOCK is the free map and R the response to the weighted inputs
v_j = theta u_(j+1) + (1-theta) u_j of the block's steps.  The inputs
are read off the block's start: the row K of each loop, and C where the
running cost is wanted, are carried back through the adjoint of its
step (transposed solves on the same LU) over _BLOCK + 1 steps, so one
product of the carried rows with a start z gives every step's u = -K z
(and Hdot = C z) and the u that ends the block.  F keeps the mirror
halves of the state apart, so the map works on y = (Q_e^T z, Q_o^T z),
where F is the two half powers (Q^T Phi0 Q)^_BLOCK, built by squarings:
about 3 dim^3 flops, a quarter of one power of the full state.  A
system built by hand has no mirror, and its F is that one power, about
2 log2(_BLOCK) dim^3 flops.

``simulate_adaptive`` cuts its horizon into segments of ``_BLOCK`` steps
from step 0.  It chains the segment starts by the jump map, then marches
``_COLUMNS`` segments side by side, so each step of such a round is one
multi-column solve; the states of each step are reduced at once to the
sampled columns (H, Hdot, q-+, the energy and the energy audit's two
forms, all slot arithmetic: scipy.sparse serves only the LU), so no
state history is kept unless asked for.  Each jumped start is checked
against the marched end of the segment before it.  Where the horizon is
too short to repay F (fewer than ``_JUMP_PAYOFF`` dim^2 steps) the same
loop marches one segment over the whole horizon and no map is built.
``simulate`` is the same march with the history.

``feedback_costs`` marches several feedback gains at once on one
factorisation and keeps only the running cost |u|^2 + |Hdot|^2 at each
step's midpoint, which a block's reads give; the jump map then moves to
the next block, so a block costs one batched product and no solve.
``lqr.compare_feedbacks`` marches the mirror-even half, a system of dim
2 n_side with no mirror, whose squarings the saved solves repay up to
about n_side 800.  The cost beyond the horizon is priced by the caller
from the final states (``lqr.compare_feedbacks`` uses z(T)^T P z(T)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import SemiDiscreteSystem, State, quadratic_forms
from .errors import JumpMismatch, SingularSystem

SCHEMES = ("trapezoidal", "implicit_euler")
#: Steps per segment of ``simulate_adaptive`` and per block of
#: ``feedback_costs``: a power of two, so that the free map Phi0^_BLOCK is
#: log2 _BLOCK squarings.  Besides F the jump map holds the (dim, _BLOCK)
#: input response and _BLOCK + 1 carried rows a loop, twice that with C.
_BLOCK = 64
#: ``simulate_adaptive`` cuts n steps into segments when n >= this * dim^2,
#: else it marches one segment.  F costs ~dim^3 flops and the side-by-side
#: march saves a share of each sparse solve, ~dim flops a step, so the
#: break-even n grows as dim^2.  Measured (one BLAS thread, the bump, open
#: loop): it lies near 5e-3 dim^2 at n_side 100 and 5.5-6e-3 dim^2 at
#: n_side 200 and 400; below n_side 50 a fixed set-up cost moves it up.
_JUMP_PAYOFF = 6e-3
#: Columns of a multi-column solve: the segments that ``simulate_adaptive``
#: marches side by side, the columns it samples at once, the slab of
#: Q^T Phi0 Q that ``Stepper._free_power`` solves for and the rows of
#: ``_JumpMap.reads`` restricted at once.  From about 8 columns a solve
#: costs 7 us a column at dim 399, against 23 us for one.
#: 64 columns marched 500 time units 5-15 % faster, but their temporaries
#: put the verb's peak memory 0.4 MB higher, 2.5 % above a one-column march.
_COLUMNS = 32
#: How far a jumped segment start may lie from the marched end of the
#: segment before, relative to the states: rounding gives up to 4e-14.
JUMP_TOL = 1e-8
#: ``simulate_adaptive`` stops at a chunk end where |u|^2 + |Hdot|^2 is this fraction of its peak.
STOP_RATIO = 1e-12
#: Rows of ``trajectory.csv`` formatted at once: bounds the text and the
#: Python floats that formatting makes, 13 MB for 25,001 rows at once.
_CSV_ROWS = 1024


class Stepper:
    """One implicit step of the loop u = -K z, on a cached sparse LU factorisation.

    With M = I - theta*dt*A the explicit half of the theta-scheme is
    I + (1-theta)*dt*A = (1/theta) I - ((1-theta)/theta) M, so a step is
    one solve s = M^-1 z and no product with A:
    z1 = s/theta - ((1-theta)/theta) z + dt*w*(theta*u1 + (1-theta)*u0),
    with w = M^-1 B.  On the loop the weighted input theta*u1 + (1-theta)*u0
    is -K (M + theta*dt*B K)^-1 z, which Sherman-Morrison gives from s as
    -K s / (1 + theta*dt*K w), and u1 = -K z1 is read off the new state.
    ``gain`` is one row K for a (dim,) state, or an (m, dim) block whose
    rows close the m columns of a (dim, m) block; None is the open loop
    K = 0.
    """

    def __init__(self, system: SemiDiscreteSystem, dt, scheme="trapezoidal", gain=None):
        import scipy.sparse as sps  # not at module level: see the package docstring
        from scipy.sparse.linalg import splu

        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        self.dt = float(dt)
        self.scheme = scheme
        self.theta = 0.5 if scheme == "trapezoidal" else 1.0
        implicit = (-self.theta * self.dt) * system.A
        implicit[np.diag_indices(system.dim)] += 1.0
        try:
            self._lu = splu(sps.csc_array(implicit))
        except RuntimeError as exc:
            raise SingularSystem(f"implicit matrix singular for dt={dt}") from exc
        self._dt_w = self.dt * self._lu.solve(np.asarray(system.B, dtype=float))
        self._lag = (1.0 - self.theta) / self.theta
        self.gain = np.zeros(system.dim) if gain is None else np.asarray(gain, dtype=float)
        self._scale = -1.0 / (1.0 + np.vecdot(self.gain, self.theta * self._dt_w))

    def advance(self, z):
        """(z1, u1): one step from z; the m columns of a (dim, m) block share the solve."""
        z1 = self._lu.solve(z)
        weighted = np.vecdot(self.gain, z1.T) * self._scale
        # the solve returns a (dim, m) block in column-major order; the
        # transposed outer product keeps that order, so the elementwise
        # operations run along columns and the next solve needs no copy
        z1 /= self.theta
        z1 += np.multiply.outer(weighted, self._dt_w).T
        if self._lag:
            z1 -= self._lag * z
        # 0.0 - K z, not -(K z): the open loop's inputs stay +0.0
        return z1, 0.0 - np.vecdot(self.gain, z1.T)

    def _free(self, x, trans):
        """Phi0 x, or Phi0^T x for trans "T": the step with no input, Phi0 = M^-1/theta - lag I."""
        s = self._lu.solve(x, trans)
        s /= self.theta
        s -= self._lag * x
        return s

    def _carry(self, rows, steps):
        """The rows r Phi_i^j, j < ``steps``, of p rows (m, p, dim) a loop: (m, p, steps, dim).

        Loop i steps by Phi_i = Phi0 + w v_i, with w = dt M^-1 B and
        v_i = sigma_i K_i M^-1, sigma_i the Sherman-Morrison scale, so that
        v_i z is the weighted input theta*u1 + (1-theta)*u0 of a step from
        z.  Its adjoint r Phi_i = r Phi0 + (r w) v_i carries each row back
        one step by transposed solves.
        """
        m, p, dim = rows.shape
        gain = np.atleast_2d(self.gain)
        weighted = np.atleast_1d(self._scale)[:, None] * self._lu.solve(gain.T, "T").T
        reads = np.empty((m, p, steps, dim))
        reads[:, :, 0] = rows
        # r w is a BLAS gemv on two or more rows but a dot on one, and the two
        # round apart: a lone row is carried beside a zero row, so K's reads
        # are the same bits whether C rides along or not
        padded = np.zeros((m, max(p, 2), dim))
        for j in range(1, steps):
            padded[:, :p] = rows
            free_rows = self._free(rows.reshape(p * m, dim).T, "T").T.reshape(m, p, dim)
            rows = free_rows + (padded @ self._dt_w)[:, :p, None] * weighted[:, None, :]
            reads[:, :, j] = rows
        return reads

    def _response(self):
        """R = [Phi0^(_BLOCK-1) w, ..., w]: a block ends at F z + R v for weighted inputs v."""
        inputs = np.empty((self._dt_w.size, _BLOCK))
        inputs[:, -1] = self._dt_w
        for j in range(_BLOCK - 1, 0, -1):
            inputs[:, j - 1] = self._free(inputs[:, j], "N")
        return inputs

    def _free_power(self, basis):
        """(Q^T Phi0 Q)^_BLOCK for a ``ParityBasis`` Q (dim x n) that Phi0 keeps.

        Q^T Phi0 Q is solved for in slabs of ``_COLUMNS`` columns and squared
        log2 ``_BLOCK`` times between two (n, n) buffers: 2 log2(_BLOCK) n^3
        flops, and no dim x dim temporary.  Each product takes a slab of
        4 ``_COLUMNS`` columns of its right factor: as fast as the whole
        product at n = 800, while BLAS packs a smaller copy of it, which
        keeps the verb's peak memory 0.2 MB lower at n = 200.
        """
        n = basis.shape[1]
        power, spare = np.empty((n, n)), np.empty((n, n))
        for lo in range(0, n, _COLUMNS):
            slab = np.eye(n, min(_COLUMNS, n - lo), -lo)
            power[:, lo:lo + _COLUMNS] = basis.restrict(self._free(basis.lift(slab), "N"))
        wide = 4 * _COLUMNS
        for _ in range(_BLOCK.bit_length() - 1):
            for lo in range(0, n, wide):
                np.matmul(power, power[:, lo:lo + wide], out=spare[:, lo:lo + wide])
            power, spare = spare, power
        return power


@dataclass
class Trajectory:
    """Sampled run of the loop u = -K z.

    ``samples`` has one row per sampled column and one column per sample:
    H, Hdot = C z, q-, q+, the energy 0.5 z^T W z, and the energy audit's
    z^T G z and z^T S z (the forms of ``quadratic_forms``).  ``states`` is
    the (n_samples, dim) history when the march kept it, else None.
    """

    times: np.ndarray
    inputs: np.ndarray
    samples: np.ndarray  # (7, n_samples)
    system: SemiDiscreteSystem
    states: np.ndarray | None = None

    @property
    def energies(self) -> np.ndarray:
        return self.samples[4]

    def outputs(self) -> np.ndarray:
        """Hdot = C z along the trajectory."""
        return self.samples[1]

    def write_csv(self, path):
        data = np.column_stack([self.times, *self.samples[:5], self.inputs])
        # np.savetxt's row format, applied to a block of rows at once
        row = ",".join(["%.18e"] * data.shape[1]) + "\n"
        with open(path, "w") as fh:
            fh.write("t,H,Hdot,q_minus,q_plus,E,u\n")
            for i in range(0, len(data), _CSV_ROWS):
                rows = data[i:i + _CSV_ROWS]
                fh.write((row * len(rows)) % tuple(rows.ravel().tolist()))


def _sample(z, system, forms):
    """The sampled columns (7, k) of the k states in the columns of ``z``.

    H, Hdot = C z and q-+ are read off the block, and the forms
    (``quadratic_forms``) reduced in one pass: the diagonals by one product
    with z^2, the rank-one terms from q-+ and Hdot, and the stencil slopes of
    ``discretization._nodal_operators`` by contiguous slices of the fluxes.
    """
    lay = system.grid.layout
    diagonals, rank_one, fluxes, slope_weights = forms
    z = np.ascontiguousarray(z)  # a step's block is column-major; the reads below take rows
    hdot = system.C @ z
    diagonal, sink = diagonals @ (z * z)
    energy, gradsq = rank_one @ np.array([0.5 * (z[lay.q_minus] + z[lay.q_plus]), hdot]) ** 2
    q = z[fluxes]  # (2, n_side, k)
    q[fluxes < 0] = 0.0  # the pinned outer node
    slope = np.concatenate([-3.0 * q[:, :1] + 4.0 * q[:, 1:2] - q[:, 2:3], q[:, 2:] - q[:, :-2],
                            3.0 * q[:, -1:] - 4.0 * q[:, -2:-1] + q[:, -3:-2]], axis=1)
    gradsq += (slope_weights @ (slope * slope)).sum(axis=0)
    return np.vstack([z[[lay.H]], hdot, z[[lay.q_minus, lay.q_plus]],
                      0.5 * (diagonal + energy), gradsq, sink])


class _JumpMap:
    """``_BLOCK`` steps of the m loops of a ``Stepper`` as one map y -> F y + R v.

    y = (Q_e^T z, Q_o^T z) for the system's ``mirror_bases`` (Q_e, Q_o); there
    F is the block diagonal of the half powers (Q^T Phi0 Q)^_BLOCK
    (``_free_power``) and R is Q^T of ``_response``.  ``reads[i]`` holds loop
    i's carried rows (``_carry``) K_i Phi_i^j Q, then, with ``outputs``,
    C Phi_i^j Q, for j <= _BLOCK, so reads[i] y gives the block's K_i z_j,
    whence u_j and v (see the module docstring), and its Hdot_j.
    """

    def __init__(self, stepper, system, outputs):
        self._halves = system.mirror_bases
        self._powers = [stepper._free_power(q) for q in self._halves]
        self._response = self.restrict(stepper._response())
        self._theta = stepper.theta
        gain = np.atleast_2d(stepper.gain)
        rows = np.stack([gain, np.broadcast_to(system.C, gain.shape)] if outputs else [gain],
                        axis=1)
        self.reads = stepper._carry(rows, _BLOCK + 1).reshape(len(gain), -1, system.dim)
        for loop in self.reads:  # in place, _COLUMNS rows at a time: no copy of the reads
            for lo in range(0, len(loop), _COLUMNS):
                loop[lo:lo + _COLUMNS] = self.restrict(loop[lo:lo + _COLUMNS].T).T

    def restrict(self, x):
        """y = (Q_e^T x, Q_o^T x) along the first axis of x."""
        return np.concatenate([q.restrict(x) for q in self._halves])

    def lift(self, y):
        """Q_e y_e + Q_o y_o along the first axis of y."""
        even, odd = self._halves
        e = even.shape[1]
        return even.lift(y[:e]) + odd.lift(y[e:])

    def advance(self, y, kz):
        """F y + R v for an (n,) or (n, m) y, v formed from the K z_j, j <= _BLOCK, in ``kz``."""
        v = -self._theta * kz[1:] - (1.0 - self._theta) * kz[:-1]
        e = self._halves[0].shape[1]
        ends = self._response @ v
        ends[:e] += self._powers[0] @ y[:e]
        ends[e:] += self._powers[1] @ y[e:]
        return ends

    def starts(self, y, m):
        """(dim, m + 1): the starts of m segments of the one loop from y and of the one after.

        Also returns the y of the last of those starts.
        """
        chain = np.empty((y.size, m + 1))
        chain[:, 0] = y
        for i in range(m):
            chain[:, i + 1] = self.advance(chain[:, i], self.reads[0, :_BLOCK + 1] @ chain[:, i])
        return self.lift(chain), chain[:, m].copy()


def _check_jumps(starts, ends, first):
    """Each jumped start (columns 1.. of ``starts``) against the marched end of the segment before.

    ``first`` is the index of the segment that starts in column 0.

    The gap may be ``JUMP_TOL`` of the largest of the segment's start, its
    end and the jumped start, so a loop that grows or decays within a
    segment is held to its rounding either way; a NaN gap fails.
    """
    def largest(x):  # max |x| down each column, with no temporary as large as x
        return np.maximum(x.max(axis=0), -x.min(axis=0))

    gap = largest(starts[:, 1:] - ends)
    size = largest(starts)
    scale = np.maximum(np.maximum(size[:-1], size[1:]), largest(ends))
    bad = np.flatnonzero(~(gap <= JUMP_TOL * scale))
    if bad.size:
        i = bad[0]
        raise JumpMismatch(f"the jump to step {(first + i + 1) * _BLOCK} misses the march by "
                           f"{gap[i]:.3e} against states of size {scale[i]:.3e}")


def _march(stepper, starts, n, system, forms, inputs, samples, states):
    """March the m columns of ``starts`` n steps side by side; return the ends.

    Step j + 1 of column i is recorded at i*n + j of ``inputs`` (m*n,),
    ``samples`` (7, m*n) and, unless None, ``states`` (m*n, dim).  Each
    step is one ``Stepper.advance`` on the (dim, m) block.  The states
    are sampled ``_COLUMNS`` columns at a time: each step's block, or
    several steps of a narrower one.
    """
    m = starts.shape[1]
    inputs, samples = inputs.reshape(m, n), samples.reshape(7, m, n)
    states = None if states is None else states.reshape(m, n, -1)
    per = max(1, _COLUMNS // m)  # steps sampled at once
    buffer = np.empty((system.dim, per * m)) if per > 1 else None
    z = starts
    for j in range(n):
        z, inputs[:, j] = stepper.advance(z)
        if states is not None:
            states[:, j] = z.T
        t = j % per
        if buffer is not None:
            buffer[:, t * m:(t + 1) * m] = z
        if t == per - 1 or j == n - 1:
            block = z if buffer is None else buffer[:, :(t + 1) * m]
            sampled = _sample(block, system, forms).reshape(7, t + 1, m)
            samples[:, :, j - t:j + 1] = sampled.transpose(0, 2, 1)
    return z


def state_vector(system, z0) -> np.ndarray:
    """z0 as a flat state vector: a State is flattened on the system's grid."""
    return z0.flatten(system.grid) if isinstance(z0, State) else np.asarray(z0, dtype=float)


def _steps(horizon, dt) -> int:
    """The steps of dt in ``horizon``, rounded; a horizon that rounds to none is a ValueError."""
    n_steps = int(round(horizon / dt))
    if n_steps == 0:
        raise ValueError(f"the horizon {horizon} is shorter than half a step dt={dt}")
    return n_steps


def simulate(system, z0, T, dt, gain=None, scheme="trapezoidal") -> Trajectory:
    """March the loop u = -K z from z0 for a horizon T with step dt, keeping its states.

    This is ``simulate_adaptive`` with a single chunk and the history:
    its stop test can only fire at the last step, so every step of the
    horizon is kept.
    """
    return simulate_adaptive(system, z0, dt, T, gain, scheme, chunk=T, history=True)


def simulate_adaptive(system, z0, dt, t_max, gain=None, scheme="trapezoidal",
                      chunk=25.0, history=False) -> Trajectory:
    """March the loop u = -K z until the running cost integrand dies out or t_max.

    ``gain`` is the row K; None is the open loop.  The stop test runs at
    the end of every ``chunk`` time units and compares |u|^2 + |Hdot|^2
    there against ``STOP_RATIO`` times its running peak; the system is not
    exponentially stable, so t_max caps the horizon when decay is slow.

    One factorisation serves the whole run.  The horizon is cut into
    segments of ``_BLOCK`` steps from step 0, the last one marched to its
    end past t_max.  Rounds of ``_COLUMNS`` segments, fixed whatever the
    chunk, are marched side by side from starts that the jump map chains
    (see the module docstring), and a round runs when the stop test needs
    a chunk end that it holds; so the samples do not depend on the chunk,
    bit for bit, and a stop leaves at most a round of extra steps.  A
    jumped start that lies more than ``JUMP_TOL`` from the marched end of
    the segment before it, relative to the states, raises JumpMismatch.
    Building F takes about 3 dim^3 flops (0.014 s at dim 399, 0.5 s at
    dim 1599, one BLAS thread), so a horizon of fewer than
    ``_JUMP_PAYOFF`` dim^2 steps is marched as one segment: at the default
    dt, T_max 100 is one segment from about n_side 230 on.  Only the
    sampled columns are kept, and with ``history`` the states as well.
    """
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    stepper = Stepper(system, dt, scheme, gain)
    n_steps = _steps(t_max, dt)
    chunk_steps = max(1, int(round(chunk / dt)))
    forms = quadratic_forms(system.grid)
    z = state_vector(system, z0)
    # _BLOCK-step segments where the jump map repays its squarings, else one
    seg = _BLOCK if n_steps >= _JUMP_PAYOFF * system.dim ** 2 else n_steps
    n_seg = -(-n_steps // seg)
    jump = _JumpMap(stepper, system, outputs=False) if n_seg > 1 else None
    y = None if jump is None else jump.restrict(z)  # the next start, chained in y
    # the last segment runs to its end past t_max; those steps are cut off
    states = np.empty((n_seg * seg + 1, system.dim)) if history else None
    inputs = np.empty(n_seg * seg + 1)
    samples = np.empty((7, n_seg * seg + 1))
    inputs[0] = 0.0 - stepper.gain @ z
    samples[:, :1] = _sample(z[:, None], system, forms)
    if history:
        states[0] = z
    k, peak, marched = 0, 0.0, 0
    while k < n_steps:
        end = min(k + chunk_steps, n_steps)
        # rounds of _COLUMNS segments side by side, fixed whatever the chunk
        while marched < end:
            first = marched // seg
            m = min(_COLUMNS, n_seg - first)
            starts, y = (z[:, None], None) if jump is None else jump.starts(y, m)
            if first == 0:  # z0 itself, not its round trip through the mirror basis
                starts[:, 0] = z
            steps = slice(marched + 1, marched + m * seg + 1)
            ends = _march(stepper, starts[:, :m], seg, system, forms, inputs[steps],
                          samples[:, steps], None if states is None else states[steps])
            if jump is not None:
                _check_jumps(starts, ends, first)
            marched = steps.stop - 1
        g = inputs[k:end + 1] ** 2 + samples[1, k:end + 1] ** 2
        peak = max(peak, float(g.max()))
        k = end
        if peak > 0 and g[-1] <= STOP_RATIO * peak:
            break
    return Trajectory(dt * np.arange(k + 1), inputs[:k + 1], samples[:, :k + 1], system,
                      states[:k + 1] if history else None)


def _midpoint_squares(*rows):
    """The sum over ``rows`` of ((x_j + x_j+1)/2)^2, for consecutive entries j along axis 0."""
    return sum((0.5 * (x[:-1] + x[1:])) ** 2 for x in rows)


def feedback_costs(system, z0, gains, T, dt, scheme):
    """Costs over [0, T] of the closed loops u = -K z from z0, one per row K of ``gains``.

    The m loops share one factorisation and march ``_BLOCK`` steps per
    block by the jump map: one batched product of the start states with
    its ``reads`` gives every step's K z and C z at both of its ends, and
    F y + R v moves to the next start.  A last part of fewer than
    ``_BLOCK`` steps is stepped by ``Stepper.advance``.  Only the running
    cost is kept, not the state history: each step adds
    dt * (((u_k + u_k+1)/2)^2 + ((Hdot_k + Hdot_k+1)/2)^2).  That sum is
    exact only under the trapezoidal scheme: there the step moves
    z_k+1 - z_k = dt (A zbar + B ubar) at the midpoint zbar, ubar = -K zbar,
    so for the Riccati gain <P z0, z0> is the sum plus z(T)^T P z(T), to
    rounding; under implicit Euler it is first-order accurate.
    Returns the m sums as an (m,) array and the final states z(T) as the
    columns of a (dim, m) block.
    """
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    gains = np.atleast_2d(np.asarray(gains, dtype=float))
    stepper = Stepper(system, dt, scheme, gains)
    n_steps = _steps(T, dt)
    m = gains.shape[0]
    z = np.repeat(state_vector(system, z0)[:, None], m, axis=1)
    running = np.empty((n_steps, m))
    n_blocks = n_steps // _BLOCK
    if n_blocks:
        jump = _JumpMap(stepper, system, outputs=True)
        y = jump.restrict(z)
        for k in range(0, n_blocks * _BLOCK, _BLOCK):
            out = np.matmul(jump.reads, y.T[:, :, None])[:, :, 0].T  # (2*_BLOCK + 2, m)
            kz, cz = out[:_BLOCK + 1], out[_BLOCK + 1:]  # K z_j and C z_j, j <= _BLOCK
            running[k:k + _BLOCK] = _midpoint_squares(kz, cz)
            y = jump.advance(y, kz)
        z = jump.lift(y)
    inputs, outputs = [-np.vecdot(gains, z.T)], [system.C @ z]
    for _ in range(n_blocks * _BLOCK, n_steps):
        z, u = stepper.advance(z)
        inputs.append(u)
        outputs.append(system.C @ z)
    running[n_blocks * _BLOCK:] = _midpoint_squares(np.array(inputs), np.array(outputs))
    return dt * running.sum(axis=0), z


@dataclass
class EnergyBalanceReport:
    """Step-by-step audit of the discrete energy identity.

    ``lhs`` holds the energy difference quotients, ``rhs`` the midpoint
    values of -mu*||dq/dx||^2 + u*Hdot minus the sponge sink (recorded
    separately in ``sponge_sink``).
    """

    lhs: np.ndarray
    rhs: np.ndarray
    sponge_sink: np.ndarray

    @property
    def max_defect(self) -> float:
        return float(np.abs(self.lhs - self.rhs).max(initial=0.0))

    def to_json_dict(self) -> dict:
        return {
            "max_defect": self.max_defect,
            "mean_defect": float(np.mean(np.abs(self.lhs - self.rhs))),
            "steps": len(self.lhs),
            "max_sponge_sink": float(self.sponge_sink.max(initial=0.0)),
        }


def energy_balance_report(trajectory: Trajectory) -> EnergyBalanceReport:
    """Compare energy difference quotients against the dissipation identity.

    The continuous identity is dE/dt = -mu*||dq/dx||^2 + u*Hdot; the
    discrete march adds the sponge sink.  The right-hand side is
    evaluated at both step endpoints and averaged, matching the order of
    the trapezoidal scheme; its terms are the z^T G z and z^T S z that
    the march sampled, so no state history is needed.
    """
    lhs = np.diff(trajectory.energies) / np.diff(trajectory.times)
    gradsq, sink = trajectory.samples[5:]
    rate = -trajectory.system.grid.params.mu * gradsq + trajectory.inputs * trajectory.outputs()
    sink_mid = 0.5 * (sink[:-1] + sink[1:])
    rhs = 0.5 * (rate[:-1] + rate[1:]) - sink_mid
    return EnergyBalanceReport(lhs, rhs, sink_mid)
