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
so the closed loop A - B K is never formed.  ``simulate_adaptive``
steps into a buffer of a few dozen rows and, each time it fills,
reduces it to the sampled columns (H, Hdot, q-+, the energy and the
energy audit's two quadratic forms) while the block is still in cache,
so it keeps no state history; ``simulate`` is its single chunk and
keeps the history as well.  ``feedback_costs`` marches several
feedback gains at once on one factorisation and keeps only the running
cost |u|^2 + |Hdot|^2, which needs two numbers a step, u = -K z and
Hdot = C z.  So it carries the rows K, C and the weighted input row of
each loop ``_BLOCK`` steps back through the adjoint of the loop's step
(transposed solves on the same LU), and then reads a whole block of
outputs from one batched product with the block's start states; the
next start is F z + R v, with F the free step to the power ``_BLOCK``
(log2 ``_BLOCK`` squarings) and R its response to the weighted inputs v.
The squarings cost about 2 log2(_BLOCK) dim^3 flops, which the saved
solves repay several times over at the default grid; the two break even
near dim 1600.  ``lqr.compare_feedbacks`` marches the mirror-even half,
of dim 2 n_side, so there the break-even is near n_side 800 (n_side 400
on the full state).  The cost beyond the horizon is priced by the caller
from the final states (``lqr.compare_feedbacks`` uses z(T)^T P z(T)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .discretization import SemiDiscreteSystem, State, quadratic_forms
from .errors import SingularSystem

SCHEMES = ("trapezoidal", "implicit_euler")
#: Steps per block that a march reduces to its sampled columns at once.
#: At dim 399 a block and the temporaries of its three forms then stay in
#: a 2 MB L2 cache; 128 and 256 rows made the march 15-20 % slower.
#: ``feedback_costs`` advances by one block per dense product; a power of
#: two, so that its free map Phi0^_BLOCK is a few squarings.
_BLOCK = 64
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
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        self.dt = float(dt)
        self.scheme = scheme
        self.theta = 0.5 if scheme == "trapezoidal" else 1.0
        a = sps.csc_array(system.A)
        eye = sps.identity(system.dim, format="csc")
        try:
            self._lu = splu(sps.csc_array(eye - self.theta * self.dt * a))
        except RuntimeError as exc:
            raise SingularSystem(f"implicit matrix singular for dt={dt}") from exc
        self._dt_w = self.dt * self._lu.solve(np.asarray(system.B, dtype=float))
        self._lag = (1.0 - self.theta) / self.theta
        self.gain = np.zeros(system.dim) if gain is None else np.asarray(gain, dtype=float)
        self._scale = -1.0 / (1.0 + np.vecdot(self.gain, self.theta * self._dt_w))

    def advance(self, z):
        """(z1, u1): one step from z; the m columns of a (dim, m) block share the solve."""
        s = self._lu.solve(z)
        weighted = np.vecdot(self.gain, s.T) * self._scale
        # the solve returns a (dim, m) block in column-major order; the
        # transposed outer product keeps that order, so the elementwise
        # operations run along columns and the next solve needs no copy
        z1 = s / self.theta + np.multiply.outer(weighted, self._dt_w).T
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

    def block_maps(self, c):
        """The maps that advance the m loops of an (m, dim) gain block ``_BLOCK`` steps at once.

        Loop i steps by Phi_i = Phi0 + w v_i, with w = dt M^-1 B and
        v_i = sigma_i K_i M^-1 its weighted input row (sigma_i the
        Sherman-Morrison scale).  Returns ``reads``, whose (3*_BLOCK, dim)
        slab i holds the rows K_i Phi_i^j, c Phi_i^j and v_i Phi_i^j for
        j < _BLOCK, carried by the adjoint r Phi_i = r Phi0 + (r w) v_i in
        transposed solves; the free map F = Phi0^_BLOCK, by squarings; and
        R = [Phi0^(_BLOCK-1) w, ..., w].  A block then moves the start
        states z to F z + R v, v being the weighted inputs that ``reads``
        gives.
        """
        dim = self._dt_w.size
        free = self._free(np.eye(dim), "N")
        for _ in range(_BLOCK.bit_length() - 1):
            free = free @ free
        inputs = np.empty((dim, _BLOCK))
        inputs[:, -1] = self._dt_w
        for j in range(_BLOCK - 1, 0, -1):
            inputs[:, j - 1] = self._free(inputs[:, j], "N")
        m = self.gain.shape[0]
        weighted = self._scale[:, None] * self._lu.solve(self.gain.T, "T").T
        rows = np.stack([self.gain, np.broadcast_to(c, self.gain.shape), weighted], axis=1)
        reads = np.empty((m, 3, _BLOCK, dim))
        reads[:, :, 0] = rows
        for j in range(1, _BLOCK):
            free_rows = self._free(rows.reshape(3 * m, dim).T, "T").T.reshape(m, 3, dim)
            rows = free_rows + (rows @ self._dt_w)[:, :, None] * weighted[:, None, :]
            reads[:, :, j] = rows
        return reads.reshape(m, 3 * _BLOCK, dim), free, inputs


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


def _sample(block, system, forms, out):
    """Reduce the states in the rows of ``block`` to the columns of ``out``.

    ``out`` is a (7, len(block)) slice of ``Trajectory.samples`` and
    ``forms`` are (W, G, S).  Every block has at least two rows, so each
    product takes the same path and a sample does not depend on the block
    it fell in.
    """
    lay = system.grid.layout
    out[0] = block[:, lay.H]
    out[1] = block @ system.C
    out[2] = block[:, lay.q_minus]
    out[3] = block[:, lay.q_plus]
    for values, form in zip(out[4:], forms):
        values[:] = np.einsum("ti,ti->t", block @ form, block)
    out[4] *= 0.5


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
    One factorisation serves the whole run.  The states pass through a
    buffer of ``_BLOCK`` + 1 rows, the last state of a block being the
    first of the next, and only the sampled columns are kept; with
    ``history`` the buffer is the state history itself.
    """
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    stepper = Stepper(system, dt, scheme, gain)
    n_steps = _steps(t_max, dt)
    chunk_steps = max(1, int(round(chunk / dt)))
    forms = quadratic_forms(system.grid)
    # the history, or a buffer for one block and the state carried into it
    states = np.empty((n_steps + 1 if history else _BLOCK + 1, system.dim))
    inputs = np.empty(n_steps + 1)
    samples = np.empty((7, n_steps + 1))
    z = state_vector(system, z0)
    inputs[0] = 0.0 - stepper.gain @ z
    k, peak = 0, 0.0
    while k < n_steps:
        start, end = k, min(k + chunk_steps, n_steps)
        while k < end:
            n = min(_BLOCK, end - k)
            block = states[k:k + n + 1] if history else states[:n + 1]
            block[0] = z
            for j in range(1, n + 1):
                z, inputs[k + j] = stepper.advance(z)
                block[j] = z
            _sample(block, system, forms, samples[:, k:k + n + 1])
            k += n
        g = inputs[start:end + 1] ** 2 + samples[1, start:end + 1] ** 2
        peak = max(peak, float(g.max()))
        if peak > 0 and g[-1] <= STOP_RATIO * peak:
            break
    return Trajectory(dt * np.arange(k + 1), inputs[:k + 1], samples[:, :k + 1], system,
                      states[:k + 1] if history else None)


def feedback_costs(system, z0, gains, T, dt, scheme):
    """Costs over [0, T] of the closed loops u = -K z from z0, one per row K of ``gains``.

    The m loops share one factorisation and march ``_BLOCK`` steps per
    block: one batched product of the start states with the rows of
    ``Stepper.block_maps`` reads every step's u = -K z, Hdot = C z and
    weighted input, and F z + R v moves to the next start.  A last part
    of fewer than ``_BLOCK`` steps is stepped by ``Stepper.advance``.
    The maps cost about 2 log2(_BLOCK) dim^3 flops of squarings, against
    a sparse solve per step saved: the block march wins at the default
    grid and breaks even near dim 1600 (n_side 800 on the even half that
    ``lqr.compare_feedbacks`` marches).  Only the running cost
    |u|^2 + |Hdot|^2 is kept, not the state history.
    Returns its m trapezoid integrals as an (m,) array and the final
    states z(T) as the columns of a (dim, m) block.
    """
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    gains = np.atleast_2d(np.asarray(gains, dtype=float))
    stepper = Stepper(system, dt, scheme, gains)
    n_steps = _steps(T, dt)
    m = gains.shape[0]
    z = np.repeat(state_vector(system, z0)[:, None], m, axis=1)
    running = np.empty((n_steps + 1, m))
    n_blocks = n_steps // _BLOCK
    if n_blocks:
        reads, free, inputs = stepper.block_maps(system.C)
        for k in range(0, n_blocks * _BLOCK, _BLOCK):
            out = np.matmul(reads, z.T[:, :, None]).reshape(m, 3, _BLOCK)
            u, hdot, v = out.transpose(1, 2, 0)  # each (_BLOCK, m)
            running[k:k + _BLOCK] = u ** 2 + hdot ** 2
            z = free @ z + inputs @ v
    k = n_blocks * _BLOCK
    running[k] = np.vecdot(gains, z.T) ** 2 + (system.C @ z) ** 2
    for k in range(k + 1, n_steps + 1):
        z, u = stepper.advance(z)
        running[k] = u ** 2 + (system.C @ z) ** 2
    return np.trapezoid(running, dx=dt, axis=0), z


@dataclass
class EnergyBalanceReport:
    """Step-by-step audit of the discrete energy identity.

    ``lhs`` holds the energy difference quotients, ``rhs`` the midpoint
    values of -mu*||dq/dx||^2 + u*Hdot minus the sponge sink (recorded
    separately in ``sponge_sink``).
    """

    times_mid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    sponge_sink: np.ndarray
    max_defect: float

    def to_json_dict(self) -> dict:
        return {
            "max_defect": self.max_defect,
            "mean_defect": float(np.mean(np.abs(self.lhs - self.rhs))),
            "steps": len(self.times_mid),
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
    times_mid = 0.5 * (trajectory.times[:-1] + trajectory.times[1:])
    max_defect = float(np.abs(lhs - rhs).max(initial=0.0))
    return EnergyBalanceReport(times_mid, lhs, rhs, sink_mid, max_defect)
