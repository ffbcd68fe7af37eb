"""Time integration, energy bookkeeping and cost evaluation.

The semigroup is analytic, so the semi-discrete system is stiff and the
schemes here are unconditionally stable implicit one-step methods:
trapezoidal (default, second order) and implicit Euler.  The generator
has a few nonzeros per row, so the implicit matrix I - theta*dt*A is
factorised once per march with a sparse LU (theta = 1/2 trapezoidal, 1
implicit Euler).  A state feedback u = -K z never forms the dense closed
loop A - B K: it enters each step as a rank-one (Sherman-Morrison)
correction along w = (I - theta*dt*A)^-1 B, so the open loop, the energy
feedbacks and the Riccati gain all step on the same kind of
factorisation.  The adaptive horizon marches into one preallocated
history with a single factorisation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .discretization import SemiDiscreteSystem, State, dqdx_nodal, energy_matrix
from .errors import NonDecayingTail, SingularSystem

_SCHEMES = ("trapezoidal", "implicit_euler")
#: Rows per block of the energy quadratic form: bounds its temporaries.
_ENERGY_BLOCK = 1024


class Stepper:
    """One-step implicit integrator with a cached sparse LU factorisation."""

    def __init__(self, system: SemiDiscreteSystem, dt, scheme="trapezoidal"):
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
        self.system = system
        self.dt = float(dt)
        self.scheme = scheme
        self.theta = 0.5 if scheme == "trapezoidal" else 1.0
        a = sps.csc_array(system.A)
        eye = sps.identity(system.dim, format="csc")
        self._explicit = (eye + 0.5 * self.dt * a).tocsr() if scheme == "trapezoidal" else None
        try:
            self._lu = splu(sps.csc_array(eye - self.theta * self.dt * a))
        except RuntimeError as exc:
            raise SingularSystem(f"implicit matrix singular for dt={dt}") from exc
        self._w = self._lu.solve(np.asarray(system.B, dtype=float))

    def advance(self, z, u_now, u_next):
        b = self.system.B
        if self._explicit is not None:
            rhs = self._explicit @ z + 0.5 * self.dt * b * (u_now + u_next)
        else:
            rhs = z + self.dt * b * u_next
        return self._lu.solve(rhs)


@dataclass
class Trajectory:
    """Sampled closed- or open-loop run with per-sample energy."""

    times: np.ndarray
    states: np.ndarray  # (n_samples, state_dim)
    inputs: np.ndarray
    energies: np.ndarray
    system: SemiDiscreteSystem

    def outputs(self) -> np.ndarray:
        """Hdot = C z along the trajectory."""
        return self.states @ self.system.C

    def state_at(self, k) -> State:
        return State.unflatten(self.states[k], self.system.grid)

    def write_csv(self, path):
        lay = self.system.grid.layout
        data = np.column_stack([
            self.times,
            self.states[:, lay.H],
            self.outputs(),
            self.states[:, lay.q_minus],
            self.states[:, lay.q_plus],
            self.energies,
            self.inputs,
        ])
        np.savetxt(path, data, delimiter=",",
                   header="t,H,Hdot,q_minus,q_plus,E,u", comments="")


def _march(stepper, states, inputs, start, stop, gain):
    """Fill rows start+1..stop of ``states`` by stepping from row ``start``.

    Without a gain ``inputs`` holds the open-loop samples.  With a gain K
    the step solves (I - theta*dt*(A - B K)) z1 = ... through the open-loop
    factorisation: y steps with u_next = 0, then u_next = -K z1 follows
    from z1 = y + theta*dt*w*u_next, and is recorded in ``inputs``.
    """
    z = states[start]
    if gain is None:
        for k in range(start + 1, stop + 1):
            z = stepper.advance(z, inputs[k - 1], inputs[k])
            states[k] = z
        return
    correction = stepper.theta * stepper.dt * stepper._w
    denominator = 1.0 + gain @ correction
    for k in range(start + 1, stop + 1):
        y = stepper.advance(z, inputs[k - 1], 0.0)
        u_next = -(gain @ y) / denominator
        z = y + correction * u_next
        states[k] = z
        inputs[k] = u_next


def _energies(states, grid):
    """0.5 * z^T W z per row, one block of rows at a time."""
    w = sps.csr_array(energy_matrix(grid))
    out = np.empty(states.shape[0])
    for i in range(0, states.shape[0], _ENERGY_BLOCK):
        block = states[i:i + _ENERGY_BLOCK]
        out[i:i + _ENERGY_BLOCK] = 0.5 * np.einsum("ti,ti->t", block @ w, block)
    return out


def _start(system, z0, n_steps, gain):
    """Empty history with z0 in row 0, and the feedback row vector if any."""
    states = np.empty((n_steps + 1, system.dim))
    states[0] = z0.flatten(system.grid) if isinstance(z0, State) else z0
    inputs = np.zeros(n_steps + 1)
    if gain is not None:
        gain = np.asarray(gain, dtype=float).reshape(-1)
        inputs[0] = -gain @ states[0]
    return states, inputs, gain


def simulate(system, z0, T, dt, u=None, gain=None, scheme="trapezoidal") -> Trajectory:
    """March the system from z0 for a horizon T with step dt.

    ``u`` gives an open-loop input (a callable of t or an array with one
    sample per step boundary); ``gain`` a state-feedback row vector K
    applying u = -K z.  At most one of the two may be given; neither
    means u = 0.
    """
    if u is not None and gain is not None:
        raise ValueError("pass an open-loop input or a feedback gain, not both")
    if not (T > 0 and dt > 0):
        raise ValueError("T and dt must be positive")
    n_steps = int(round(T / dt))
    times = dt * np.arange(n_steps + 1)
    states, inputs, gain = _start(system, z0, n_steps, gain)
    if callable(u):
        inputs[:] = [u(t) for t in times]
    elif u is not None:
        u_samples = np.asarray(u, dtype=float)
        if u_samples.shape != times.shape:
            raise ValueError(f"open-loop input must have {n_steps + 1} samples")
        inputs[:] = u_samples
    _march(Stepper(system, dt, scheme), states, inputs, 0, n_steps, gain)
    return Trajectory(times, states, inputs, _energies(states, system.grid), system)


def simulate_adaptive(system, z0, dt, t_max, u=None, gain=None,
                      scheme="trapezoidal", stop_ratio=1e-12, chunk=25.0) -> Trajectory:
    """March until the running cost integrand dies out or t_max.

    The stop test runs at the end of every ``chunk`` time units and
    compares |u|^2 + |Hdot|^2 there against its peak over the whole run;
    the system is not exponentially stable, so t_max caps the horizon
    when decay is slow.  One factorisation serves the whole run.
    """
    if u is not None:
        raise ValueError("adaptive horizon supports zero input or feedback only")
    if not (t_max > 0 and dt > 0):
        raise ValueError("t_max and dt must be positive")
    n_steps = int(round(t_max / dt))
    chunk_steps = max(1, int(round(chunk / dt)))
    states, inputs, gain = _start(system, z0, n_steps, gain)
    stepper = Stepper(system, dt, scheme)
    k, peak = 0, 0.0
    while k < n_steps:
        end = min(k + chunk_steps, n_steps)
        _march(stepper, states, inputs, k, end, gain)
        g = inputs[k:end + 1] ** 2 + (states[k:end + 1] @ system.C) ** 2
        k = end
        peak = max(peak, float(g.max()))
        if peak > 0 and g[-1] <= stop_ratio * peak:
            break
    states = states[:k + 1]
    return Trajectory(dt * np.arange(k + 1), states, inputs[:k + 1],
                      _energies(states, system.grid), system)


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

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)


def _dissipation_terms(trajectory):
    """Per-sample (-mu*||dq/dx||^2 + u*Hdot, sponge sink) along a trajectory."""
    system = trajectory.system
    grid = system.grid
    mu = grid.params.mu
    a = grid.params.a
    xl, xr = grid.x_left, grid.x_right
    sig_l, sig_r = grid.sponge(xl), grid.sponge(xr)
    hdots = trajectory.outputs()
    n_samples = trajectory.states.shape[0]
    rate = np.empty(n_samples)
    sink = np.empty(n_samples)
    for k in range(n_samples):
        st = trajectory.state_at(k)
        gradsq = np.trapezoid(dqdx_nodal(st.q_left, grid.spacing) ** 2, xl) \
            + np.trapezoid(dqdx_nodal(st.q_right, grid.spacing) ** 2, xr) \
            + 2.0 * a * hdots[k] ** 2  # interior slope is -Hdot
        sink[k] = np.trapezoid(sig_l * st.q_left ** 2, xl) \
            + np.trapezoid(sig_r * st.q_right ** 2, xr)
        rate[k] = -mu * gradsq + trajectory.inputs[k] * hdots[k]
    return rate, sink


def energy_balance_report(trajectory: Trajectory) -> EnergyBalanceReport:
    """Compare energy difference quotients against the dissipation identity.

    The continuous identity is dE/dt = -mu*||dq/dx||^2 + u*Hdot; the
    discrete march adds the sponge sink.  The right-hand side is
    evaluated at both step endpoints and averaged, matching the order of
    the trapezoidal scheme.
    """
    dt = np.diff(trajectory.times)
    lhs = np.diff(trajectory.energies) / dt
    rate, sink = _dissipation_terms(trajectory)
    rhs = 0.5 * (rate[:-1] + rate[1:]) - 0.5 * (sink[:-1] + sink[1:])
    times_mid = 0.5 * (trajectory.times[:-1] + trajectory.times[1:])
    sink_mid = 0.5 * (sink[:-1] + sink[1:])
    max_defect = float(np.abs(lhs - rhs).max(initial=0.0))
    return EnergyBalanceReport(times_mid, lhs, rhs, sink_mid, max_defect)


@dataclass
class CostReport:
    """Quadratic cost of a run: J = int |u|^2 + |Hdot|^2 dt plus a tail fit."""

    J: float
    u_part: float
    y_part: float
    horizon: float
    tail_estimate: float

    @property
    def total(self) -> float:
        """Finite-horizon cost plus the fitted infinite-horizon remainder."""
        return self.J + self.tail_estimate

    def to_json_dict(self) -> dict:
        return {
            "J": self.J, "u_part": self.u_part, "y_part": self.y_part,
            "horizon": self.horizon, "tail_estimate": self.tail_estimate,
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)


def cost(trajectory: Trajectory) -> CostReport:
    """Trapezoid quadrature of the running cost, with an exponential tail fit.

    The integrand g = |u|^2 + |Hdot|^2 over the last quarter of the
    horizon is fit with a decaying exponential; a fitted growth raises
    NonDecayingTail since the horizon is then too short for the tail to
    mean anything.
    """
    t = trajectory.times
    y = trajectory.outputs()
    g = trajectory.inputs ** 2 + y ** 2
    u_part = float(np.trapezoid(trajectory.inputs ** 2, t))
    y_part = float(np.trapezoid(y ** 2, t))
    horizon = float(t[-1] - t[0])

    tail = 0.0
    j_finite = u_part + y_part
    if g.max(initial=0.0) > 0:
        sel = t >= t[0] + 0.75 * horizon
        tt, gg = t[sel], g[sel]
        # smooth over a quarter of the fit window so an oscillating
        # integrand is judged by its envelope, not its ripple
        window = max(1, gg.size // 4)
        if window > 1:
            kernel = np.full(window, 1.0 / window)
            gg = np.convolve(gg, kernel, mode="valid")
            tt = tt[window - 1:]
        pos = gg > 1e-300
        if pos.sum() >= 2:
            slope = np.polyfit(tt[pos], np.log(gg[pos]), 1)[0]
            # a fitted rise means "horizon too short" only while another
            # horizon's worth at the current level would still move J;
            # below that the residue is beat ripple of near-undamped modes
            end_level = float(g[int(0.95 * (g.size - 1)):].max())
            if slope > 1e-12 and end_level * horizon > 1e-2 * max(j_finite, 1e-300):
                raise NonDecayingTail(
                    f"running cost grows at fitted rate {slope:.3e}; extend the horizon")
            if slope < 0:
                tail = float(gg[-1] / (-slope))
    return CostReport(j_finite, u_part, y_part, horizon, tail)
