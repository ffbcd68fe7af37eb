"""Property suites shared by the verify command and the acceptance tests.

Each suite function exercises one module's invariants on seeded random
data and returns a plain dict (suite name, boolean verdict, numeric
details) so the reports serialize deterministically.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import discretization as dz
from . import dynamics as dyn
from . import lqr as lqr_mod
from . import resolvent as rv
from . import spectral as sp
from .errors import DegenerateLambda
from .linalg import eigenvalues, lu_solve, matrix_sign, schur_real, sym_eigen

# ---------------------------------------------------------------------------
# random data generators


def branch_cut_samples(params, n_total, rng):
    """Sample frequencies for the two-characterization agreement check.

    Half the samples sit on or near the excluded set (circle and
    half-line, split evenly; "near" means a clear 1e-6..1e-1 offset,
    outside the membership tolerance band); the other half fills a box
    around the origin.  The circle angles avoid the tangency point at
    the origin where float rounding would make membership ill-posed.
    """
    mu = params.mu
    r = 1.0 / mu
    quarter = n_total // 4
    lams = []
    for _ in range(quarter):  # circle, exactly on or clearly off
        theta = rng.uniform(1e-4, 2.0 * math.pi - 1e-4)
        radius = r
        if rng.random() < 0.5:
            radius += rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-6, -1) * r
        lams.append(-r + radius * cmath.exp(1j * theta))
    for _ in range(quarter):  # half-line, exactly on or clearly off
        s = 10 ** rng.uniform(-3, 1.5)
        eta = 0.0
        if rng.random() < 0.5:
            eta = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-6, -1)
        lams.append(complex(-r - s, eta))
    while len(lams) < n_total:
        lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if lam != 0 and lam != -r:
            lams.append(lam)
    return lams


def wave_packet_pair(grid, rng, n_packets=2):
    """Random sum of Gaussian wave packets on both sides, with derivative.

    Packets are centred well inside the exterior (|x| in [4.5, 6.5]a),
    wide enough to be resolved on the default grid, and carry a slow
    carrier wave; returns nodal values and nodal derivatives as
    (f_left, fp_left, f_right, fp_right).
    """
    def params():
        return [(rng.uniform(0.5, 1.0), rng.uniform(4.5, 6.5), rng.uniform(2.2, 3.0),
                 rng.uniform(0.05, 0.15), rng.uniform(0, 2 * math.pi))
                for _ in range(n_packets)]

    def sample(pk, sgn, xs):
        f = np.zeros_like(xs)
        fp = np.zeros_like(xs)
        for c, x0, w, g, ph in pk:
            env = np.exp(-((sgn * xs - x0) / w) ** 2)
            f += c * env * np.cos(g * xs + ph)
            fp += c * env * (-2.0 * (sgn * xs - x0) / w**2 * sgn * np.cos(g * xs + ph)
                             - g * np.sin(g * xs + ph))
        return f, fp

    fl, fpl = sample(params(), -1.0, grid.x_left)
    fr, fpr = sample(params(), +1.0, grid.x_right)
    return fl, fpl, fr, fpr


def _pair_norm(grid, vl, vr):
    return math.sqrt(np.trapezoid(np.abs(vl) ** 2, grid.x_left)
                     + np.trapezoid(np.abs(vr) ** 2, grid.x_right))


def random_resolvent_input(grid, rng) -> rv.ResolventInput:
    """Random right-hand side with normalized components.

    The surface-height pair is scaled to unit discrete L2 norm, the flux
    pair to norm 0.12 and the three scalars to magnitude 0.25, so every
    channel is exercised while the input stays resolved on the grid.
    """
    xl, xr = grid.x_left, grid.x_right
    f2l, f2pl, f2r, f2pr = wave_packet_pair(grid, rng)
    s2 = _pair_norm(grid, f2l, f2r)
    f2l, f2pl, f2r, f2pr = f2l / s2, f2pl / s2, f2r / s2, f2pr / s2
    f3l, _, f3r, _ = wave_packet_pair(grid, rng)
    s3 = _pair_norm(grid, f3l, f3r) / 0.12
    f3l, f3r = f3l / s3, f3r / s3
    sign = lambda: float(rng.choice([-1.0, 1.0]))
    H = rv.HalfLineFunction
    return rv.ResolventInput(
        0.25 * sign(),
        (H("left", xl, f2l), H("right", xr, f2r)),
        (H("left", xl, f2pl), H("right", xr, f2pr)),
        (H("left", xl, f3l), H("right", xr, f3r)),
        0.25 * sign(), 0.25 * sign())


def resolvent_defect(system, lam, inp: rv.ResolventInput,
                     out: rv.ResolventOutput | None = None) -> float:
    """Relative residual ||(lam*I - A_h) z_lam - F|| / ||F|| (vector 2-norms)."""
    grid = system.grid
    lay = grid.layout
    if out is None:
        out = rv.resolvent_apply(lam, grid.params, inp)

    def flat(f1, pair_h, pair_q, f4, f5):
        z = dz.State(f1, *(f.values for f in pair_h + pair_q)).flatten(grid)
        z[lay.q_minus], z[lay.q_plus] = f4, f5
        return z

    z = flat(out.H_lambda, out.h_lambda, out.q_lambda, out.q_minus, out.q_plus)
    f_vec = flat(inp.f1, inp.f2, inp.f3, inp.f4, inp.f5)
    residual = lam * z - system.A @ z - f_vec
    return float(np.linalg.norm(residual) / np.linalg.norm(f_vec))


# ---------------------------------------------------------------------------
# suites


def suite_coupling_matrix(fault=None):
    """Closed-form coupling matrix against its closed-form inverse."""
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        params = sp.PhysicalParams(a, 1.0)
        m = sp.coupling_matrix(params)
        mi = sp.coupling_matrix_inverse(params)
        if fault == "m_inverse":
            mi = mi.copy()
            mi[0, 0] *= 1.0 + 1e-6
        worst = max(worst, float(np.abs(m @ mi - np.eye(2)).max()))
    return {"name": "coupling_matrix", "passed": worst <= 1e-13,
            "max_identity_defect": worst}


def suite_branch_cut(params=sp.PhysicalParams(), n_samples=10_000, seed=0):
    """Geometric vs sign characterization of the excluded set, plus scaling."""
    rng = np.random.default_rng(seed)
    lams = branch_cut_samples(params, n_samples, rng)
    disagreements = 0
    for lam in lams:
        geo, ratio = sp.branch_cut_characterizations(lam, params)
        if geo != ratio:
            disagreements += 1
    # viscosity scaling: classification of lam at mu equals mu*lam at 1
    mu = 2.7
    scaled = sp.PhysicalParams(1.0, mu)
    unit = sp.PhysicalParams(1.0, 1.0)
    scale_bad = 0
    for lam in branch_cut_samples(scaled, 2000, rng):
        if sp.on_branch_cut(lam, scaled) != sp.on_branch_cut(mu * lam, unit):
            scale_bad += 1
    return {"name": "branch_cut", "passed": disagreements == 0 and scale_bad == 0,
            "samples": len(lams), "disagreements": disagreements,
            "scaling_disagreements": scale_bad}


def suite_square_root(params=sp.PhysicalParams(), n_samples=10_000, seed=1):
    """Principal-root properties of the Helmholtz rate omega."""
    rng = np.random.default_rng(seed)
    min_re = math.inf
    worst_sq = 0.0
    count = 0
    while count < n_samples:
        lam = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        try:
            if lam == 0 or sp.on_branch_cut(lam, params):
                continue
        except DegenerateLambda:
            continue
        om = sp.helmholtz_omega(lam, params)
        min_re = min(min_re, om.real)
        rel = abs(om * om * (1.0 + params.mu * lam) - lam * lam) / abs(lam * lam)
        worst_sq = max(worst_sq, rel)
        count += 1
    # classical identity Re sqrt(z) = sqrt((|z| + Re z)/2) off the cut
    worst_formula = 0.0
    for _ in range(n_samples // 10):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if z.real < 0 and abs(z.imag) < 1e-12:
            continue
        lhs = cmath.sqrt(z).real
        rhs = math.sqrt(0.5 * (abs(z) + z.real))
        worst_formula = max(worst_formula, abs(lhs - rhs))
    passed = min_re > 0 and worst_sq <= 1e-12 and worst_formula <= 1e-12
    return {"name": "square_root", "passed": bool(passed),
            "min_re_omega": min_re, "worst_square_identity": worst_sq,
            "worst_re_formula": worst_formula}


def suite_boundary_matrix(params=sp.PhysicalParams(), seed=2):
    """Symmetry, feedback shift, determinant form and singular points."""
    rng = np.random.default_rng(seed)
    worst_sym = worst_shift = worst_det = 0.0
    n_done = 0
    while n_done < 200:
        lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        try:
            if lam == 0 or sp.on_branch_cut(lam, params):
                continue
        except DegenerateLambda:
            continue
        m = sp.boundary_system_matrix(lam, params)
        worst_sym = max(worst_sym, abs(m[0, 1] - m[1, 0]))
        shift = sp.boundary_system_matrix_feedback(lam, params) - m
        worst_shift = max(worst_shift, float(np.abs(shift - np.eye(2)).max()))
        det_direct = np.linalg.det(m)
        det_closed = sp.boundary_system_determinant(lam, params)
        worst_det = max(worst_det, float(abs(det_direct - det_closed)) / max(1.0, abs(det_closed)))
        n_done += 1
    sing = sp.singular_points(params)
    sing_ok = len(sing) <= 4 and all(r.real <= 0 for r in sing.roots) \
        and all(res < 1e-8 for res in sing.residuals)
    passed = worst_sym == 0.0 and worst_shift <= 1e-12 and worst_det <= 1e-10 and sing_ok
    return {"name": "boundary_matrix", "passed": bool(passed),
            "worst_symmetry": worst_sym, "worst_feedback_shift": worst_shift,
            "worst_det_mismatch": worst_det, "singular_count": len(sing)}


def suite_halfline(params=sp.PhysicalParams(), n_trials=100, seed=3):
    """Norm bounds of the half-line operators on random draws.

    The decaying-extension bound is an equality in the continuum, so the
    check runs on a fine grid where the quadrature overshoot stays well
    inside the 1e-3 relative slack.
    """
    rng = np.random.default_rng(seed)
    a, L, h = params.a, 20.0 * params.a, 0.002
    grid = np.arange(a, L + h / 2, h)
    worst_d = worst_r = -math.inf
    for _ in range(n_trials):
        omega = complex(10 ** rng.uniform(-1, 1), rng.uniform(-10, 10))
        side = "right" if rng.random() < 0.5 else "left"
        g = grid if side == "right" else -grid[::-1]
        ext = rv.exponential_extension(side, omega, 1.0, g)
        bound_d = 1.0 / math.sqrt(2.0 * omega.real)
        worst_d = max(worst_d, ext.l2_norm() / bound_d - 1.0)
        vals = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        phi = rv.HalfLineFunction(side, g, vals)
        part = rv.helmholtz_particular(side, omega, phi)
        bound_r = 3.0 / (2.0 * abs(omega) * omega.real) * phi.l2_norm()
        worst_r = max(worst_r, part.l2_norm() / bound_r - 1.0)
    # closed-form oracle at the default truncation
    h0 = 0.01
    g = np.arange(a, L + h0 / 2, h0)
    phi = rv.HalfLineFunction("right", g, np.exp(-(g - 1.0)))
    q = rv.helmholtz_particular("right", 1.0, phi)
    oracle_err = float(np.abs(q.values - (math.e / 2) * (g - 1.0) * np.exp(-g)).max())
    passed = worst_d <= 1e-3 and worst_r <= 1e-3 and oracle_err <= 5e-4
    return {"name": "halfline_operators", "passed": bool(passed),
            "worst_extension_overshoot": worst_d, "worst_particular_overshoot": worst_r,
            "oracle_max_error": oracle_err}


def suite_resolvent(params=sp.PhysicalParams(), seed=4):
    """Linearity and discrete consistency of the resolvent at one frequency."""
    grid = dz.build_grid(params, 20.0 * params.a, 100)
    system = dz.assemble(grid)
    rng = np.random.default_rng(seed)
    lam = 2 + 2j
    i1 = random_resolvent_input(grid, rng)
    i2 = random_resolvent_input(grid, rng)
    o1 = rv.resolvent_apply(lam, params, i1)
    o2 = rv.resolvent_apply(lam, params, i2)

    al, be = 2.0, -0.5
    pair = lambda attr: tuple(
        rv.HalfLineFunction(x.side, x.grid, al * x.values + be * y.values)
        for x, y in zip(getattr(i1, attr), getattr(i2, attr)))
    combo = rv.ResolventInput(al * i1.f1 + be * i2.f1, pair("f2"), pair("f2_prime"),
                              pair("f3"), al * i1.f4 + be * i2.f4,
                              al * i1.f5 + be * i2.f5)
    o3 = rv.resolvent_apply(lam, params, combo)
    lin = max(
        abs(o3.H_lambda - (al * o1.H_lambda + be * o2.H_lambda)),
        float(np.abs(o3.q_lambda[1].values
                     - (al * o1.q_lambda[1].values + be * o2.q_lambda[1].values)).max()),
        float(np.abs(o3.h_lambda[0].values
                     - (al * o1.h_lambda[0].values + be * o2.h_lambda[0].values)).max()),
    )
    defects = [resolvent_defect(system, lam, random_resolvent_input(grid, rng))
               for _ in range(3)]
    passed = lin <= 1e-10 and max(defects) <= 5e-3
    return {"name": "resolvent", "passed": bool(passed),
            "linearity_defect": lin, "max_consistency_defect": max(defects)}


def suite_discretization(params=sp.PhysicalParams(), n_side=100):
    """Generator structure: input column, equilibrium, spectrum, energy form."""
    grid = dz.default_grid(params, n_side=n_side)
    system = dz.assemble(grid)
    n = grid.n_side

    b_err = 0.0
    for aa in (0.5, 1.0, 2.0):
        g2 = dz.default_grid(sp.PhysicalParams(aa, params.mu), n_side=32)
        s2 = dz.assemble(g2)
        direct = aa / (1.0 + 2.0 * aa**3 / 3.0)
        b_err = max(b_err, abs(s2.B[g2.layout.q_minus] - direct),
                    abs(s2.B[g2.layout.q_plus] + direct))

    rest = dz.State(2.5, np.full(n, 2.5), np.full(n, 2.5), np.zeros(n), np.zeros(n))
    eq_err = float(np.abs(system.A @ rest.flatten(grid)).max())

    ev = np.linalg.eigvals(dz.assemble(grid.without_sponge()).A)
    max_re = float(ev.real.max())

    w = dz.energy_matrix(grid)
    sym = float(np.abs(w - w.T).max())
    min_eig = float(np.linalg.eigvalsh(w).min())
    passed = (b_err <= 1e-12 and eq_err <= 1e-12 and max_re <= 1e-8
              and sym == 0.0 and min_eig >= -1e-12)
    return {"name": "discretization", "passed": bool(passed),
            "input_column_defect": b_err, "equilibrium_defect": eq_err,
            "max_re_eig_no_sponge": max_re,
            "energy_matrix_asymmetry": sym, "energy_matrix_min_eig": min_eig}


def suite_dynamics(params=sp.PhysicalParams(), seed=5):
    """Stepping oracle, equilibrium invariance, dissipation, linearity."""
    grid = dz.default_grid(params, n_side=60)
    system = dz.assemble(grid)

    scalar = dz.SemiDiscreteSystem(np.array([[-1.0]]), np.zeros(1), np.zeros(1), None)
    z1 = dyn.Stepper(scalar, 0.1).advance(np.array([1.0]), 0.0, 0.0)
    scalar_err = abs(float(z1[0]) - (1 - 0.05) / (1 + 0.05))

    n = grid.n_side
    rest = dz.State(1.0, np.ones(n), np.ones(n), np.zeros(n), np.zeros(n))
    stepper = dyn.Stepper(system, 0.05)
    z = rest.flatten(grid)
    eq_err = float(np.abs(stepper.advance(z, 0.0, 0.0) - z).max())

    traj = dyn.simulate(system, dz.bump_state(grid), T=3.0, dt=0.01)
    d_e = np.diff(traj.energies)
    monotone = bool(np.all(d_e <= 1e-10 * traj.energies[0]))
    balance = dyn.energy_balance_report(traj)

    rng = np.random.default_rng(seed)
    za = rng.standard_normal(grid.state_dim)
    zb = rng.standard_normal(grid.state_dim)
    ta = dyn.simulate(system, za, T=1.0, dt=0.02)
    tb = dyn.simulate(system, zb, T=1.0, dt=0.02)
    tc = dyn.simulate(system, 0.3 * za + 0.7 * zb, T=1.0, dt=0.02)
    lin = float(np.abs(tc.states - (0.3 * ta.states + 0.7 * tb.states)).max())

    passed = (scalar_err <= 1e-12 and eq_err <= 1e-12 and monotone
              and balance.max_defect <= 1e-2 and lin <= 1e-10)
    return {"name": "dynamics", "passed": bool(passed),
            "scalar_step_error": scalar_err, "equilibrium_step_error": eq_err,
            "energy_monotone": monotone, "balance_max_defect": balance.max_defect,
            "linearity_defect": lin}


def suite_lqr(params=sp.PhysicalParams(), n_side=48):
    """Riccati solvers: scalar oracle, psd, residual, method agreement."""
    scalar = lqr_mod.care_solve((np.array([[-1.0]]), [1.0], [1.0]))
    scalar_err = float(abs(scalar.P[0, 0] - (math.sqrt(2.0) - 1.0)))

    grid = dz.default_grid(params, n_side=n_side)
    system = dz.assemble(grid)
    nk = lqr_mod.care_solve(system, keep_iterates=True)
    hs = lqr_mod.care_solve(system, method="hamiltonian_sign")
    rel = float(np.linalg.norm(nk.P - hs.P, "fro") / np.linalg.norm(nk.P, "fro"))
    min_eig = float(np.linalg.eigvalsh(nk.P).min())
    mono = 0.0
    for p_prev, p_next in zip(nk.iterates, nk.iterates[1:]):
        d = p_prev - p_next
        mono = min(mono, float(np.linalg.eigvalsh(0.5 * (d + d.T)).min()))
    ev = np.linalg.eigvals(system.A - np.outer(system.B, nk.gain))
    re_sorted = np.sort(ev.real)
    # the structural kernel modes stay at zero; everything else must decay
    n_zero = int(np.sum(np.abs(ev) <= 1e-8))
    max_re_rest = float(re_sorted[-(nk.kernel_dim + 1)])
    passed = (scalar_err <= 1e-12
              and nk.residual <= 1e-8 * (1.0 + np.linalg.norm(nk.P, "fro") ** 2)
              and min_eig >= -1e-10 * np.linalg.norm(nk.P, 2)
              and rel <= 1e-6 and mono >= -1e-9
              and n_zero == nk.kernel_dim and max_re_rest < 0)
    return {"name": "lqr", "passed": bool(passed), "scalar_error": scalar_err,
            "residual": float(nk.residual), "min_eig_P": min_eig,
            "method_relative_gap": rel, "newton_monotonicity": mono,
            "kernel_dim": nk.kernel_dim, "max_re_nonkernel": max_re_rest}


def suite_linalg(seed=6):
    """Contract checks of the dense kernels."""
    rng = np.random.default_rng(seed)
    hilbert = np.array([[1.0 / (i + j + 1) for j in range(4)] for i in range(4)])
    x = lu_solve(hilbert, hilbert.sum(axis=1))
    lu_err = float(np.abs(x - 1.0).max())

    a = rng.standard_normal((10, 10))
    ev = eigenvalues(a)
    trace_err = abs(ev.sum() - np.trace(a)) / max(1.0, abs(np.trace(a)))

    q, t = schur_real(a)
    orth = float(np.abs(q.T @ q - np.eye(10)).max())
    recon = float(np.abs(q @ t @ q.T - a).max())

    s = rng.standard_normal((8, 8))
    s = 0.5 * (s + s.T)
    vals, vecs = sym_eigen(s)
    res = float(np.abs(s @ vecs - vecs * vals).max())

    sign = matrix_sign(np.diag([-2.0, 3.0]))
    sign_err = float(np.abs(sign - np.diag([-1.0, 1.0])).max())

    passed = (lu_err <= 1e-8 and trace_err <= 1e-8 and orth <= 1e-10
              and recon <= 1e-10 and res <= 1e-9 * np.linalg.norm(s, 2)
              and sign_err <= 1e-10)
    return {"name": "linalg", "passed": bool(passed), "hilbert_solve_error": lu_err,
            "trace_identity_error": float(trace_err), "schur_orthogonality": orth,
            "schur_reconstruction": recon, "sym_eigen_residual": res,
            "sign_oracle_error": sign_err}


def run_all_suites(params=sp.PhysicalParams(), seed=0, fault=None):
    """Run every suite; the seed offsets each suite's generator."""
    return [
        suite_coupling_matrix(fault=fault),
        suite_branch_cut(params, seed=seed),
        suite_square_root(params, seed=seed + 1),
        suite_boundary_matrix(params, seed=seed + 2),
        suite_halfline(params, seed=seed + 3),
        suite_resolvent(params, seed=seed + 4),
        suite_discretization(params),
        suite_dynamics(params, seed=seed + 5),
        suite_lqr(params),
        suite_linalg(seed=seed + 6),
    ]
