"""Property suites of the verify command, whose report is the acceptance record.

Each suite function exercises one module's invariants on seeded random
data and returns a plain dict (suite name, boolean verdict, numeric
details) so the reports serialize deterministically.  Acceptance
criteria 1-11 read their verdicts from these dicts in the report of
``verify --seed 0``: 1 coupling_matrix, 2 branch_cut, 3-4
halfline_operators, 5 resolvent_consistency, 6-7 sector, 8
discretization and boundary_matrix, 9 and 11 dynamics, 10 lqr.
:func:`run_all_suites` is the one home of each suite's seed and fault,
and every grid and bound is a constant below, written here only.
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
from .linalg import matrix_sign

#: error of a closed-form oracle or an exact identity, which holds up to rounding
ROUNDOFF = 1e-12
#: max |M M^-1 - I| of the closed-form coupling matrix and its inverse
COUPLING_DEFECT = 1e-13
#: relative excess of a half-line operator norm over its bound
HALFLINE_OVERSHOOT = 1e-3
#: max error of the half-line particular solution against its closed form
HALFLINE_ORACLE = 5e-4
#: observed order of a second-order approximation under halving of the spacing
CONVERGENCE_ORDER = 1.7
#: relative residual ||(lam I - A_h) z - F|| / ||F|| of the analytic resolvent
RESOLVENT_DEFECT = 5e-3
#: sup of a norm over the outer half of a sector sweep's radii over its inner half
SECTOR_TREND = 1.1
#: max defect of the discrete energy identity on the default grid
ENERGY_DEFECT = 1e-3
#: max defect of the coarse energy audit on a short march
ENERGY_AUDIT = 1e-2
#: absolute residual of the Newton-Kleinman Riccati solution
RICCATI_RESIDUAL = 1e-8
#: relative Frobenius gap between the Newton-Kleinman and sign Riccati solutions
METHOD_GAP = 1e-6
#: relative gap between a simulated optimal cost and its prediction <P z0, z0>
COST_GAP = 0.02
#: closed-form determinant |det| at a reported singular point
SINGULAR_RESIDUAL = 1e-8

#: Gaussian wave packets a side in each random resolvent input
WAVE_PACKETS = 2
#: random frequencies that suite_branch_cut classifies both ways
BRANCH_CUT_SAMPLES = 10_000
#: random frequencies off the cut at which suite_square_root checks omega
SQUARE_ROOT_SAMPLES = 10_000
#: random rates omega at which suite_halfline checks both norm bounds
HALFLINE_TRIALS = 100
#: n_side of the default grid whose generator suite_discretization checks
DISCRETIZATION_N_SIDE = 100
#: n_side of the default grid on which suite_lqr solves and prices the Riccati feedback
LQR_N_SIDE = 100
#: frequencies of the resolvent-check verb and of suite_resolvent_consistency
RESOLVENT_LAMBDAS = (1.0, 2 + 2j, 0.5 - 3j)


def _resolvent_grid(params, length, n_side):
    """The (a, mu) = (1, 1) grid (length, n_side), carried over to ``params``.

    L is stretched by ell = max(a, sqrt((1 + mu)/2)) to hold as many decay
    lengths 1/Re omega(1) = sqrt(1 + mu); the spacing is refined, never
    coarsened, for wave packets ~ a and |omega| ~ 1/sqrt(mu) (saturating
    at mu = 0.1).
    """
    a, mu = params.a, params.mu
    ell = max(a, math.sqrt((1.0 + mu) / 2.0))
    scale = ell / (min(a, 1.0) * math.sqrt(min(max(mu, 0.1), 1.0)))
    n_side = max(n_side, math.ceil(1 + (n_side - 1) * scale))
    return dz.build_grid(params, length * ell, n_side)


# ---------------------------------------------------------------------------
# random data generators


def branch_cut_samples(params, n_total, rng):
    """Sample frequencies for the two-characterization agreement check.

    Half the samples sit on or near the excluded set (circle and half-line,
    split evenly; "near" means a clear 1e-6..1e-1 offset relative to
    max(1, 1/mu), outside the membership tolerance band); the other half
    fills a box around the origin.  Circle angles avoid the tangency at 0.
    Within 1/(2 mu) of -2/mu, where lam^2/(1 + mu*lam) is stationary, the
    ratio test's band widens to |delta*eta| <~ 2*rtol/mu^2 (lam = -2/mu +
    delta + i*eta); off-set draws inside ten times it are redrawn, and the
    redraws end, as that disc holds at most a sixth of the angles or log-offsets.
    """
    r = 1.0 / params.mu

    def inside_stationary_band(lam):
        w = lam + 2.0 * r
        return abs(w) <= 0.5 * r and abs(w.real * w.imag) <= 20.0 * sp.MEMBERSHIP_RTOL * r * r

    quarter = n_total // 4
    lams = []
    for _ in range(quarter):  # circle, exactly on or clearly off
        theta = rng.uniform(1e-4, 2.0 * math.pi - 1e-4)
        radius = r
        if rng.random() < 0.5:
            radius += rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-6, -1) * r
        while radius != r and inside_stationary_band(-r + radius * cmath.exp(1j * theta)):
            theta = rng.uniform(1e-4, 2.0 * math.pi - 1e-4)
        lams.append(-r + radius * cmath.exp(1j * theta))
    for _ in range(quarter):  # half-line, exactly on or clearly off
        s = 10 ** rng.uniform(-3, 1.5)
        eta = 0.0
        if rng.random() < 0.5:
            eta = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-6, -1) * max(1.0, r)
        while eta and inside_stationary_band(complex(-r - s, eta)):
            s = 10 ** rng.uniform(-3, 1.5)
        lams.append(complex(-r - s, eta))
    while len(lams) < n_total:
        lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if lam != 0 and lam != -r:
            lams.append(lam)
    return lams


def ratio_on_cut(lam, params):
    """Sign test of the cut, lam^2/(1 + mu*lam) negative real: equivalent to
    :func:`spectral.on_branch_cut` in exact arithmetic and off the tolerance band."""
    z = lam * lam / (1.0 + params.mu * lam)
    return z.real < 0 and abs(z.imag) <= sp.MEMBERSHIP_RTOL * abs(z)


def wave_packet_pair(grid, rng):
    """Random sum of Gaussian wave packets on both sides, with derivative.

    ``WAVE_PACKETS`` packets a side are centred well inside the exterior
    (|x| in [4.5, 6.5]a), with widths in [2.2, 3.0]a, wide enough to be
    resolved on the default grid, and carry a slow carrier wave; returns
    nodal values and nodal derivatives as (f_left, fp_left, f_right, fp_right).
    """
    a = grid.params.a

    def params():
        return [(rng.uniform(0.5, 1.0), a * rng.uniform(4.5, 6.5),
                 a * rng.uniform(2.2, 3.0), rng.uniform(0.05, 0.15),
                 rng.uniform(0, 2 * math.pi))
                for _ in range(WAVE_PACKETS)]

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


def resolvent_defect(system, lam, inp: rv.ResolventInput) -> float:
    """Relative residual ||(lam*I - A_h) z_lam - F|| / ||F|| (vector 2-norms)."""
    grid = system.grid
    lay = grid.layout
    out = rv.resolvent_apply(lam, grid.params, inp)

    def flat(f1, pair_h, pair_q, f4, f5):
        z = dz.State(f1, *(f.values for f in pair_h + pair_q)).flatten(grid)
        z[lay.q_minus], z[lay.q_plus] = f4, f5
        return z

    z = flat(out.H_lambda, out.h_lambda, out.q_lambda, out.q_minus, out.q_plus)
    f_vec = flat(inp.f1, inp.f2, inp.f3, inp.f4, inp.f5)
    # A is real: two real products, never a complex copy of the dense A
    residual = lam * z - (system.A @ z.real + 1j * (system.A @ z.imag)) - f_vec
    return float(np.linalg.norm(residual) / np.linalg.norm(f_vec))


# ---------------------------------------------------------------------------
# suites


def suite_coupling_matrix(fault):
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
    return {"name": "coupling_matrix", "passed": worst <= COUPLING_DEFECT,
            "max_identity_defect": worst}


def suite_branch_cut(params, seed):
    """Geometric vs sign characterization of the excluded set, plus scaling."""
    rng = np.random.default_rng(seed)
    lams = branch_cut_samples(params, BRANCH_CUT_SAMPLES, rng)
    disagreements = 0
    for lam in lams:
        if sp.on_branch_cut(lam, params) != ratio_on_cut(lam, params):
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


def suite_square_root(params, seed):
    """Principal-root properties of the Helmholtz rate omega."""
    rng = np.random.default_rng(seed)
    min_re = math.inf
    worst_sq = 0.0
    count = 0
    while count < SQUARE_ROOT_SAMPLES:
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
    for _ in range(SQUARE_ROOT_SAMPLES // 10):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if z.real < 0 and abs(z.imag) < 1e-12:
            continue
        lhs = cmath.sqrt(z).real
        rhs = math.sqrt(0.5 * (abs(z) + z.real))
        worst_formula = max(worst_formula, abs(lhs - rhs))
    passed = min_re > 0 and worst_sq <= ROUNDOFF and worst_formula <= ROUNDOFF
    return {"name": "square_root", "passed": bool(passed),
            "min_re_omega": min_re, "worst_square_identity": worst_sq,
            "worst_re_formula": worst_formula}


def suite_boundary_matrix(params, seed):
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
    # singular_points filtered its roots by the assembled matrix's
    # determinant, so each is judged by the closed-form determinant
    worst_sing = max((float(abs(sp.boundary_system_determinant(r, params)))
                      for r in sing), default=0.0)
    sing_ok = len(sing) <= 4 and all(r.real <= 0 for r in sing) \
        and worst_sing < SINGULAR_RESIDUAL
    passed = worst_sym == 0.0 and worst_shift <= ROUNDOFF and worst_det <= 1e-10 and sing_ok
    return {"name": "boundary_matrix", "passed": bool(passed),
            "worst_symmetry": worst_sym, "worst_feedback_shift": worst_shift,
            "worst_det_mismatch": worst_det, "singular_count": len(sing),
            "worst_singular_residual": worst_sing}


def suite_halfline(params, seed):
    """Norm bounds, closed-form oracle and convergence order of the half-line solve.

    The decaying-extension bound is an equality in the continuum, so the
    check runs on a fine grid where the quadrature overshoot stays well
    inside the relative slack.  The closed-form oracle's trapezoid error
    cancels structurally, so the order is measured on a manufactured
    smooth source of the same operator, far from the truncation floor.
    """
    rng = np.random.default_rng(seed)
    a, L, h = params.a, 20.0 * params.a, 0.002
    grid = np.arange(a, L + h / 2, h)
    worst_d = worst_r = -math.inf
    for _ in range(HALFLINE_TRIALS):
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
    # closed-form oracle e^-s -> (s/2) e^-s, s = x - a, on the default truncation
    # [a, 20a], stretched to s = 19 where that is shorter, so e^-s has decayed
    h0 = 0.01
    g = np.arange(a, max(L, a + 19.0) + h0 / 2, h0)
    phi = rv.HalfLineFunction("right", g, np.exp(-(g - a)))
    q = rv.helmholtz_particular("right", 1.0, phi)
    oracle_err = float(np.abs(q.values - 0.5 * (g - a) * np.exp(-(g - a))).max())
    # manufactured q = s e^-s cos(2x), s = x - a, under -q'' + q
    errs = []
    for hm in (0.01, 0.005, 0.0025):
        x = np.arange(a, a + 34.0 + hm / 2, hm)
        s, e = x - a, np.exp(-(x - a))
        u, up, upp = s * e, (1.0 - s) * e, (s - 2.0) * e
        v, vp, vpp = np.cos(2 * x), -2 * np.sin(2 * x), -4 * np.cos(2 * x)
        src = rv.HalfLineFunction("right", x, -(upp * v + 2 * up * vp + u * vpp) + u * v)
        errs.append(float(np.abs(rv.helmholtz_particular("right", 1.0, src).values
                                 - u * v).max()))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    passed = (worst_d <= HALFLINE_OVERSHOOT and worst_r <= HALFLINE_OVERSHOOT
              and oracle_err <= HALFLINE_ORACLE and min(orders) >= CONVERGENCE_ORDER)
    return {"name": "halfline_operators", "passed": bool(passed),
            "worst_extension_overshoot": worst_d, "worst_particular_overshoot": worst_r,
            "oracle_max_error": oracle_err, "manufactured_orders": orders}


def suite_resolvent(params, seed):
    """Linearity and discrete consistency of the resolvent at one frequency."""
    grid = _resolvent_grid(params, 20.0, 100)
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
    passed = lin <= 1e-10 and max(defects) <= RESOLVENT_DEFECT
    return {"name": "resolvent", "passed": bool(passed),
            "linearity_defect": lin, "max_consistency_defect": max(defects)}


def suite_resolvent_consistency(params):
    """Discrete consistency of the resolvent and its order under refinement.

    Five draws at each of ``RESOLVENT_LAMBDAS``, each frequency's from a
    generator seeded 11 whatever the run's seed; the defects on the
    suite_resolvent grid, the order between two grids 1.5 times longer
    whose spacings differ by two.
    """
    def defects(system, lam):
        rng = np.random.default_rng(11)
        return [resolvent_defect(system, lam, random_resolvent_input(system.grid, rng))
                for _ in range(5)]

    system = dz.assemble(_resolvent_grid(params, 20.0, 100))
    worst = max(max(defects(system, lam)) for lam in RESOLVENT_LAMBDAS)
    coarse, fine = (dz.assemble(_resolvent_grid(params, 30.0, n)) for n in (152, 303))
    order = min(math.log2(c / f) for lam in RESOLVENT_LAMBDAS
                for c, f in zip(defects(coarse, lam), defects(fine, lam)))
    passed = worst <= RESOLVENT_DEFECT and order >= CONVERGENCE_ORDER
    return {"name": "resolvent_consistency", "passed": bool(passed),
            "max_consistency_defect": worst, "min_order": order}


def sector_floor(theta, params):
    """Radius 4/(mu (1 - sin theta)) beyond which the sector bounds are asserted."""
    if not 0.0 <= theta < math.pi / 2:
        raise ValueError(f"sector angle must lie in [0, pi/2), got {theta}")
    return 4.0 / (params.mu * (1.0 - math.sin(theta)))


def sector_samples(theta, radius_min):
    """64 angles inside |arg lam| < pi/2 + theta at 40 radii log-spaced to 1e6, radius-major."""
    half_open = math.pi / 2 + theta
    pad = half_open / 65
    angles = np.linspace(-half_open + pad, half_open - pad, 64)
    radii = np.logspace(math.log10(radius_min), 6.0, 40)
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def _omegas(lams, params):
    """:func:`spectral.helmholtz_omega` elementwise, without the excluded-set checks."""
    return np.sqrt(lams * lams / (1.0 + params.mu * lams))


def decay_rates(lams, params, theta):
    """Re omega and its sector bound (1/4) sqrt(|lam| (1 - sin theta)/mu), per sample."""
    lams = np.asarray(lams, dtype=complex)
    modulus = np.hypot(lams.real, lams.imag)
    return (_omegas(lams, params).real,
            0.25 * np.sqrt(modulus * (1.0 - math.sin(theta)) / params.mu))


def trace_matrix_norms(lams, params):
    """||lam M_lam^-1||_2 = |lam| / min(|d + o|, |d - o|) of the normal M = [[d, o], [o, d]]."""
    lams = np.asarray(lams, dtype=complex)
    diag, off = sp.boundary_system_entries(lams, _omegas(lams, params), params)
    return np.abs(lams) / np.minimum(np.abs(diag + off), np.abs(diag - off))


def sweep_trend(norms):
    """Sup of radius-ordered norms over their outer half over the inner half's."""
    half = len(norms) // 2
    return float(norms[half:].max() / norms[:half].max())


def suite_sector(params):
    """Sector bounds behind the analytic semigroup, on log-radial samples.

    Re omega >= (1/4) sqrt(|lam| (1 - sin theta)/mu) beyond the radius
    floor for theta = 0, pi/6, pi/3.  For theta = pi/4, |lam| >= 1e2, the
    norms of lam M_lam^-1 (boundary trace) and lam (lam I - A)^-1 (default
    generator) must not grow by more than SECTOR_TREND; none may be inf.
    The mirror split of A is orthogonal, so sigma_min(lam I - A) is the
    smaller of its two halves' values.
    """
    from scipy.linalg import svdvals  # not at module level: see the package docstring

    checked = violations = 0
    worst = math.inf
    for theta in (0.0, math.pi / 6, math.pi / 3):
        floor = sector_floor(theta, params)
        lams = sector_samples(theta, floor)
        # the innermost ring lies on the floor up to rounding; hypot, like
        # abs() of a Python complex, decides which of its samples count
        lams = lams[np.hypot(lams.real, lams.imag) >= floor]
        re_omega, bound = decay_rates(lams, params, theta)
        checked += lams.size
        violations += int(np.count_nonzero(~(re_omega >= bound)))
        worst = min(worst, float((re_omega - bound).min()))

    lams = sector_samples(math.pi / 4, max(1e2, sector_floor(math.pi / 4, params)))
    trace = trace_matrix_norms(lams, params)
    even, a_odd = dz.assemble(dz.default_grid(params, n_side=100)).mirror_halves
    radii = np.repeat(np.logspace(2, 6, 10), 2)
    freqs = radii * np.exp(1j * np.tile([-math.pi / 3, math.pi / 3], 10))
    operator = np.array([abs(lam) / min(svdvals(lam * np.eye(len(half)) - half)[-1]
                                        for half in (even.A, a_odd))
                         for lam in freqs])
    trends = sweep_trend(trace), sweep_trend(operator)
    finite = bool(np.all(np.isfinite(trace)) and np.all(np.isfinite(operator)))
    decay_passed = violations == 0
    trend_passed = finite and max(trends) <= SECTOR_TREND
    return {"name": "sector", "passed": decay_passed and trend_passed,
            "decay_passed": decay_passed, "trend_passed": trend_passed,
            "decay_samples": checked, "decay_violations": violations,
            "worst_decay_margin": worst, "trace_matrix_trend": trends[0],
            "operator_trend": trends[1], "finite_norms": finite}


def suite_discretization(params):
    """Generator structure: input column, equilibrium, spectrum, energy form."""
    grid = dz.default_grid(params, n_side=DISCRETIZATION_N_SIDE)
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

    ev = dz.assemble(grid.without_sponge()).eigenvalues()
    max_re = float(ev.real.max())

    (diagonal, _), rank_one, _, _ = dz.quadratic_forms(grid)
    mean = np.zeros(system.dim)
    mean[[grid.layout.q_minus, grid.layout.q_plus]] = 0.5
    w = (np.diag(diagonal) + rank_one[0, 0] * np.outer(mean, mean)
         + rank_one[0, 1] * np.outer(system.C, system.C))
    sym = float(np.abs(w - w.T).max())
    min_eig = float(np.linalg.eigvalsh(w).min())
    passed = (b_err <= ROUNDOFF and eq_err <= ROUNDOFF and max_re <= 1e-8
              and sym == 0.0 and min_eig >= -ROUNDOFF)
    return {"name": "discretization", "passed": bool(passed),
            "input_column_defect": b_err, "equilibrium_defect": eq_err,
            "max_re_eig_no_sponge": max_re,
            "energy_matrix_asymmetry": sym, "energy_matrix_min_eig": min_eig}


def suite_dynamics(params, seed):
    """Stepping oracle, equilibrium invariance, dissipation, linearity.

    The audit and the identity march a bump at 5a of width 2a, which scales
    with the default grids; the identity at (n_side, dt) = (100, 1e-3)
    against (199, 5e-4).  E(0) >= int Hdot^2 under u = -Hdot from the heave.
    """
    def monotone(traj):
        return bool(np.all(np.diff(traj.energies) <= 1e-10 * traj.energies[0]))

    def bump(grid):
        return dz.bump_state(grid, center=5.0 * params.a, width=2.0 * params.a)

    grid = dz.default_grid(params, n_side=60)
    system = dz.assemble(grid)

    scalar = dz.SemiDiscreteSystem(np.array([[-1.0]]), np.zeros(1), np.zeros(1), None,
                                   np.zeros((1, 0)))
    z1, _ = dyn.Stepper(scalar, 0.1).advance(np.array([1.0]))
    scalar_err = abs(float(z1[0]) - (1 - 0.05) / (1 + 0.05))

    n = grid.n_side
    rest = dz.State(1.0, np.ones(n), np.ones(n), np.zeros(n), np.zeros(n))
    stepper = dyn.Stepper(system, 0.05)
    z = rest.flatten(grid)
    eq_err = float(np.abs(stepper.advance(z)[0] - z).max())

    # each march is one chunk, so it runs to its horizon and keeps no history
    traj = dyn.simulate_adaptive(system, bump(grid), 0.01, 3.0, chunk=3.0)
    balance = dyn.energy_balance_report(traj)

    # z_a, z_b and z_c = 0.3 z_a + 0.7 z_b march as one block on one factorisation
    za, zb = np.random.default_rng(seed).standard_normal((2, grid.layout.dim))
    block = np.column_stack([za, zb, 0.3 * za + 0.7 * zb])
    step, lin = dyn.Stepper(system, 0.02), 0.0
    for _ in range(50):  # T = 1, every step compared
        block = step.advance(block)[0]
        lin = max(lin, float(np.abs(block[:, 2] - (0.3 * block[:, 0] + 0.7 * block[:, 1])).max()))

    fine = dz.assemble(dz.default_grid(params, n_side=100))
    closed = dyn.simulate_adaptive(fine, dz.heave_state(fine.grid), 0.02, 60.0, gain=fine.C,
                                   chunk=60.0)
    hdot = closed.outputs()
    steps = 0.5 * np.diff(closed.times) * (hdot[:-1] ** 2 + hdot[1:] ** 2)
    margin = float((closed.energies[0] - np.concatenate([[0.0], np.cumsum(steps)])).min())
    defects, identity_monotone = [], True
    for sys_n, dt in ((fine, 1e-3), (dz.assemble(dz.default_grid(params, n_side=199)), 5e-4)):
        march = dyn.simulate_adaptive(sys_n, bump(sys_n.grid), dt, 1.0, chunk=1.0)
        defects.append(dyn.energy_balance_report(march).max_defect)
        identity_monotone &= monotone(march)
    order = math.log2(defects[0] / defects[1])

    identity_passed = bool(defects[0] <= ENERGY_DEFECT and order >= CONVERGENCE_ORDER
                           and identity_monotone)
    output_energy_passed = bool(margin >= -1e-9 * closed.energies[0])
    passed = (scalar_err <= ROUNDOFF and eq_err <= ROUNDOFF and monotone(traj)
              and balance.max_defect <= ENERGY_AUDIT and lin <= 1e-10
              and identity_passed and output_energy_passed)
    return {"name": "dynamics", "passed": bool(passed),
            "identity_passed": identity_passed, "output_energy_passed": output_energy_passed,
            "scalar_step_error": scalar_err, "equilibrium_step_error": eq_err,
            "energy_monotone": monotone(traj), "balance_max_defect": balance.max_defect,
            "linearity_defect": lin, "identity_defect": defects[0],
            "identity_order": order, "identity_monotone": identity_monotone,
            "output_energy_margin": margin}


def suite_lqr(params):
    """Riccati solvers: oracles, psd, residual, method agreement, feedback costs.

    The simulated optimal cost from the heave, bump and flow presets must
    match <P z0, z0> within COST_GAP and beat the energy feedbacks.
    """
    scalar = lqr_mod.care_solve(dz.SemiDiscreteSystem(np.array([[-1.0]]), np.ones(1),
                                                      np.ones(1), None, np.zeros((1, 0))))
    scalar_err = float(abs(scalar.P[0, 0] - (math.sqrt(2.0) - 1.0)))
    # a Hamiltonian with H^2 = 7 I, whose sign is H / sqrt(7)
    oracle = np.array([[1.0, 2.0], [3.0, -1.0]])
    sign, _ = matrix_sign(oracle, lqr_mod.MAX_ITER)
    sign_err = float(np.abs(sign - oracle / math.sqrt(7.0)).max())

    grid = dz.default_grid(params, n_side=LQR_N_SIDE)
    system = dz.assemble(grid)
    nk = lqr_mod.care_solve(system, keep_iterates=True)
    mono = 0.0
    for p_prev, p_next in zip(nk.iterates, nk.iterates[1:]):
        d = p_prev - p_next
        mono = min(mono, float(np.linalg.eigvalsh(0.5 * (d + d.T)).min()))
    nk.iterates.clear()  # read: the sign solve may reuse their memory
    hs = lqr_mod.care_solve(system, method="hamiltonian_sign")
    rel = float(np.linalg.norm(nk.P - hs.P, "fro") / np.linalg.norm(nk.P, "fro"))
    sym = float(np.abs(nk.P - nk.P.T).max())
    min_eig = float(np.linalg.eigvalsh(nk.P).min())
    ev = np.linalg.eigvals(system.A - np.outer(system.B, nk.gain))
    re_sorted = np.sort(ev.real)
    # the structural kernel modes stay at zero; everything else must decay
    kernel_dim = system.kernel.shape[1]
    n_zero = int(np.sum(np.abs(ev) <= 1e-8))
    max_re_rest = float(re_sorted[-(kernel_dim + 1)])

    # each simulated optimal cost carries its exact tail z(T)^T P z(T)
    tables = {name: lqr_mod.compare_feedbacks(system, dz.preset_state(grid, name), alphas, nk,
                                              lqr_mod.COMPARISON_HORIZON, 0.03, "trapezoidal")
              for name, alphas in (("heave", lqr_mod.COMPARISON_ALPHAS), ("bump", ()),
                                   ("flow", ()))}
    gaps = {name: table.relative_gap for name, table in tables.items()}
    passed = (scalar_err <= ROUNDOFF and sign_err <= 1e-10
              and nk.residual <= RICCATI_RESIDUAL and sym <= 1e-10
              and min_eig >= -1e-10 * np.linalg.norm(nk.P, 2)
              and rel <= METHOD_GAP and mono >= -1e-9
              and n_zero == kernel_dim and max_re_rest < 0
              and max(gaps.values()) <= COST_GAP and tables["heave"].optimal_is_best)
    return {"name": "lqr", "passed": bool(passed), "scalar_error": scalar_err,
            "sign_oracle_error": sign_err,
            "residual": float(nk.residual), "P_asymmetry": sym, "min_eig_P": min_eig,
            "method_relative_gap": rel, "newton_monotonicity": mono,
            "kernel_dim": kernel_dim, "max_re_nonkernel": max_re_rest,
            **{f"{name}_cost_gap": gap for name, gap in gaps.items()},
            "optimal_is_best": tables["heave"].optimal_is_best}


def run_all_suites(params, seed, fault):
    """Run every suite: the k-th seeded suite draws from seed + k, and
    ``fault`` (None or "m_inverse") reaches the coupling-matrix suite."""
    return [
        suite_coupling_matrix(fault=fault),
        suite_branch_cut(params, seed=seed),
        suite_square_root(params, seed=seed + 1),
        suite_boundary_matrix(params, seed=seed + 2),
        suite_halfline(params, seed=seed + 3),
        suite_resolvent(params, seed=seed + 4),
        suite_resolvent_consistency(params),
        suite_sector(params),
        suite_discretization(params),
        suite_dynamics(params, seed=seed + 5),
        suite_lqr(params),
    ]
