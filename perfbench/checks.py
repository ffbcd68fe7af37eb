"""Output checks computed apart from floatlab.

Everything here uses numpy and the standard library only: the benchmark's
own reader of the FLTC matrix format, its own copy of the state layout
and its own quadrature.  Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import struct

import numpy as np

TRAJECTORY_COLUMNS = ["t", "H", "Hdot", "q_minus", "q_plus", "E", "u"]
KERNEL_DIM = 3


# ---------------------------------------------------------------------------
# readers and the state layout


def read_fltc(path):
    """Dense matrix from the 16-byte FLTC header format (magic, rows, cols, pad)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != b"FLTC":
        raise ValueError(f"{path}: missing FLTC header")
    rows, cols = struct.unpack("<II", blob[4:12])
    if len(blob) != 16 + 8 * rows * cols:
        raise ValueError(f"{path}: payload is {len(blob) - 16} bytes, "
                         f"header promises {8 * rows * cols}")
    return np.frombuffer(blob, dtype="<f8", offset=16).reshape(rows, cols)


def read_trajectory(path):
    """(header, data) of a trajectory CSV; data has one row per sample."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def read_compare(path):
    """{controller: J} from the closed-loop cost table."""
    with open(path, newline="") as fh:
        return {row["controller"]: float(row["J"]) for row in csv.DictReader(fh)}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def pack_state(H, h_left, h_right, q_left, q_right, boundary=None):
    """Flatten full nodal fields into the documented state order.

    [H | h_left | h_right | q_left interior | q_right interior | q-, q+],
    where q- is the last left flux node and q+ the first right one unless
    ``boundary`` gives the pair; the outer flux nodes are pinned to zero
    and carry no state.
    """
    qm, qp = boundary if boundary is not None else (q_left[-1], q_right[0])
    return np.concatenate([[H], h_left, h_right, q_left[1:-1], q_right[1:-1], [qm, qp]])


def rest_vector(n_side):
    """Rest state: every height equal (to 1), every flux zero."""
    ones, zeros = np.ones(n_side), np.zeros(n_side)
    return pack_state(1.0, ones, ones, zeros, zeros)


def trapezoid(values, x):
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(x)))


def bump_energy(a, L, n_side, center, width, amplitude):
    """0.5 * int h^2 of the Gaussian surface bump over both exterior sides."""
    total = 0.0
    for x in (np.linspace(-L, -a, n_side), np.linspace(a, L, n_side)):
        h = amplitude * np.exp(-((x - center) / width) ** 2)
        total += 0.5 * trapezoid(h * h, x)
    return total


def _fail(ok, message):
    return [] if ok else [message]


# ---------------------------------------------------------------------------
# lqr-heave


def riccati_residual(A, B, C, P):
    res = A.T @ P + P @ A - np.outer(P @ B, B @ P) + np.outer(C, C)
    norm = float(np.linalg.norm(res, "fro"))
    limit = 1e-8 * (1.0 + float(np.linalg.norm(P, "fro")) ** 2)
    return _fail(norm <= limit, f"Riccati residual {norm:.3e} > {limit:.3e}")


def riccati_psd(P):
    scale = float(np.linalg.norm(P, 2))
    asym = float(np.abs(P - P.T).max())
    low = float(np.linalg.eigvalsh(0.5 * (P + P.T)).min())
    return (_fail(asym <= 1e-14 * scale, f"P not symmetric: {asym:.3e}")
            + _fail(low >= -1e-10 * scale, f"P has eigenvalue {low:.3e} < 0"))


def gains_match(gains, B, P):
    ref = B @ P
    err = float(np.abs(np.ravel(gains) - ref).max())
    return _fail(np.size(gains) == ref.size and err <= 1e-12 * max(1.0, np.abs(ref).max()),
                 f"gains.csv differs from B^T P by {err:.3e}")


def closed_loop_spectrum(A, B, gain):
    eigs = np.linalg.eigvals(A - np.outer(B, gain))
    near_zero = np.abs(eigs) <= 1e-8
    rest = eigs[~near_zero]
    return (_fail(int(near_zero.sum()) == KERNEL_DIM,
                  f"{int(near_zero.sum())} closed-loop eigenvalues near 0, "
                  f"expected {KERNEL_DIM}")
            + _fail(rest.size > 0 and rest.real.max() < 0,
                    f"closed-loop eigenvalue with Re = {rest.real.max():.3e} >= 0"))


def annihilates_rest(A, P, n_side):
    r = rest_vector(n_side)
    a_err = float(np.linalg.norm(A @ r)) / (np.linalg.norm(A, 2) * np.linalg.norm(r))
    p_err = float(np.linalg.norm(P @ r)) / (np.linalg.norm(P, 2) * np.linalg.norm(r))
    return (_fail(a_err <= 1e-12, f"A does not map rest to zero: {a_err:.3e}")
            + _fail(p_err <= 1e-10, f"P does not annihilate rest: {p_err:.3e}"))


def methods_agree(P_sign, P_nk):
    rel = float(np.linalg.norm(P_sign - P_nk, "fro") / np.linalg.norm(P_nk, "fro"))
    return _fail(rel <= 1e-6, f"sign and Newton-Kleinman differ by {rel:.3e}")


def cost_table(costs, P, z0):
    predicted = float(z0 @ P @ z0)
    optimal = costs.get("optimal", math.nan)
    alphas = [j for name, j in costs.items() if name.startswith("alpha=")]
    gap = abs(optimal - predicted) / predicted
    best = all(optimal <= j * (1.0 + 1e-6) + 1e-12 for j in alphas)
    return (_fail(gap <= 0.02, f"simulated cost {optimal:.6e} vs z0'Pz0 "
                               f"{predicted:.6e}: gap {gap:.3e} > 2%")
            + _fail(len(alphas) > 0 and best, "an alpha feedback beats the optimal gain"))


# ---------------------------------------------------------------------------
# simulate-bump


def trajectory_shape(header, data, n_rows, t_max):
    return (_fail(header == TRAJECTORY_COLUMNS, f"columns {header}")
            + _fail(data.shape == (n_rows, len(TRAJECTORY_COLUMNS)),
                    f"trajectory has shape {data.shape}, expected ({n_rows}, 7)")
            + _fail(data.shape[0] > 0 and data[0, 0] == 0.0
                    and abs(data[-1, 0] - t_max) <= 1e-9 * t_max,
                    "time column does not run from 0 to T_max"))


def initial_energy(data, expected):
    e0 = float(data[0, TRAJECTORY_COLUMNS.index("E")])
    rel = abs(e0 - expected) / expected
    return _fail(rel <= 1e-12, f"E(0) = {e0!r}, 0.5*int h^2 = {expected!r} (rel {rel:.2e})")


def energy_nonincreasing(data):
    e = data[:, TRAJECTORY_COLUMNS.index("E")]
    rise = float(np.diff(e).max(initial=-math.inf))
    return _fail(rise <= 1e-12 * e[0], f"energy rises by {rise:.3e}")


def feedback_law(data, alpha):
    u = data[:, TRAJECTORY_COLUMNS.index("u")]
    hdot = data[:, TRAJECTORY_COLUMNS.index("Hdot")]
    err = float(np.abs(u + alpha * hdot).max())
    return _fail(err <= 1e-13 * max(1.0, alpha * np.abs(hdot).max()),
                 f"u + alpha*Hdot reaches {err:.3e}")


def energy_audit(report, n_rows):
    defect = report.get("max_defect", math.inf)
    return (_fail(defect <= 1e-2, f"energy-audit defect {defect:.3e} > 1e-2")
            + _fail(report.get("steps") == n_rows - 1,
                    f"energy audit covers {report.get('steps')} steps, expected {n_rows - 1}"))


# ---------------------------------------------------------------------------
# resolvent-halfline


def resolvent_report(report, rows, n_rows):
    """resolvent.json agrees with resolvent.csv: worst defect and verdict at the 5e-3 bound."""
    worst = report.get("worst_relative_defect", math.nan)
    col = [float(r[3]) for r in rows]
    return (_fail(len(col) == n_rows and all(math.isfinite(d) for d in col),
                  f"resolvent.csv has {len(col)} rows, expected {n_rows}")
            + _fail(bool(col) and max(col) == worst,
                    f"worst defect {worst!r} is not the largest row of resolvent.csv")
            + _fail(report.get("pass") is (worst <= 5e-3),
                    f"verdict pass={report.get('pass')} for worst defect {worst:.3e}"))


def spectrum_report(report, A_off):
    own = float(np.linalg.eigvals(A_off).real.max())
    reported = report.get("max_re_sponge_off", math.inf)
    return (_fail(own <= 1e-8, f"sponge-off generator has max Re eig {own:.3e}")
            + _fail(abs(reported - own) <= 1e-8,
                    f"spectrum.json max Re {reported:.3e}, numpy gives {own:.3e}")
            + _fail(report.get("n_eigenvalues") == A_off.shape[0],
                    f"spectrum.json counts {report.get('n_eigenvalues')} eigenvalues"))


def relative_defect(A, lam, z, f):
    Az = A @ z.real + 1j * (A @ z.imag)  # A is real: no complex copy of it
    return float(np.linalg.norm(lam * z - Az - f) / np.linalg.norm(f))


def consistency_order(defects, spacings):
    """defects[g][k]: defect of case k on grid g (grids ordered coarse to fine)."""
    fails = []
    for g in range(len(defects) - 1):
        ratio = math.log(spacings[g] / spacings[g + 1])
        for k, (d0, d1) in enumerate(zip(defects[g], defects[g + 1])):
            order = math.log(d0 / d1) / ratio if d0 > 0 and d1 > 0 else -math.inf
            if not order >= 1.7:
                fails.append(f"case {k}: defect {d0:.3e} -> {d1:.3e}, order {order:.2f} < 1.7")
    return fails


def halfline_oracle(x, q):
    exact = (math.e / 2.0) * (x - 1.0) * np.exp(-x)
    err = float(np.abs(q - exact).max())
    return _fail(err <= 5e-4, f"half-line oracle error {err:.3e} > 5e-4")


def l2(x, values):
    return math.sqrt(trapezoid(np.abs(values) ** 2, x))


def norm_bounds(draws):
    """draws: (omega, x, extension, phi, particular) tuples on one grid."""
    worst = -math.inf
    for omega, x, ext, phi, part in draws:
        worst = max(worst,
                    l2(x, ext) * math.sqrt(2.0 * omega.real) - 1.0,
                    l2(x, part) / (3.0 / (2.0 * abs(omega) * omega.real) * l2(x, phi)) - 1.0)
    return _fail(worst <= 1e-3, f"half-line norm bound overshoot {worst:.3e} > 1e-3")


def linearity(out1, out2, out12, alpha, beta):
    err = float(np.abs(out12 - (alpha * out1 + beta * out2)).max())
    return _fail(err <= 1e-10, f"resolvent linearity defect {err:.3e} > 1e-10")
