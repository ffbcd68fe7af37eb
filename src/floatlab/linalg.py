"""Matrix sign iteration and the FLTC binary matrix format.

The sign function of a Hamiltonian matrix H (one with J H symmetric,
J = [[0, I], [-I, 0]]) is a Newton iteration with Frobenius-norm scaling,
which has no library equivalent here.  It runs on the symmetric iterates
W = J Z (Byers, Linear Algebra Appl. 85, 1987): Z <- (c Z + (c Z)^-1)/2
is W <- (c W + J W^-1 J / c)/2, and J W^-1 J is W^-1 with its blocks
swapped and two of them negated.  Each W is factored as L D L^T by
Bunch-Kaufman ``sytrf`` and inverted on those factors by ``sytri``, on
one triangle: half the flops of an LU and its inverse.  J is orthogonal,
so ||W||_F = ||Z||_F and ||W^-1||_F = ||Z^-1||_F, and the scaling and the
stop rule are those of the iteration on Z.  The iteration stops in its
quadratic phase, one step before the update would fall below the
tolerance (Kenney & Laub, SIAM J. Matrix Anal. Appl. 13, 1992; Higham,
Functions of Matrices, SIAM 2008, ch. 5).  It is double precision and
deterministic for a fixed input on a fixed build.
"""

from __future__ import annotations

import numpy as np

from .errors import ImaginaryAxisEigenvalue, NoConvergence

#: On-disk dense matrix format: magic, uint32 rows, uint32 cols, 4 pad bytes,
#: then row-major little-endian float64 payload.
MATRIX_MAGIC = b"FLTC"
_HEADER_BYTES = 16
#: Relative update of the sign iteration that counts as converged.
SIGN_TOL = 1e-13
#: Largest asymmetry of J h, relative to its largest entry, that ``matrix_sign``
#: takes for rounding of a Hamiltonian h; more is a ValueError.
HAMILTONIAN_TOL = 1e-10


def matrix_sign(h, max_iter):
    """Sign of a Hamiltonian matrix h by scaled Newton iteration Z <- (c Z + (c Z)^-1)/2.

    Returns (sign, steps).  The iteration runs on W = J Z (see the module
    docstring).  The scaling c = sqrt(||Z^-1||_F / ||Z||_F) accelerates
    the early phase.  The iteration converges quadratically, so it returns
    once a relative update falls below sqrt(SIGN_TOL): the next one would
    be below SIGN_TOL.  It is undefined when h has an eigenvalue on the
    imaginary axis; that surfaces as a singular iterate or a stalled
    iteration and raises ImaginaryAxisEigenvalue / NoConvergence.  A
    non-finite h raises ValueError, and so does one that is not
    Hamiltonian: of odd size, or with J h asymmetric beyond
    ``HAMILTONIAN_TOL``.
    """
    from scipy.linalg import lapack  # not at module level: see the package docstring

    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError("matrix_sign expects a square matrix")
    if not np.isfinite(h).all():
        raise ValueError("matrix_sign expects a finite matrix")
    if n % 2:
        raise ValueError(f"matrix_sign expects a Hamiltonian matrix, got odd size {n}")
    m = n // 2
    w = np.vstack([h[m:], -h[:m]])  # J h
    asymmetry = np.abs(w - w.T).max(initial=0.0)
    if asymmetry > HAMILTONIAN_TOL * np.abs(w).max(initial=0.0):
        raise ValueError(f"matrix_sign expects a Hamiltonian matrix; J h is asymmetric "
                         f"by {asymmetry:.3e}")
    w = 0.5 * (w + w.T)
    # W and W_next stay C-ordered and symmetric; ``sytrf`` and ``sytri`` work
    # in place on the lower triangle of the Fortran-ordered ``buf`` (its
    # transpose holds W), and the transpose ``x`` of the inverse is W^-1 on
    # and above the diagonal.  At the default config the lower triangle's
    # pivots give a sign within 3e-13 of an LU iteration's, the upper's 5e-11.
    w_next, buf = np.empty_like(w), np.empty_like(w, order="F")
    lower = np.tril(np.ones((n, n), dtype=bool), -1)
    lwork = int(lapack.dsytrf_lwork(n)[0])
    stop = np.sqrt(SIGN_TOL)
    for k in range(1, max_iter + 1):
        buf.T[...] = w
        # info > 0 is an exactly zero pivot
        ldl, piv, info = lapack.dsytrf(buf, lower=1, lwork=lwork, overwrite_a=True)
        if info == 0:
            inv, info = lapack.dsytri(ldl, piv, lower=1, overwrite_a=True)
        if info != 0 or not np.isfinite(inv).all():
            raise ImaginaryAxisEigenvalue(
                "sign iteration hit a singular iterate; eigenvalue on the imaginary axis")
        x = inv.T
        np.copyto(x, x.T, where=lower)
        # the root of each norm, so that their ratio cannot overflow
        c = np.sqrt(np.linalg.norm(x)) / np.sqrt(np.linalg.norm(w))
        # W_next = (c W + J W^-1 J / c)/2, J X J = [[-X22, X21], [X12, -X11]]
        scale = 0.5 / c
        np.multiply(x[m:, m:], -scale, out=w_next[:m, :m])
        np.multiply(x[m:, :m], scale, out=w_next[:m, m:])
        np.multiply(x[:m, m:], scale, out=w_next[m:, :m])
        np.multiply(x[:m, :m], -scale, out=w_next[m:, m:])
        np.multiply(w, 0.5 * c, out=x)
        w_next += x
        np.subtract(w_next, w, out=x)
        # a product, not a quotient: cannot overflow when W_next is tiny
        converged = np.linalg.norm(x) < stop * np.linalg.norm(w_next)
        w, w_next = w_next, w
        if converged:
            return np.vstack([-w[m:], w[:m]]), k  # J^T W
    raise NoConvergence(f"sign iteration did not converge in {max_iter} steps")


def save_matrix(path, a):
    """Write a dense real matrix in the package binary format."""
    a = np.ascontiguousarray(a, dtype="<f8")
    if a.ndim == 1:
        a = a[None, :]
    rows, cols = a.shape
    header = MATRIX_MAGIC + np.array([rows, cols], dtype="<u4").tobytes() + b"\0" * 4
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(a.tobytes())


def load_matrix(path):
    """Read a dense real matrix written by :func:`save_matrix`.

    The payload must be exactly the 8 * rows * cols bytes the header
    promises; a short or a long file is a ValueError.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if len(header) != _HEADER_BYTES or header[:4] != MATRIX_MAGIC:
            raise ValueError(f"{path} is not a floatlab matrix file")
        rows, cols = (int(k) for k in np.frombuffer(header[4:12], dtype="<u4"))
        payload = fh.read()
    if len(payload) != 8 * rows * cols:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, "
                         f"header promises {8 * rows * cols}")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
