"""Matrix sign iteration and the FLTC binary matrix format.

The sign function is a Newton iteration with Frobenius-norm scaling,
which has no library equivalent here.  Each iterate is factored once by
LAPACK ``getrf`` and inverted by blocked ``getri`` on those factors with
its optimal workspace (with the default workspace of n, ``getri`` runs
unblocked and is slower than solving against the identity).  The
iteration stops in its quadratic phase, one step before the update would
fall below the tolerance (Kenney & Laub, SIAM J. Matrix Anal. Appl. 13,
1992; Higham, Functions of Matrices, SIAM 2008, ch. 5).  It is double
precision and deterministic for a fixed input on a fixed build.
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


def matrix_sign(h, max_iter=100):
    """Matrix sign function by scaled Newton iteration Z <- (c Z + (c Z)^-1)/2.

    Returns (sign, steps).  The scaling c = sqrt(||Z^-1||_F / ||Z||_F)
    accelerates the early phase.  The iteration converges quadratically,
    so it returns once a relative update falls below sqrt(SIGN_TOL): the
    next one would be below SIGN_TOL.  It is undefined when h has an
    eigenvalue on the imaginary axis; that surfaces as a singular iterate
    or a stalled iteration and raises ImaginaryAxisEigenvalue /
    NoConvergence.  A non-finite h raises ValueError.
    """
    from scipy.linalg import lapack  # not at module level: see the package docstring

    z = np.asarray(h, dtype=float).copy()
    n = z.shape[0]
    if z.shape != (n, n):
        raise ValueError("matrix_sign expects a square matrix")
    if not np.isfinite(z).all():
        raise ValueError("matrix_sign expects a finite matrix")
    lwork = int(lapack.dgetri_lwork(n)[0])
    stop = np.sqrt(SIGN_TOL)
    for k in range(1, max_iter + 1):
        # one LU per iterate, inverted in place on its own factors;
        # info > 0 is an exactly zero pivot
        lu, piv, info = lapack.dgetrf(z)
        if info == 0:
            zinv, info = lapack.dgetri(lu, piv, lwork=lwork, overwrite_lu=True)
        if info != 0 or not np.isfinite(zinv).all():
            raise ImaginaryAxisEigenvalue(
                "sign iteration hit a singular iterate; eigenvalue on the imaginary axis")
        # the root of each norm, so that their ratio cannot overflow
        c = np.sqrt(np.linalg.norm(zinv, "fro")) / np.sqrt(np.linalg.norm(z, "fro"))
        z_next = 0.5 * (c * z + zinv / c)
        # a product, not a quotient: cannot overflow when z_next is tiny
        converged = np.linalg.norm(z_next - z, "fro") < stop * np.linalg.norm(z_next, "fro")
        z = z_next
        if converged:
            return z, k
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
