"""Matrix sign iteration and the FLTC binary matrix format.

The sign function is a Newton iteration with determinant scaling, which
has no library equivalent here; it is double precision and deterministic
for a fixed input on a fixed build.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import ImaginaryAxisEigenvalue, NoConvergence

#: On-disk dense matrix format: magic, uint32 rows, uint32 cols, 4 pad bytes,
#: then row-major little-endian float64 payload.
MATRIX_MAGIC = b"FLTC"
_HEADER_BYTES = 16


def matrix_sign(h, max_iter=100, tol=1e-13):
    """Matrix sign function by scaled Newton iteration Z <- (c Z + (c Z)^-1)/2.

    Determinant scaling c = |det Z|^(-1/n) accelerates the early phase.
    The iteration is undefined when h has an eigenvalue on the imaginary
    axis; that surfaces as a singular iterate or a stalled residual and
    raises ImaginaryAxisEigenvalue / NoConvergence.
    """
    z = np.asarray(h, dtype=float).copy()
    n = z.shape[0]
    if z.shape != (n, n):
        raise ValueError("matrix_sign expects a square matrix")
    for k in range(max_iter):
        # one LU per iterate: log|det| from the diagonal of U, the inverse
        # by solving against the identity on the same factors (getrs runs
        # at level 3, getri does not); info > 0 is an exactly zero pivot
        lu, piv, info = lapack.dgetrf(z)
        if info == 0:
            logabsdet = np.log(np.abs(np.diag(lu))).sum()
            zinv, info = lapack.dgetrs(lu, piv, np.eye(n))
        if info != 0 or not np.isfinite(logabsdet):
            raise ImaginaryAxisEigenvalue(
                "sign iteration hit a singular iterate; eigenvalue on the imaginary axis")
        c = np.exp(-logabsdet / n)
        z_next = 0.5 * (c * z + zinv / c)
        delta = np.linalg.norm(z_next - z, "fro") / max(np.linalg.norm(z_next, "fro"), 1e-300)
        z = z_next
        if delta < tol:
            return z
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
    """Read a dense real matrix written by :func:`save_matrix`."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if len(header) != _HEADER_BYTES or header[:4] != MATRIX_MAGIC:
            raise ValueError(f"{path} is not a floatlab matrix file")
        rows, cols = np.frombuffer(header[4:12], dtype="<u4")
        data = np.frombuffer(fh.read(int(rows) * int(cols) * 8), dtype="<f8")
    return data.reshape(int(rows), int(cols)).copy()
