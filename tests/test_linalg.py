import numpy as np
import pytest

from floatlab import linalg as la
from floatlab.errors import ImaginaryAxisEigenvalue


#: Step limit of the sign iteration in these tests.
MAX_ITER = 100


def random_hamiltonian(rng, m):
    """[[A, G], [Q, -A^T]] with G and Q symmetric: J h is exactly symmetric."""
    a = rng.standard_normal((m, m)) + 0.5 * np.eye(m)
    g, q = (x + x.T for x in rng.standard_normal((2, m, m)))
    return np.block([[a, g], [q, -a.T]])


def similar_hamiltonian(rng, lam):
    """(S diag(lam, -lam) S^-1, S diag(sign lam, -sign lam) S^-1) for a random symplectic S.

    S = [[I, 0], [K, I]] [[M, 0], [0, M^-T]] [[I, L], [0, I]] with K, L
    symmetric, and S^-1 = J^T S^T J.
    """
    m = lam.size
    eye, zero = np.eye(m), np.zeros((m, m))
    k, l = (0.3 * (x + x.T) for x in rng.standard_normal((2, m, m)))
    big = rng.standard_normal((m, m)) / np.sqrt(m) + np.eye(m)
    s = (np.block([[eye, zero], [k, eye]]) @ np.block([[big, zero], [zero, np.linalg.inv(big).T]])
         @ np.block([[eye, l], [zero, eye]]))
    j = np.block([[zero, eye], [-eye, zero]])
    s_inv = j.T @ s.T @ j

    def similar(d):
        return s @ np.diag(np.concatenate([d, -d])) @ s_inv
    return similar(lam), similar(np.sign(lam))


def perturbed_hamiltonian():
    """A random Hamiltonian with one entry of A moved by 1e3 ``HAMILTONIAN_TOL`` of its largest."""
    h = random_hamiltonian(np.random.default_rng(3), 4)
    h[0, 1] += 1e3 * la.HAMILTONIAN_TOL * np.abs(h).max()
    return h


class TestMatrixSign:
    def test_diagonal(self):
        # A = diag(-2, 3): the Hamiltonian diag(-2, 3, 2, -3)
        s, steps = la.matrix_sign(np.diag([-2.0, 3.0, 2.0, -3.0]), MAX_ITER)
        assert s == pytest.approx(np.diag([-1.0, 1.0, 1.0, -1.0]))
        assert 1 <= steps <= 10

    def test_squares_to_identity(self):
        rng = np.random.default_rng(2)
        h = random_hamiltonian(rng, 4)
        if np.any(np.abs(np.linalg.eigvals(h).real) < 1e-3):
            pytest.skip("random draw too close to the imaginary axis")
        s, _ = la.matrix_sign(h, MAX_ITER)
        assert np.abs(s @ s - np.eye(8)).max() <= 1e-8

    def test_imaginary_axis_spectrum_rejected(self):
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
        with pytest.raises(ImaginaryAxisEigenvalue):
            la.matrix_sign(rotation, MAX_ITER)

    @pytest.mark.parametrize("singular", [np.zeros((4, 4)), np.array([[0.0, 1.0], [0.0, 0.0]])])
    def test_singular_input_rejected(self, singular):
        with pytest.raises(ImaginaryAxisEigenvalue):
            la.matrix_sign(singular, MAX_ITER)

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(5)
        lam = rng.choice([-1.0, 1.0], 20) * rng.uniform(0.1, 10.0, 20)
        h, expected = similar_hamiltonian(rng, lam)
        assert np.abs(la.matrix_sign(h, MAX_ITER)[0] - expected).max() <= (
            1e-9 * np.abs(expected).max())

    def test_wide_eigenvalue_spread(self):
        # eigenvalue moduli from 1e-4 to 1e2, the range of the Riccati Hamiltonian
        rng = np.random.default_rng(7)
        lam = rng.choice([-1.0, 1.0], 20) * np.logspace(-4.0, 2.0, 20)
        h, expected = similar_hamiltonian(rng, lam)
        s, _ = la.matrix_sign(h, MAX_ITER)
        assert np.abs(s - expected).max() <= 1e-9 * np.abs(expected).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        a = np.diag([-2.0, 3.0])
        a[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            la.matrix_sign(a, MAX_ITER)

    @pytest.mark.parametrize("h", [np.diag([-2.0, 3.0, 2.0]), np.diag([-2.0, 3.0]),
                                   perturbed_hamiltonian()],
                             ids=["odd_size", "generic", "perturbed"])
    def test_non_hamiltonian_input_rejected(self, h):
        with pytest.raises(ValueError, match="Hamiltonian"):
            la.matrix_sign(h, MAX_ITER)


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 5))
        path = tmp_path / "m.bin"
        la.save_matrix(path, a)
        assert la.load_matrix(path) == pytest.approx(a)

    def test_header(self, tmp_path):
        path = tmp_path / "m.bin"
        la.save_matrix(path, np.ones((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"FLTC"
        assert len(raw) == 16 + 2 * 3 * 8

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a matrix into the void")
        with pytest.raises(ValueError):
            la.load_matrix(path)

    @pytest.mark.parametrize("change, payload", [(lambda raw: raw[:-8], 40),
                                                 (lambda raw: raw + b"\0" * 8, 56)],
                             ids=["short", "long"])
    def test_rejects_payload_of_wrong_length(self, tmp_path, change, payload):
        # a 2 x 3 matrix has 48 payload bytes; 8 missing or 8 extra must not load
        path = tmp_path / "m.bin"
        la.save_matrix(path, np.ones((2, 3)))
        path.write_bytes(change(path.read_bytes()))
        with pytest.raises(ValueError, match=f"payload is {payload} bytes, header promises 48"):
            la.load_matrix(path)
