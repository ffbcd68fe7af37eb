import numpy as np
import pytest

from floatlab import linalg as la
from floatlab.errors import ImaginaryAxisEigenvalue


class TestMatrixSign:
    def test_diagonal(self):
        s, steps = la.matrix_sign(np.diag([-2.0, 3.0]))
        assert s == pytest.approx(np.diag([-1.0, 1.0]))
        assert 1 <= steps <= 10

    def test_squares_to_identity(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8)) + 0.5 * np.eye(8)
        if np.any(np.abs(np.linalg.eigvals(a).real) < 1e-3):
            pytest.skip("random draw too close to the imaginary axis")
        s, _ = la.matrix_sign(a)
        assert np.abs(s @ s - np.eye(8)).max() <= 1e-8

    def test_imaginary_axis_spectrum_rejected(self):
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
        with pytest.raises(ImaginaryAxisEigenvalue):
            la.matrix_sign(rotation)

    @pytest.mark.parametrize("singular", [np.zeros((3, 3)), np.diag([1.0, 0.0])])
    def test_singular_input_rejected(self, singular):
        with pytest.raises(ImaginaryAxisEigenvalue):
            la.matrix_sign(singular)

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(5)
        vecs = rng.standard_normal((40, 40)) + 4.0 * np.eye(40)
        vals = rng.choice([-1.0, 1.0], 40) * rng.uniform(0.1, 10.0, 40)
        a = vecs @ np.diag(vals) @ np.linalg.inv(vecs)
        expected = vecs @ np.diag(np.sign(vals)) @ np.linalg.inv(vecs)
        assert np.abs(la.matrix_sign(a)[0] - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_wide_eigenvalue_spread(self):
        # eigenvalue moduli from 1e-4 to 1e2, the range of the Riccati Hamiltonian
        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((40, 40)) + 4.0 * np.eye(40)
        vals = rng.choice([-1.0, 1.0], 40) * np.logspace(-4.0, 2.0, 40)
        a = vecs @ np.diag(vals) @ np.linalg.inv(vecs)
        expected = vecs @ np.diag(np.sign(vals)) @ np.linalg.inv(vecs)
        s, _ = la.matrix_sign(a)
        assert np.abs(s - expected).max() <= 1e-9 * np.abs(expected).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        a = np.diag([-2.0, 3.0])
        a[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            la.matrix_sign(a)


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
