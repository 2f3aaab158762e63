"""Dense linear-algebra helpers."""

import numpy as np
import pytest

import medsolve as ms
from conftest import EIGEN, lapack_nan_from_call
from medsolve.linalg import hermitian_eig, hs_norm, unitarity_residual


def _matrices(real: bool):
    """100 seeded m x m matrices, m = 2..8, among them the zero matrix and one
    scaled by 1e-200, whose squares fall below the normal range."""
    rng = np.random.default_rng(31 + real)
    for k in range(100):
        m = 2 + k % 7
        mat = rng.normal(size=(m, m))
        if not real:
            mat = mat + 1j * rng.normal(size=(m, m))
        yield mat * (0.0 if k == 0 else 1e-200 if k == 1 else 10.0 ** rng.uniform(-8, 8))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_hs_norm_is_numpys_square_root(real):
    # math.sqrt and np.sqrt are both correctly rounded; a stack of m x m matrices
    # gives each matrix's norm bit for bit
    mats = list(_matrices(real))
    for mat in mats:
        got = hs_norm(mat)
        assert type(got) is float
        assert got.hex() == float(np.sqrt(np.vdot(mat, mat).real)).hex()
    for m in range(2, 9):
        same_m = [mat for mat in mats if mat.shape[0] == m]
        assert hs_norm(np.stack(same_m)).tolist() == [hs_norm(mat) for mat in same_m]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_hermitian_eig_is_numpys_eigvalsh_and_eigh_bitwise(real):
    # the same LAPACK gufunc on the same data, one matrix or a stack
    for mat in _matrices(real):
        h = mat + mat.conj().T
        for x in (h, np.stack([h, 2.0 * h, h.T])):
            assert hermitian_eig(x).tobytes() == np.linalg.eigvalsh(x).tobytes()
            w, v = hermitian_eig(x, vectors=True)
            want_w, want_v = np.linalg.eigh(x)
            assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()


@pytest.mark.parametrize("vectors", [False, True])
def test_a_nan_spectrum_raises_numpys_linalg_error(monkeypatch, vectors):
    lapack_nan_from_call(monkeypatch, 1, *EIGEN)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        hermitian_eig(np.eye(3), vectors=vectors)


def test_gram_matrix_refuses_a_nan_spectrum(monkeypatch):
    # a NaN smallest eigenvalue would pass the min_eig <= EPS_LI test
    calls = lapack_nan_from_call(monkeypatch, 1, *EIGEN)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        ms.GramMatrix(np.eye(3) / 3)
    assert calls == [2]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_unitarity_residual_is_numpys_norm(real):
    for mat in _matrices(real):
        want = float(np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0])))
        assert unitarity_residual(mat).hex() == want.hex()
