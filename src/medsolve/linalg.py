"""Dense linear-algebra helpers shared by the package's modules.

Each is a thin wrapper over one or two ``numpy`` calls on an m x m array:
read-only marking, the hermitian part, the Hilbert-Schmidt norm, the
hermitian spectrum, the polar and Haar-random unitaries, and the unitarity
residual.
"""

from __future__ import annotations

import math

import numpy as np
# the gufuncs behind np.linalg.eigvalsh, np.linalg.eigh and np.linalg.svd, called
# without that wrapper's per-call checks and casts: the same LAPACK call on the
# same data
from numpy.linalg import _umath_linalg


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark an array immutable in place and return it."""
    arr.setflags(write=False)
    return arr


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Return the hermitian part (M + M^dag)/2 of a square matrix."""
    return 0.5 * (mat + mat.conj().T)


def hs_norm(mat: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return math.sqrt(np.vdot(mat, mat).real)


def hermitian_eig(
    mat: np.ndarray, vectors: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of each hermitian matrix of the stack ``mat``, read
    from its lower triangle, as np.linalg.eigvalsh returns them, or with
    ``vectors`` the (eigenvalues, eigenvectors) of np.linalg.eigh.

    At m <= 8 numpy's wrapper costs more than the factorization, so the
    LAPACK gufunc is called bare.  Where the wrapper raised LinAlgError on
    non-convergence, the gufunc returns NaN (numpy flags it as an invalid
    operation), so a spectrum that is not finite raises that LinAlgError here.
    """
    out = _umath_linalg.eigh_lo(mat) if vectors else _umath_linalg.eigvalsh_lo(mat)
    if not np.isfinite(out[0] if vectors else out).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return out


def polar_unitary(mat: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition (closest unitary in HS norm) of
    each float64 or complex128 matrix of the stack ``mat``.

    The SVD's gufunc is called bare, as in ``hermitian_eig``: where
    np.linalg.svd raised LinAlgError on non-convergence, the gufunc returns
    NaN (numpy flags it as an invalid operation), so singular values that are
    not finite raise that LinAlgError here.
    """
    u, s, vh = _umath_linalg.svd_f(mat)
    if not np.isfinite(s).all():
        raise np.linalg.LinAlgError("SVD did not converge")
    return u @ vh


def haar_unitary(rng: np.random.Generator, m: int, real: bool = False) -> np.ndarray:
    """Haar-distributed unitary (or orthogonal, if ``real``) m x m matrix.

    QR of a Ginibre matrix with the R-diagonal phase fix, which makes the
    distribution exactly Haar rather than merely QR-shaped.
    """
    if real:
        z = rng.normal(size=(m, m))
    else:
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def unitarity_residual(mat: np.ndarray) -> float:
    """HS distance of U^dag U from the identity (NaN or inf, silently, if U is not finite)."""
    mat = np.asarray(mat)
    with np.errstate(invalid="ignore", over="ignore"):
        # np.linalg.norm's own arithmetic for a matrix, without its wrapper
        d = (mat.conj().T @ mat - np.eye(mat.shape[0])).ravel()
        dr, di = d.real, d.imag
        return math.sqrt(dr.dot(dr) + di.dot(di))
