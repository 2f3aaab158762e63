"""Dense linear-algebra helpers shared by the package's modules.

Each is a thin wrapper over one or two ``numpy`` calls on an m x m array:
read-only marking, the hermitian part, the Hilbert-Schmidt norm, the
hermitian spectrum, the polar and Haar-random unitaries, and the unitarity
residual.

``lapack`` is numpy's private module of LAPACK gufuncs, the one door through
which the package reaches it.  Its ``eigvalsh_lo``, ``eigh_lo``, ``svd_f``,
``inv``, ``cholesky_lo``, ``solve1`` and ``solve`` are what np.linalg.eigvalsh,
eigh, svd, inv, cholesky and solve call, here without the wrapper's per-call
array checks, dtype casts and error-state context, which at m <= 8 cost as
much as the factorization: the same LAPACK call on the same data.  Where the
wrapper raised LinAlgError, a gufunc returns NaN in its outputs and flags an
invalid operation, so each caller owns its error state and reads the failure
off the NaN.  The CLI holds one error state, in ``cli.main``, around each
whole command; library callers keep numpy's default, under which a failed
gufunc also warns with numpy's RuntimeWarning before the LinAlgError.
Callers look the gufuncs up as ``linalg.lapack.<name>`` at call time, never
binding one at import, so a test can replace the module.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg as lapack


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark an array immutable in place and return it."""
    arr.setflags(write=False)
    return arr


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Return the hermitian part (M + M^dag)/2 of a square matrix."""
    return 0.5 * (mat + mat.conj().T)


def hs_norm(mat: np.ndarray) -> float | np.ndarray:
    """Hilbert-Schmidt (Frobenius) norm of a matrix, or the array of the norms of
    the matrices of an (n, m, m) stack, one ``vdot`` per matrix as for a lone one."""
    if mat.ndim == 2:
        return math.sqrt(np.vdot(mat, mat).real)
    return np.sqrt([np.vdot(x, x).real for x in mat])


def hermitian_eig(
    mat: np.ndarray, vectors: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of each hermitian matrix of the stack ``mat``, read
    from its lower triangle, as np.linalg.eigvalsh returns them, or with
    ``vectors`` the (eigenvalues, eigenvectors) of np.linalg.eigh.

    The gufunc of ``lapack`` runs under the caller's error state; a spectrum
    that is not finite raises the wrapper's LinAlgError here.
    """
    out = lapack.eigh_lo(mat) if vectors else lapack.eigvalsh_lo(mat)
    if not np.isfinite(out[0] if vectors else out).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return out


def polar_unitary(mat: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition (closest unitary in HS norm) of
    each float64 or complex128 matrix of the stack ``mat``.

    The gufunc of ``lapack`` runs under the caller's error state, as in
    ``hermitian_eig``; singular values that are not finite raise the wrapper's
    LinAlgError here.
    """
    u, s, vh = lapack.svd_f(mat)
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
