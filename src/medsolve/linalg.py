"""Dense linear-algebra helpers shared by the package's modules.

Each is a thin wrapper over one or two ``numpy`` calls on an m x m array:
read-only marking, the hermitian part, the Hilbert-Schmidt norm, the polar
and Haar-random unitaries, and the unitarity residual.
"""

from __future__ import annotations

import math

import numpy as np


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


def polar_unitary(mat: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition (closest unitary in HS norm)."""
    u, _, vh = np.linalg.svd(mat)
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
        return float(np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0])))
