"""Rank-one projective measurements built from a Gram matrix and a unitary.

Every ordered orthonormal basis {|v_i>} of the span of the scaled states
can be written as

    |v_i> = sum_j (G^{1/2} U)_{ji} |u_j>

with {|u_j>} the dual basis and U unitary; U carries the entire freedom of
the measurement.  The overlap matrix is then <psi~_i|v_j> = (G^{1/2} U)_{ij},
so the average success probability of the measurement {|v_i><v_i|} is
sum_i |(G^{1/2} U)_{ii}|^2; ``certify_povm`` reports it with the
certificate.  U = identity gives the pretty good measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotUnitary
from .gram import Ensemble, GramMatrix
from .linalg import polar_unitary, read_only, unitarity_residual

_ATOL_ONB = 1e-10

#: coordinates refer to the ensemble's own ambient space
FRAME_AMBIENT = "ambient"
#: coordinates refer to the canonical realization built from G alone,
#: in which the scaled states are the columns of G^{1/2}
FRAME_DUAL = "dual"


@dataclass(frozen=True)
class Povm:
    """Rank-one projective measurement, stored as the orthonormal basis.

    ``vectors`` holds one unit vector per column; outcome i is the projector
    onto column i.  ``frame`` records which ambient space the coordinates
    refer to (FRAME_AMBIENT for a user ensemble's space, FRAME_DUAL for the
    canonical realization of a bare Gram matrix).
    """

    vectors: np.ndarray
    frame: str = FRAME_DUAL

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=complex)
        if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1]:
            raise ValueError("measurement basis must be a square matrix")
        if self.frame not in (FRAME_AMBIENT, FRAME_DUAL):
            raise ValueError(f"unknown frame {self.frame!r}")
        resid = unitarity_residual(vectors)
        if not resid <= _ATOL_ONB:  # also rejects NaN and inf entries
            raise NotUnitary(f"basis is not orthonormal (residual {resid:.3e})")
        object.__setattr__(self, "vectors", read_only(vectors))

    @property
    def m(self) -> int:
        return self.vectors.shape[0]


def povm_from_unitary(
    gram: GramMatrix, u: np.ndarray, ensemble: Ensemble | None = None
) -> Povm:
    """Measurement basis |v_i> = sum_j (G^{1/2} U)_{ji} |u_j>.

    Without an ensemble the canonical realization is used: the scaled states
    are the columns of G^{1/2}, the dual basis is G^{-1/2}, and the basis
    vectors reduce to the columns of U itself.  With an ensemble the vectors
    are expressed in its ambient space as W U, where W = S G^{-1/2} is the
    polar factor of the scaled-state matrix S: the same basis as the dual
    basis times G^{1/2} U, but orthonormal to rounding however small the
    least eigenvalue of G.
    """
    if np.shape(u) != (gram.m, gram.m):
        raise ValueError(f"unitary must be {gram.m}x{gram.m}")
    dual = Povm(u, frame=FRAME_DUAL)
    if ensemble is None:
        return dual
    scaled = ensemble.scaled_states
    mismatch = np.max(np.abs(scaled.conj().T @ scaled - gram.entries))
    if mismatch > 1e-10:
        raise ValueError(
            f"gram matrix does not match the ensemble (max deviation {mismatch:.3e})"
        )
    vectors = polar_unitary(scaled) @ dual.vectors
    return Povm(vectors, frame=FRAME_AMBIENT)
