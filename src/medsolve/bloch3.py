"""Qutrit Bloch-vector representation and the geometric optimality audit.

A 3x3 density matrix has the unique expansion

    rho = (1/3) (I + sqrt(3) n . lambda)

over the eight Gell-Mann matrices (normalized as Tr(l_j l_k) = 2 delta_jk),
with n a real 8-vector.  Positivity confines n to n.n <= 1 together with
the cubic boundary condition

    3 n.n - 2 (n*n).n <= 1,

where the star product (n1*n2)_l = sqrt(3) d_jkl n1_j n2_k is built from
the totally symmetric tensor d_jkl = Tr(l_j {l_k, l_l})/4.  Pure states
saturate both constraints; rank-two density operators saturate the cubic
one while staying strictly inside the norm ball.

This module never solves anything in these coordinates.  It re-derives the
optimality structure of a solved three-state problem in the 8-dimensional
geometry and checks the conditions that separate the optimum from other
measurements -- the complements Z - p_i rho_i are rank two and orthogonal
to their outcomes, and the dual operator Z meets its bounds -- giving a
representation-independent audit of solver output.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .certify import complements, z_operator
from .gram import Ensemble, GramMatrix
from .measurement import Povm

#: the audit's tolerance: the bound on each residual, the slack of the two
#: non-strict dual margins, and the |trace| up to which a matrix is centred
AUDIT_TOL = 1e-8


@lru_cache(maxsize=1)
def gell_mann() -> np.ndarray:
    """The eight Gell-Mann matrices, stacked (8, 3, 3), Tr(l_j l_k) = 2 d_jk."""
    lam = np.zeros((8, 3, 3), dtype=complex)
    lam[0, 0, 1] = lam[0, 1, 0] = 1.0
    lam[1, 0, 1] = -1j
    lam[1, 1, 0] = 1j
    lam[2, 0, 0] = 1.0
    lam[2, 1, 1] = -1.0
    lam[3, 0, 2] = lam[3, 2, 0] = 1.0
    lam[4, 0, 2] = -1j
    lam[4, 2, 0] = 1j
    lam[5, 1, 2] = lam[5, 2, 1] = 1.0
    lam[6, 1, 2] = -1j
    lam[6, 2, 1] = 1j
    lam[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=1)
def d_tensor() -> np.ndarray:
    """Totally symmetric tensor d_jkl = Tr(l_j {l_k, l_l})/4, computed once."""
    lam = gell_mann()
    anti = np.einsum("kab,lbc->klac", lam, lam) + np.einsum("lab,kbc->klac", lam, lam)
    d = np.einsum("jca,klac->jkl", lam, anti).real / 4.0
    d.setflags(write=False)
    return d


def star(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Symmetric bilinear product (n1*n2)_l = sqrt(3) d_jkl n1_j n2_k, row by
    row for stacks of vectors, C-ordered."""
    return np.sqrt(3.0) * np.einsum("jkl,...j,...k->...l", d_tensor(), n1, n2, order="C")


@dataclass(frozen=True)
class AuditReport:
    """Residuals and margins of the geometric optimality conditions.

    Each entry of ``residuals`` must be <= AUDIT_TOL (``tol``), and each entry
    of ``strict_margins`` must be positive, for the audit to pass.  Both are
    kept as read-only copies, so the verdict cannot change after construction.
    """

    k0: float
    residuals: Mapping[str, float]
    strict_margins: Mapping[str, float]

    def __post_init__(self):
        for name in ("residuals", "strict_margins"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @property
    def tol(self) -> float:
        return AUDIT_TOL

    @property
    def passed(self) -> bool:
        return all(v <= AUDIT_TOL for v in self.residuals.values()) and all(
            v > 0.0 for v in self.strict_margins.values()
        )


def geometric_audit(ensemble: Ensemble | GramMatrix, povm: Povm) -> AuditReport:
    """Check the Bloch-geometry conditions that single out the optimum.

    With Z the dual operator of ``ensemble.scaled_states`` (G^{1/2} for a
    ``GramMatrix``), k0 = Tr(Z) and kappa_i = k0 - p_i, the normalized
    complements sigma_i = (Z - p_i rho_i)/kappa_i have Bloch vectors s_i and
    the measurement projectors have Bloch vectors t_i.  At the optimum:

    - the complements are rank two: ``sigma_boundary`` is the residual of
      (3 s - 2 s*s).s = 1, and ``sigma_norm_interior`` the margin of
      s.s < 1;
    - each complement is orthogonal to its outcome: ``orthogonality`` is
      the residual of s + t + t*s = 0;
    - the dual bounds hold: max_i p_i <= k0 (``dual_weight_lower``), and
      for k the Bloch vector of Z/k0, k.k < 1 (``dual_norm_interior``) and
      its cubic form is at most 1 (``dual_boundary``).

    Conditions that every orthonormal basis satisfies (pure outcome
    vectors, sum_i t_i = 0, k0 <= 1, the mirror relations between the
    kappa_i s_i and the p_i n_i) are not checked.  A complement or Z with
    |trace| <= AUDIT_TOL (kappa_i = 0 when Z = p_i rho_i) has no Bloch
    vector and gets the centre 0, so the report fails with finite entries.
    Returns the report whether or not it passed, judged at ``AUDIT_TOL``.
    """
    if ensemble.m != 3 or povm.m != 3:
        raise ValueError("the geometric audit is defined for three states")
    z = z_operator(ensemble, povm)

    probs = ensemble.probs
    k0 = float(z.trace().real)
    # Z, the three complements and the three outcome projectors, each over its
    # trace: k0, kappa_i, and 1 for a projector.  A weight within AUDIT_TOL
    # of 0 leaves nothing to normalize and gives the centre 0, the maximally
    # mixed state, which misses rank two by 1
    vectors = povm.vectors
    mats = np.concatenate((z[None], complements(ensemble.scaled_states, z),
                           vectors.T[:, :, None] * vectors.conj().T[:, None, :]))
    weights = np.ones(7)
    weights[0], weights[1:4] = k0, k0 - probs
    centre = np.abs(weights) <= AUDIT_TOL
    centre[4:] = False
    weights[centre] = 1.0
    # one call per stack; order="C" keeps every row contiguous, so each
    # dot below takes the BLAS path of a fresh 8-vector
    coords = (np.sqrt(3.0) / 2.0) * np.einsum(
        "kab,nba->nk", gell_mann(), mats / weights[:, None, None], order="C").real
    coords[centre] = 0.0
    k_vec, s_vecs, t_vecs = coords[0], coords[1:4], coords[4:]
    # the cubic form (3 n - 2 n*n).n of k and the s_i, from one stacked n*n
    cubic = [float(c @ n) for c, n in
             zip(3.0 * coords[:4] - 2.0 * star(coords[:4], coords[:4]), coords[:4])]

    residuals = {
        "sigma_boundary": max(abs(c - 1.0) for c in cubic[1:]),
        "orthogonality": float(np.maximum.reduce(np.abs(s_vecs + t_vecs + star(t_vecs, s_vecs)),
                                                 axis=None)),
    }
    margins = {
        "sigma_norm_interior": min(1.0 - float(s @ s) for s in s_vecs),
        "dual_weight_lower": k0 - float(np.maximum.reduce(probs)) + AUDIT_TOL,
        "dual_norm_interior": 1.0 - float(k_vec @ k_vec),
        "dual_boundary": 1.0 - cubic[0] + AUDIT_TOL,
    }
    return AuditReport(k0=k0, residuals=residuals, strict_margins=margins)
