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

from .certify import check_tolerance, z_operator
from .gram import Ensemble
from .measurement import Povm


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


def to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch coordinates n_k = (sqrt(3)/2) Tr(rho l_k) of a unit-trace
    hermitian 3x3 matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("expected a hermitian matrix")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("expected trace 1")
    return _coordinates(rho)


def _coordinates(rho: np.ndarray) -> np.ndarray:
    return (np.sqrt(3.0) / 2.0) * np.einsum("kab,ba->k", gell_mann(), rho).real


def _normalized_coordinates(c: np.ndarray, weight: float, tol: float) -> np.ndarray:
    """Bloch coordinates of c / weight for a hermitian c of trace ``weight``,
    unchecked, since rounding in c over a small weight can trip the checks of
    ``to_bloch``.  A weight within tol of 0 leaves nothing to normalize and
    gives the centre 0: the maximally mixed state, which misses rank two by 1."""
    if abs(weight) <= tol:
        return np.zeros(8)
    return _coordinates(c / weight)


def star(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Symmetric bilinear product (n1*n2)_l = sqrt(3) d_jkl n1_j n2_k."""
    return np.sqrt(3.0) * np.einsum("jkl,j,k->l", d_tensor(), n1, n2)


def boundary_form(n: np.ndarray) -> float:
    """The cubic (3 n - 2 n*n).n; equals 1 on the rank-deficient boundary."""
    return float((3.0 * n - 2.0 * star(n, n)) @ n)


@dataclass(frozen=True)
class AuditReport:
    """Residuals and margins of the geometric optimality conditions.

    Each entry of ``residuals`` must be <= tol, and each entry of
    ``strict_margins`` must be positive, for the audit to pass.  Both are kept
    as read-only copies, so the verdict cannot change after construction.
    """

    k0: float
    residuals: Mapping[str, float]
    strict_margins: Mapping[str, float]
    tol: float

    def __post_init__(self):
        for name in ("residuals", "strict_margins"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values()) and all(
            v > 0.0 for v in self.strict_margins.values()
        )


def geometric_audit(ensemble: Ensemble, povm: Povm, tol: float = 1e-8) -> AuditReport:
    """Check the Bloch-geometry conditions that single out the optimum.

    With Z the dual operator, k0 = Tr(Z) and kappa_i = k0 - p_i, the
    normalized complements sigma_i = (Z - p_i rho_i)/kappa_i have Bloch
    vectors s_i and the measurement projectors have Bloch vectors t_i.  At
    the optimum:

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
    |trace| <= tol (kappa_i = 0 when Z = p_i rho_i) has no Bloch vector and
    gets the centre 0, so the report fails with finite entries.  Returns
    the report whether or not it passed; ``tol`` must be finite and >= 0.
    """
    if ensemble.m != 3 or povm.m != 3:
        raise ValueError("the geometric audit is defined for three states")
    check_tolerance("tol", tol)
    z = z_operator(ensemble, povm)

    probs = ensemble.probs
    k0 = float(np.trace(z).real)
    k_vec = _normalized_coordinates(z, k0, tol)

    s_vecs, t_vecs = [], []
    for i in range(3):
        psi = ensemble.states[:, i]
        complement = z - probs[i] * np.outer(psi, psi.conj())
        s_vecs.append(_normalized_coordinates(complement, k0 - probs[i], tol))
        # a rank-one projector is hermitian with trace 1, so to_bloch's checks cannot fail
        t_vecs.append(_coordinates(povm.projector(i)))

    residuals = {
        "sigma_boundary": max(abs(boundary_form(s) - 1.0) for s in s_vecs),
        "orthogonality": max(
            float(np.max(np.abs(s + t + star(t, s)))) for s, t in zip(s_vecs, t_vecs)
        ),
    }
    margins = {
        "sigma_norm_interior": min(1.0 - float(s @ s) for s in s_vecs),
        "dual_weight_lower": k0 - float(np.max(probs)) + tol,
        "dual_norm_interior": 1.0 - float(k_vec @ k_vec),
        "dual_boundary": 1.0 - boundary_form(k_vec) + tol,
    }
    return AuditReport(k0=k0, residuals=residuals, strict_margins=margins, tol=tol)
