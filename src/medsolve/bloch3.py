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
geometry and checks every identity the optimum must satisfy, giving a
representation-independent audit of solver output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    return (np.sqrt(3.0) / 2.0) * np.einsum("kab,ba->k", gell_mann(), rho).real


def star(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Symmetric bilinear product (n1*n2)_l = sqrt(3) d_jkl n1_j n2_k."""
    return np.sqrt(3.0) * np.einsum("jkl,j,k->l", d_tensor(), n1, n2)


def boundary_form(n: np.ndarray) -> float:
    """The cubic (3 n - 2 n*n).n; equals 1 on the rank-deficient boundary."""
    return float((3.0 * n - 2.0 * star(n, n)) @ n)


@dataclass(frozen=True)
class AuditReport:
    """Residuals of every geometric identity at a claimed optimum.

    Each entry of ``residuals`` must be <= tol, and each entry of
    ``strict_margins`` must be positive, for the audit to pass.
    """

    k0: float
    residuals: dict[str, float]
    strict_margins: dict[str, float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values()) and all(
            v > 0.0 for v in self.strict_margins.values()
        )


def geometric_audit(ensemble: Ensemble, povm: Povm, tol: float = 1e-8) -> AuditReport:
    """Check every Bloch-geometry identity a certified optimum must satisfy.

    With Z the dual operator, k0 = Tr(Z) and kappa_i = k0 - p_i, the
    normalized complements sigma_i = (Z - p_i rho_i)/kappa_i are rank-two
    density operators whose Bloch vectors s_i, together with the
    measurement vectors t_i and the state vectors n_i, must satisfy:

    - ``sigma_boundary``:  (3 s - 2 s*s).s = 1 with s.s strictly < 1,
    - ``povm_boundary``:   (3 t - 2 t*t).t = 1 with t.t = 1,
    - ``orthogonality``:   s + t + t*s = 0 for every outcome,
    - ``completeness``:    sum_i t_i = 0,
    - ``weight_mirror``:   p_i - p_j = kappa_j - kappa_i,
    - ``moment_mirror``:   p_i n_i - p_j n_j = kappa_j s_j - kappa_i s_i
      (the weighted state polytope and its image are congruent, one being
      a displaced mirror image of the other),
    - ``dual_bounds``:     max_i p_i <= k0 <= 1, k.k < 1 and the cubic
      form of k at most 1, for k the Bloch vector of Z/k0.

    Returns the report whether or not it passed; ``tol`` must be finite
    and >= 0.
    """
    if ensemble.m != 3 or povm.m != 3:
        raise ValueError("the geometric audit is defined for three states")
    check_tolerance("tol", tol)
    z = z_operator(ensemble, povm)

    probs = ensemble.probs
    k0 = float(np.trace(z).real)
    kappas = k0 - probs
    k_vec = to_bloch(z / k0)

    residuals: dict[str, float] = {}
    margins: dict[str, float] = {}

    n_vecs, s_vecs, t_vecs = [], [], []
    for i in range(3):
        psi = ensemble.states[:, i]
        rho = np.outer(psi, psi.conj())
        n_vecs.append(to_bloch(rho))
        sigma = (z - probs[i] * rho) / kappas[i]
        s_vecs.append(to_bloch(sigma))
        t_vecs.append(to_bloch(povm.projector(i)))

    residuals["sigma_boundary"] = max(abs(boundary_form(s) - 1.0) for s in s_vecs)
    margins["sigma_norm_interior"] = min(1.0 - float(s @ s) for s in s_vecs)
    residuals["povm_boundary"] = max(abs(boundary_form(t) - 1.0) for t in t_vecs)
    residuals["povm_norm"] = max(abs(float(t @ t) - 1.0) for t in t_vecs)
    residuals["orthogonality"] = max(
        float(np.max(np.abs(s + t + star(t, s)))) for s, t in zip(s_vecs, t_vecs)
    )
    residuals["completeness"] = float(np.max(np.abs(sum(t_vecs))))

    weight = 0.0
    moment = 0.0
    for i in range(3):
        for j in range(3):
            weight = max(weight, abs((probs[i] - probs[j]) - (kappas[j] - kappas[i])))
            lhs = probs[i] * n_vecs[i] - probs[j] * n_vecs[j]
            rhs = kappas[j] * s_vecs[j] - kappas[i] * s_vecs[i]
            moment = max(moment, float(np.max(np.abs(lhs - rhs))))
    residuals["weight_mirror"] = weight
    residuals["moment_mirror"] = moment

    margins["dual_weight_lower"] = k0 - float(np.max(probs)) + tol
    margins["dual_weight_upper"] = 1.0 - k0 + tol
    margins["dual_norm_interior"] = 1.0 - float(k_vec @ k_vec)
    margins["dual_boundary"] = 1.0 - boundary_form(k_vec) + tol

    return AuditReport(k0=k0, residuals=residuals, strict_margins=margins, tol=tol)
