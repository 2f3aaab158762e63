"""Optimality certification for candidate measurements.

A rank-one projective measurement {Pi_i} is stationary for the average
success probability iff

    Pi_j (p_j rho_j - p_i rho_i) Pi_i = 0   for all i, j,

and a stationary measurement is the global optimum iff the dual operator
Z = sum_k p_k rho_k Pi_k dominates every weighted state:

    Z - p_i rho_i >= 0   for all i.

Tr(Z) = sum_i |O_ii|^2 is the success probability of any measurement; the
optimum is where Z also dominates.  Every field is read off the overlap
matrix O = S^dag V, O_ij = <psi~_i|v_j> (scaled states and measurement basis
as columns): the stationarity block has HS norm |O_jj O_jk^* - O_kj O_kk^*|,
Z equals S diag(O) V^dag, and the optimum is the unique stationary point
whose hermitian factor F = D O (O phase-fixed to a non-negative diagonal D)
is positive definite -- equivalently, F is the positive square root of D G D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ResidualTooLarge
from .gram import GramMatrix, Ensemble
from .linalg import hermitian_eig, hermitize, hs_norm, polar_unitary
from .measurement import Povm

#: stationarity tolerance: one order above the observed integration
#: error floor (~1e-15), with margin for dimensions up to ~8
TOL_STAT = 1e-9
#: global-optimality tolerance on the minimum eigenvalue
TOL_GLB = 1e-9

#: admissible deviation of F^2 from DGD for a state offered as a solution
RESIDUAL_GATE = 1e-8

_STATUS_OPTIMAL = "optimal"
_STATUS_STATIONARY = "stationary"
_STATUS_NONSTATIONARY = "nonstationary"


@dataclass(frozen=True)
class Certificate:
    """Machine-readable optimality certificate for one measurement.

    Fields: the stationarity residual, the minimum eigenvalue of
    Z - p_i rho_i over i (>= -TOL_GLB certifies global optimality), the
    minimum eigenvalue of the hermitian factor F (``f_positive`` is derived
    from it), the success probability sum_i |O_ii|^2 and Tr(Z), equal for any
    measurement (``global_min_eig``, not Tr(Z), tells the optimum apart).

    ``status`` judges the fields at TOL_STAT and TOL_GLB, which ``tol_stat``
    and ``tol_glb`` report; a caller who needs another threshold applies it
    to the fields.
    """

    stationarity_residual: float
    global_min_eig: float
    f_min_eig: float
    p_success: float
    tr_z: float

    @property
    def tol_stat(self) -> float:
        return TOL_STAT

    @property
    def tol_glb(self) -> float:
        return TOL_GLB

    @property
    def f_positive(self) -> bool:
        """Whether F is positive definite, read off ``f_min_eig``."""
        return self.f_min_eig > 0.0

    @property
    def is_stationary(self) -> bool:
        return self.stationarity_residual <= TOL_STAT

    @property
    def is_optimal(self) -> bool:
        return self.is_stationary and self.global_min_eig >= -TOL_GLB

    @property
    def status(self) -> str:
        if not self.is_stationary:
            return _STATUS_NONSTATIONARY
        return _STATUS_OPTIMAL if self.is_optimal else _STATUS_STATIONARY


def factor_residual(a: np.ndarray, fmat: np.ndarray, g: np.ndarray) -> float:
    """HS norm of F^2 - D G D with D = diag(a), the constraint the optimum's factor solves."""
    return hs_norm(fmat.dot(fmat) - a[:, None] * g * a)


def _stationarity_residual(o: np.ndarray) -> float:
    d = o.diagonal()
    return float(np.maximum.reduce(np.abs(d[:, None] * o.conj() - o.T * d.conj()[None, :]),
                                   axis=None))


def _raw_z(scaled: np.ndarray, vectors: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Z = sum_i |psi~_i><psi~_i|v_i><v_i| = S diag(O) V^dag, before hermitizing."""
    return (scaled * o.diagonal()) @ vectors.conj().T


def z_operator(ensemble: Ensemble | GramMatrix, povm: Povm) -> np.ndarray:
    """Dual operator Z = sum_i p_i rho_i Pi_i of ``ensemble.scaled_states``, hermitized."""
    scaled, vectors = ensemble.scaled_states, povm.vectors
    return hermitize(_raw_z(scaled, vectors, scaled.conj().T @ vectors))


def complements(scaled: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Stack of Z - |psi~_i><psi~_i| = Z - p_i rho_i over the columns of ``scaled``."""
    return z - scaled.T[:, :, None] * scaled.conj().T[:, None, :]


def _global_min_eig(scaled: np.ndarray, z: np.ndarray) -> float:
    """Minimum eigenvalue of Z - |psi~_i><psi~_i| over all i.  The complements
    are built 8 columns at a time, so memory stays O(8 m^2), not O(m^3); the
    eigenvalue gufunc treats each matrix of a stack on its own, so the bits are
    those of the full stack, and at m <= 8 it is one call."""
    lowest = np.inf
    for k in range(0, scaled.shape[1], 8):
        block = hermitian_eig(complements(scaled[:, k:k + 8], z))[:, 0]
        lowest = min(lowest, np.minimum.reduce(block))
    return float(lowest)


def hermitian_factor(overlaps: np.ndarray) -> np.ndarray:
    """Candidate factor F = D W from the overlap matrix, with per-outcome
    phases fixed so the diagonal of W is real non-negative."""
    diag = overlaps.diagonal().copy()
    diag[np.abs(diag) < 1e-15] = 1.0
    phases = diag / np.abs(diag)
    w = overlaps * phases.conj()[None, :]
    d = w.diagonal().real
    return hermitize(d[:, None] * w)


def _certify(scaled: np.ndarray, vectors: np.ndarray) -> Certificate:
    """Certificate of the basis ``vectors`` against the scaled states, every
    field read off their overlap matrix O = S^dag V.  At m <= 8 numpy's
    per-call cost outweighs the arithmetic, so each call takes its cheapest
    form (ufunc reductions, the bare eigenvalue gufunc), with the same bits."""
    o = scaled.conj().T @ vectors
    z = hermitize(_raw_z(scaled, vectors, o))
    return Certificate(
        stationarity_residual=_stationarity_residual(o),
        global_min_eig=_global_min_eig(scaled, z),
        f_min_eig=float(hermitian_eig(hermitian_factor(o))[0]),
        p_success=float(np.add.reduce(np.abs(o.diagonal()) ** 2)),
        tr_z=float(z.trace().real),
    )


def certify_povm(ensemble: Ensemble | GramMatrix, povm: Povm) -> Certificate:
    """Full certificate of a measurement against ``ensemble.scaled_states``
    (G^{1/2} for a ``GramMatrix``), judged at TOL_STAT and TOL_GLB."""
    if ensemble.m != povm.m:
        raise ValueError("ensemble and measurement dimensions differ")
    return _certify(ensemble.scaled_states, povm.vectors)


def certify_gram(gram: GramMatrix, f: np.ndarray) -> tuple[Certificate, Povm]:
    """(Certificate, dual-frame Povm) for a hermitian factor F offered as a solution at G.

    Rejects F unless it is finite, m x m and hermitian and F^2 = D G D holds with
    D = diag(sqrt(F_ii)) to RESIDUAL_GATE, then certifies the nearest
    unitary to U = G^{-1/2} D^{-1} F against the columns of G^{1/2}, the
    scaled states of the canonical realization, and returns U as the Povm.
    The success probability and the factor fields come from the measurement
    it returns, as ``certify_povm`` reads them; the certificate is judged at
    TOL_STAT and TOL_GLB.
    """
    f = np.asarray(f, dtype=complex)
    if not np.isfinite(f).all():  # first, so None (a 0-d NaN here) reads as non-finite
        raise ValueError("factor F must be finite")
    if f.shape != gram.entries.shape:
        raise ValueError(f"factor F has shape {f.shape}, the Gram matrix has {gram.entries.shape}")
    if np.maximum.reduce(np.abs(f - f.conj().T), axis=None) > 1e-10:
        raise ValueError("factor F must be hermitian")
    a_sq = f.diagonal().real
    if (a_sq <= 0.0).any():
        raise ValueError("factor F must have positive diagonal")
    a = np.sqrt(a_sq)
    return certify_factor(gram, f, a, factor_residual(a, f, gram.entries))


def certify_factor(gram: GramMatrix, f: np.ndarray, a: np.ndarray, resid: float
                   ) -> tuple[Certificate, Povm]:
    """``certify_gram`` past its input checks, for a complex hermitian F with
    a = sqrt(diag F) > 0 whose ``factor_residual(a, f, gram.entries)`` the
    caller holds as ``resid``: ResidualTooLarge unless it meets RESIDUAL_GATE."""
    if not resid <= RESIDUAL_GATE:
        raise ResidualTooLarge(f"F^2 - DGD has HS norm {resid:.3e} (gate {RESIDUAL_GATE:.1e})")
    # The factorization residual leaks into unitarity at the same order;
    # snap to the nearest unitary before certifying.
    u = polar_unitary(gram.inv_sqrt() @ (f / a[:, None]))
    return _certify(gram.scaled_states, u), Povm(u)
