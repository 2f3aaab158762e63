"""Ground-truth solvers used to cross-check the main pipeline.

The closed-form two-state optimum, and direct maximization of the success
probability by the ascent of ``medsolve.ascent`` from one seeded random start
(restricted to m <= 4, where the start's sufficiency is checked).  Every
stationary point of P other than the global optimum is a saddle, so an
ascent from a random start leaves it and one start is enough.  Neither
shares code with the drag's integrator, but the search runs the corrector of
a polished drag, ``ascent.finish``: it checks the drag's path, not the
corrector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ascent import finish, success
from .gram import GramMatrix
from .linalg import polar_unitary
from .measurement import FRAME_AMBIENT, Povm, povm_from_unitary

@dataclass(frozen=True)
class SearchStats:
    iterations: int
    grad_norm: float


@dataclass(frozen=True)
class OracleResult:
    """Ground-truth optimum: value, measurement and, for a search, its convergence."""

    p_success: float
    povm: Povm
    convergence: SearchStats | None = None


def helstrom(p1: float, p2: float, overlap: complex) -> OracleResult:
    """Closed-form two-state optimum.

    For priors (p1, p2) and state overlap c the optimal success probability
    is (1 + sqrt(1 - 4 p1 p2 |c|^2))/2, attained by measuring in the
    eigenbasis of p1 rho_1 - p2 rho_2.  The measurement is returned in an
    explicit two-dimensional realization of the pair.
    """
    if not (abs(p1 + p2 - 1.0) <= 1e-12 and p1 > 0.0 and p2 > 0.0):  # also rejects NaN
        raise ValueError("priors must be positive and sum to 1")
    c = complex(overlap)
    if not abs(c) < 1.0:
        raise ValueError("|overlap| must be < 1 for distinct states")
    p_success = 0.5 * (1.0 + np.sqrt(1.0 - 4.0 * p1 * p2 * abs(c) ** 2))

    psi1 = np.array([1.0, 0.0], dtype=complex)
    psi2 = np.array([c, np.sqrt(1.0 - abs(c) ** 2)], dtype=complex)
    gap = p1 * np.outer(psi1, psi1.conj()) - p2 * np.outer(psi2, psi2.conj())
    eigvals, eigvecs = np.linalg.eigh(gap)
    # outcome 1 <-> positive eigenvector, outcome 2 <-> negative one
    basis = eigvecs[:, ::-1] if eigvals[1] > 0 else eigvecs
    povm = Povm(basis, frame=FRAME_AMBIENT)
    return OracleResult(p_success=float(p_success), povm=povm)


def search_optimum(gram: GramMatrix, seed: int) -> OracleResult:
    """Maximize sum_i |(G^{1/2} U)_{ii}|^2 over unitary U directly.

    ``ascent.finish`` runs from one Haar-random unitary, the polar factor of
    a seeded complex Gaussian matrix, until the gradient norm is down to
    rounding, so the measurement is certified stationary at TOL_STAT;
    NoConvergence if it stops where the certificate's residual may exceed
    TOL_STAT / 2.  One start suffices because the global optimum is the only
    local maximum of P: at every other stationary point the Hessian has an
    ascent direction and U^dag R^dag diag(w) is indefinite, so the
    fixed-point step leaves it (the ``ascent`` module docstring), and the
    finish leaves a perturbed saddle for the global optimum.  The finish
    stops before its first step where the gradient norm is already down to
    rounding, so a start lying exactly on a stationary point would be
    returned as it is; a seeded Haar draw lands there with probability
    zero.  The saddle property is checked
    by enumeration at m = 3 (``classify_landscape``) and by the closed form
    at m = 2, and the one start against twenty sequential restarts at
    m <= 4, so the search is restricted to m <= 4.  ``convergence`` counts
    the finish's iterations (the start counts as 1) and gives the final
    gradient norm.  A G whose imaginary part is exactly zero has a real
    optimum up to column phases, so it is searched over the orthogonal group
    in real arithmetic, from the real part of the same seeded draw.
    Deterministic in ``seed`` (>= 0).
    """
    m = gram.m
    if m > 4:
        raise ValueError("direct search is restricted to m <= 4, where one start is checked")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    r = gram.scaled_states
    z = np.random.default_rng(seed).normal(size=(2, m, m))
    if gram.entries.imag.any():
        u0 = polar_unitary(z[0] + 1j * z[1])
    else:
        # conjugation maps an optimum of a real G to an optimum, and the
        # optimum is unique up to column phases, so it is real up to them:
        # the ascent searches O(m) in real arithmetic from a real start
        r, u0 = r.real.copy(), polar_unitary(z[0])
    u, iterations, _, grad_norm = finish(r, u0)
    return OracleResult(p_success=float(success(r, u)), povm=povm_from_unitary(gram, u),
                        convergence=SearchStats(iterations, grad_norm))
