"""Ground-truth solvers used to cross-check the main pipeline.

The closed-form two-state optimum, and direct maximization of the success
probability by the fixed-point ascent from random starts (restricted to small
dimensions, where exhaustive restarts are cheap).  Neither shares code with
the drag's integrator, but the search runs the ascent and the corrector of
``medsolve.ascent``, which also correct a polished drag's end: it checks the
drag's path, not the corrector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ascent import ascend, finish, success
from .gram import GramMatrix
from .linalg import polar_unitary
from .measurement import FRAME_AMBIENT, Povm, povm_from_unitary

#: random starts of the direct search, and the gradient norm that ends their
#: ascent (each has the ascent's budget of MAX_ITER iterations)
_RESTARTS = 20
_GTOL = 1e-7


@dataclass(frozen=True)
class SearchStats:
    iterations: int
    grad_norm: float


@dataclass(frozen=True)
class OracleResult:
    """Ground-truth optimum: value, measurement and how it was obtained."""

    p_success: float
    povm: Povm
    method: str
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
    return OracleResult(p_success=float(p_success), povm=povm, method="closed_form")


def search_optimum(gram: GramMatrix, seed: int) -> OracleResult:
    """Maximize sum_i |(G^{1/2} U)_{ii}|^2 over unitary U directly.

    The fixed-point ascent of ``medsolve.ascent``.  _RESTARTS random starts
    guard against the non-global stationary points; they advance together
    as one stack of unitaries, each with its own MAX_ITER iterations and
    stopping test at a gradient norm of _GTOL (batching them changes nothing),
    and the best value wins (the first one on ties).  ``ascent.finish`` then
    takes that lane's gradient norm down to rounding, by Newton steps where
    the fixed-point step crawls, so the measurement is
    certified stationary at TOL_STAT; NoConvergence if it stops where the
    certificate's residual may exceed TOL_STAT / 2.  ``convergence`` counts
    the lane's iterations and the finish's steps, and gives the final
    gradient norm.  A G whose imaginary part is exactly zero has a real
    optimum up to column phases, so it is searched over the orthogonal group
    in real arithmetic, from the real parts of the same seeded draws.
    Deterministic in ``seed`` (>= 0); restricted to m <= 4 where restarts
    are cheap.
    """
    m = gram.m
    if m > 4:
        raise ValueError("direct search is cost-guarded to m <= 4")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    r = gram.scaled_states
    z = np.random.default_rng(seed).normal(size=(_RESTARTS, 2, m, m))
    if gram.entries.imag.any():
        u0 = polar_unitary(z[:, 0] + 1j * z[:, 1])
    else:
        # conjugation maps an optimum of a real G to an optimum, and the
        # optimum is unique up to column phases, so it is real up to them:
        # the ascent searches O(m) in real arithmetic from real starts
        r, u0 = r.real.copy(), polar_unitary(z[:, 0])
    u, iterations, _ = ascend(r, u0, _GTOL)
    best = int(np.argmax(success(r, u)))
    u_best, stopped_at, _, grad_norm = finish(r, u[best])
    stats = SearchStats(iterations=int(iterations[best]) + stopped_at - 1, grad_norm=grad_norm)
    return OracleResult(p_success=float(success(r, u_best)), povm=povm_from_unitary(gram, u_best),
                        method="search", convergence=stats)
