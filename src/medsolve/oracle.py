"""Independent ground-truth solvers used to cross-check the main pipeline.

Two routes that share no code with the continuation solver: the closed-form
two-state optimum, and direct maximization of the success probability over
the unitary group, or the orthogonal group for a real Gram matrix, by
Riemannian gradient ascent (restricted to small dimensions, where exhaustive
restarts are cheap).  The random restarts of the ascent advance together as
one stack of unitaries; each keeps its own start, step and stopping test, so
batching them changes roundoff only.  Trial points are Cayley retractions,
one stacked linear solve per backtracking round for all lanes still
searching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# the gufunc behind np.linalg.solve, called without that wrapper's per-call
# checks and casts: the same LAPACK call on the same data
from numpy.linalg import _umath_linalg

from .exceptions import NoConvergence
from .gram import GramMatrix
from .linalg import polar_unitary
from .measurement import FRAME_AMBIENT, Povm, povm_from_unitary

#: random starts of the direct search, iteration budget of each, and the
#: gradient norm below which an ascent has converged
_RESTARTS = 20
_MAX_ITER = 500
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


def _value(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_i |(R U)_ii|^2 for each unitary U of the stack ``u``."""
    return np.add.reduce(np.abs(np.einsum("ij,...ji->...i", r, u)) ** 2, axis=-1)


def _retract(u: np.ndarray, t: np.ndarray, gen: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """The Cayley retraction U (I - t gen/2)^-1 (I + t gen/2) of each lane."""
    half = (0.5 * t)[:, None, None] * gen
    return u @ _umath_linalg.solve(eye - half, eye + half)


def _ascend(
    r: np.ndarray, u0: np.ndarray, max_iter: int, gtol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Riemannian gradient ascent from every unitary of the stack ``u0`` at once.

    Each lane runs its own ascent with its own step: it stops when its
    gradient norm falls below ``gtol``, where 60 halvings of its step find
    no ascent, or after ``max_iter`` iterations.  Stopped lanes leave the
    stack.  Returns each lane's final unitary, iteration count and the
    gradient norm at that unitary.

    Every lane's arithmetic is its own, whatever else the stack holds, so a
    round may run on the whole stack or on the lanes still searching alone.
    At m <= 4 numpy's per-call cost outweighs the arithmetic, so the loop
    takes the cheapest form of each call (ufunc reductions, transposed views).
    """
    u_out = u0.copy()
    iters_out = np.full(u0.shape[0], max_iter)
    grad_out = np.full(u0.shape[0], np.inf)
    lanes = np.arange(u0.shape[0])  # index in u0 of each running lane
    u = u0
    step = np.ones(u0.shape[0])
    prev_u = prev_grad = None
    rh = r.conj().T
    eye = np.eye(u0.shape[1])
    for it in range(1, max_iter + 2):
        w = np.einsum("ij,kji->ki", r, u)  # diagonals of R U
        # project the euclidean gradient R^dag diag(w) onto the tangent space
        # at U: rgrad = U gen with gen skew-hermitian
        lam = u.conj().transpose(0, 2, 1) @ (rh * w[:, None, :])
        gen = 0.5 * (lam - lam.conj().transpose(0, 2, 1))
        rgrad = u @ gen
        grad_norm = np.sqrt(np.add.reduce(np.abs(rgrad) ** 2, axis=(1, 2)))
        if it > max_iter:
            # the budget is spent: the running lanes stop at their last
            # iterate, with the gradient norm taken there
            u_out[lanes] = u
            grad_out[lanes] = grad_norm
            break
        done = grad_norm < gtol
        # spectral (Barzilai-Borwein) step adapts to weakly curved
        # directions where any fixed step crawls
        if prev_u is not None:
            s_vec = (u - prev_u).reshape(lanes.size, -1)
            y_vec = (rgrad - prev_grad).reshape(lanes.size, -1)
            denom = np.add.reduce(s_vec.conj() * y_vec, axis=1).real
            usable = np.abs(denom) > 1e-300
            ss = np.add.reduce(np.abs(s_vec) ** 2, axis=1)
            step = np.where(usable, np.abs(ss / np.where(usable, denom, 1.0)), step)
            step = np.minimum(np.maximum(step, 1e-3), 1e8)
        current = np.add.reduce(np.abs(w) ** 2, axis=1)
        # backtrack each unconverged lane until its step ascends, one stacked
        # Cayley retraction per round.  The eigenvalues of the skew-hermitian
        # gen are imaginary, so those of I - t gen/2 have modulus >= 1 and it
        # is never singular.  The first round takes the whole stack with no
        # gather: a lane that had converged or did not ascend has its entry
        # of u_next overwritten in a later round or leaves the stack.
        trial = step.copy()
        u_next = _retract(u, trial, gen, eye)
        pending = (~done & ~(_value(r, u_next) > current + 1e-15)).nonzero()[0]
        trial[pending] *= 0.5
        for _ in range(59):
            if pending.size == 0:
                break
            candidate = _retract(u[pending], trial[pending], gen[pending], eye)
            ascended = _value(r, candidate) > current[pending] + 1e-15
            u_next[pending[ascended]] = candidate[ascended]
            pending = pending[~ascended]
            trial[pending] *= 0.5
        # converged lanes and lanes whose backtracking ran out stop where they are
        done[pending] = True
        if done.any():
            stopped = lanes[done]
            u_out[stopped] = u[done]
            iters_out[stopped] = it
            grad_out[stopped] = grad_norm[done]
            keep = ~done
            if not keep.any():
                break
            lanes, u, u_next, rgrad, step = (x[keep] for x in (lanes, u, u_next, rgrad, step))
        prev_u, prev_grad = u, rgrad
        u = u_next
    return u_out, iters_out, grad_out


def search_optimum(gram: GramMatrix, seed: int) -> OracleResult:
    """Maximize sum_i |(G^{1/2} U)_{ii}|^2 over unitary U directly.

    Riemannian gradient ascent: the euclidean gradient R^dag diag(w) (with
    R = G^{1/2}, w the diagonal of RU) is projected onto the tangent space
    of the unitary group, U A with A skew-hermitian, and a step of length t
    is retracted by the Cayley transform U (I - tA/2)^-1 (I + tA/2); each
    step is a Barzilai-Borwein step, halved until it ascends.  _RESTARTS
    random starts guard against the non-global stationary points; they
    advance together as one stack of unitaries, each with its own step,
    _MAX_ITER iterations and stopping test, and the best value wins (the
    first one on ties).  A G whose imaginary part is exactly zero has a
    real optimum up to column phases, so it is searched over the orthogonal
    group in real arithmetic, from the real parts of the same seeded
    draws.  Deterministic in ``seed`` (>= 0); restricted to m <= 4 where
    restarts are cheap.  NoConvergence is raised if the best run ends with a
    gradient norm above _GTOL.
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
    u, iterations, grad_norm = _ascend(r, u0, _MAX_ITER, _GTOL)
    values = _value(r, u)
    best = int(np.argmax(values))
    stats = SearchStats(iterations=int(iterations[best]), grad_norm=float(grad_norm[best]))
    if stats.grad_norm > _GTOL:
        raise NoConvergence(f"best ascent stalled with gradient norm {stats.grad_norm:.3e}")
    povm = povm_from_unitary(gram, u[best])
    return OracleResult(
        p_success=float(values[best]), povm=povm, method="search", convergence=stats
    )
