"""Riemannian ascent of P(U) = sum_i |(R U)_ii|^2, R = G^{1/2}, over the unitary group.

Shared by the direct search (``oracle``) and the corrector of a polished drag
(``homotopy``).  A Barzilai-Borwein step (Raydan, SIAM J. Optim. 7, 26 (1997))
along the Cayley retraction is halved until the trial beats the current value
by ``rise``: 1e-15 for the search; a drop of twice P's rounding for the
corrector, a non-monotone search (Zhang & Hager, SIAM J. Optim. 14, 1043
(2004)) that keeps moving where P is flat to rounding.  The certificate's
stationarity residual is 2 max |gen_ij| <= sqrt 2 ||gen||_F, the gradient norm.
"""

from __future__ import annotations

import numpy as np
# the gufunc behind np.linalg.solve, called without that wrapper's per-call
# checks and casts: the same LAPACK call on the same data
from numpy.linalg import _umath_linalg

#: iteration budget of one ascent
MAX_ITER = 500


def success(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """P = sum_i |(R U)_ii|^2 for each unitary U of the stack ``u``."""
    return np.add.reduce(np.abs(np.einsum("ij,...ji->...i", r, u)) ** 2, axis=-1)


def rounding_bound(m: int) -> float:
    """Relative rounding of one evaluation of P at dimension m >= 2: each (R U)_ii
    is an m-term complex inner product, good to gamma_{m+2} ~ (m + 2) eps/2
    where it does not cancel (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.6); squaring its modulus doubles that and adds eps,
    and summing m squares adds (m - 1) eps/2: (1.5 m + 2.5) eps <= 3 m eps."""
    return 3.0 * m * np.finfo(float).eps


def gradient_noise(m: int) -> float:
    """Rounding of the computed gradient norm at dimension m, Tr G = 1: entry
    (i, j) of U^dag R^dag diag(w) and w_j are m-term inner products that err by
    gamma_{m+2} G_jj each, so ||d gen||_F <= 2 gamma_{m+2} sqrt(m sum_j G_jj^2)
    <= (m + 2) sqrt(m) eps.  A smaller norm cannot be told from zero."""
    return (m + 2) * np.sqrt(m) * np.finfo(float).eps


def _generator(rh: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """gen, the skew-hermitian part of U^dag R^dag diag(w), at each U of ``u``."""
    lam = u.conj().transpose(0, 2, 1) @ (rh * w[:, None, :])
    return 0.5 * (lam - lam.conj().transpose(0, 2, 1))


def _retract(u: np.ndarray, t: np.ndarray, gen: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """The Cayley retraction U (I - t gen/2)^-1 (I + t gen/2) of each lane."""
    half = (0.5 * t)[:, None, None] * gen
    return u @ _umath_linalg.solve(eye - half, eye + half)


def ascend(
    r: np.ndarray, u0: np.ndarray, max_iter: int, gtol: float, rise: float = 1e-15
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Riemannian gradient ascent of P from every unitary of the stack ``u0`` at once.

    A trial is accepted where its value exceeds the current one plus ``rise``
    (negative to allow a drop).  Each lane runs its own ascent with its own
    step: it stops when its gradient norm falls below ``gtol``, where 60
    halvings of its step find no acceptable trial, or after ``max_iter``
    iterations.  Stopped lanes leave the stack.  Returns each lane's final
    unitary, the iteration it stopped at (1 for the start, ``max_iter`` when
    the budget ran out) and the gradient norm at that unitary.

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
        gen = _generator(rh, u, w)
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
        least = np.add.reduce(np.abs(w) ** 2, axis=1) + rise
        # backtrack each unconverged lane until its trial is accepted, one
        # stacked Cayley retraction per round.  The eigenvalues of the
        # skew-hermitian gen are imaginary, so those of I - t gen/2 have
        # modulus >= 1 and it is never singular.  The first round takes the
        # whole stack with no gather: a lane that had converged or whose trial
        # fell short has its entry of u_next overwritten in a later round or
        # leaves the stack.
        trial = step.copy()
        u_next = _retract(u, trial, gen, eye)
        pending = (~done & ~(success(r, u_next) > least)).nonzero()[0]
        trial[pending] *= 0.5
        for _ in range(59):
            if pending.size == 0:
                break
            candidate = _retract(u[pending], trial[pending], gen[pending], eye)
            ascended = success(r, candidate) > least[pending]
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
