"""Fixed-point ascent of P(U) = sum_i |(R U)_ii|^2, R = G^{1/2}, over the unitary group.

Shared by the direct search (``oracle``) and the corrector of a polished drag
(``homotopy``).  With w = diag(R U), one step is U <- polar(B), B = R^dag diag(w),
the iteration of Jezek, Rehacek & Fiurasek, PRA 65, 060301(R) (2002).  It is a
minorize-maximize step (Hunter & Lange, Am. Stat. 58, 30 (2004)): P is convex
in U, so it lies above its tangent plane at U, P(V) >= 2 Re Tr(B^dag V) - P(U),
and over unitary V that bound is largest at V = polar(B), where it is at least
its value P(U) at V = U.  P therefore never falls but by rounding.  A fixed
point has U^dag B hermitian positive semidefinite: that is the certificate's
hermitian factor F at the optimum, while at a non-global stationary point
U^dag B is hermitian but indefinite, so the step leaves it.  The polar factor
is unitary to rounding at every step, so no error builds up in U.

The gradient's generator gen is the skew-hermitian part of U^dag B, and the
certificate's stationarity residual is 2 max |gen_ij| <= sqrt 2 ||gen||_F,
the gradient norm.
"""

from __future__ import annotations

import numpy as np

from .certify import TOL_STAT
from .exceptions import NoConvergence
from .linalg import polar_unitary

#: iteration budget of one ascent
MAX_ITER = 1000

#: most gradient norm a finish may end at: the certificate's stationarity
#: residual is at most sqrt 2 times the gradient norm, so this leaves it at
#: most TOL_STAT / 2
_GTOL = TOL_STAT / (2.0 * np.sqrt(2.0))


def success(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """P = sum_i |(R U)_ii|^2 for each unitary U of the stack ``u``."""
    return np.add.reduce(np.abs(np.einsum("ij,...ji->...i", r, u)) ** 2, axis=-1)


def gradient_noise(m: int) -> float:
    """Rounding of the computed gradient norm at dimension m, Tr G = 1: entry
    (i, j) of U^dag R^dag diag(w) and w_j are m-term inner products that err by
    gamma_{m+2} G_jj each (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.6), so ||d gen||_F <= 2 gamma_{m+2} sqrt(m sum_j G_jj^2)
    <= (m + 2) sqrt(m) eps.  A smaller norm cannot be told from zero."""
    return (m + 2) * np.sqrt(m) * np.finfo(float).eps


def _generator(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gen, the skew-hermitian part of U^dag B, at each U of ``u`` and B of ``b``."""
    lam = u.conj().transpose(0, 2, 1) @ b
    return 0.5 * (lam - lam.conj().transpose(0, 2, 1))


def ascend(
    r: np.ndarray, u0: np.ndarray, gtol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-point ascent of P from every unitary of the stack ``u0`` at once.

    Each lane stops when its gradient norm falls below ``gtol``, when a step
    fails to lower a norm already below TOL_STAT / (2 sqrt 2), or after
    MAX_ITER steps, and stopped lanes leave the stack.  The second test ends
    a lane at the rounding of the step itself: U is a polar factor computed
    in floating point, so the step has fixed points of its own near the
    optimum, whose gradient norm may exceed ``gradient_noise``.  Returns
    each lane's final unitary, the iteration it stopped at (1 for the start,
    MAX_ITER when the budget ran out) and the gradient norm at that unitary.

    Every lane's arithmetic is its own, whatever else the stack holds, so a
    lane takes bit for bit the same iterates alone as beside other lanes.
    """
    u_out = u0.copy()
    iters_out = np.full(u0.shape[0], MAX_ITER)
    grad_out = np.empty(u0.shape[0])
    lanes = np.arange(u0.shape[0])  # index in u0 of each running lane
    u = u0
    rh = r.conj().T
    prev = np.full(u0.shape[0], np.inf)  # each running lane's last gradient norm
    for it in range(1, MAX_ITER + 2):
        b = rh * np.einsum("ij,kji->ki", r, u)[:, None, :]  # R^dag diag(w)
        grad_norm = np.sqrt(np.add.reduce(np.abs(_generator(u, b)) ** 2, axis=(1, 2)))
        # past the budget the running lanes stop at their last iterate
        done = (grad_norm < gtol) | ((grad_norm <= _GTOL) & (grad_norm >= prev)) | (it > MAX_ITER)
        if done.any():
            stopped = lanes[done]
            u_out[stopped] = u[done]
            iters_out[stopped] = min(it, MAX_ITER)
            grad_out[stopped] = grad_norm[done]
            keep = ~done
            if not keep.any():
                break
            lanes, u, b, grad_norm = lanes[keep], u[keep], b[keep], grad_norm[keep]
        prev = grad_norm
        u = polar_unitary(b)
    return u_out, iters_out, grad_out


def finish(r: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, int, float]:
    """The corrector: ascend the one unitary ``u`` until its gradient norm is
    down to rounding, ``gradient_noise(m)``, or MAX_ITER steps.  Returns the
    final unitary, the iteration it stopped at and its gradient norm;
    NoConvergence if that norm is above TOL_STAT / (2 sqrt 2), where the
    certificate's stationarity residual may exceed TOL_STAT / 2."""
    u, stopped_at, grad = ascend(r, u[None], gradient_noise(r.shape[0]))
    if not grad[0] <= _GTOL:
        raise NoConvergence(f"corrector stopped at iteration {stopped_at[0]} with gradient "
                            f"norm {grad[0]:.3e} above {_GTOL:.3e}")
    return u[0], int(stopped_at[0]), float(grad[0])
