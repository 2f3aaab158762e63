"""Ascent of P(U) = sum_i |(R U)_ii|^2, R = G^{1/2}, over the unitary group.

Shared by the direct search (``oracle``) and the corrector of a polished drag
(``homotopy``).  With w = diag(R U), the fixed-point step is U <- polar(B),
B = R^dag diag(w), the iteration of Jezek, Rehacek & Fiurasek, PRA 65,
060301(R) (2002).  It is a minorize-maximize step (Hunter & Lange, Am. Stat.
58, 30 (2004)): P is convex in U, so it lies above its tangent plane at U,
P(V) >= 2 Re Tr(B^dag V) - P(U), and over unitary V that bound is largest at
V = polar(B), where it is at least its value P(U) at V = U.  P therefore never
falls but by rounding.  A fixed point has U^dag B hermitian positive
semidefinite: that is the certificate's hermitian factor F at the optimum,
while at a non-global stationary point U^dag B is hermitian but indefinite,
so the step leaves it.  The polar factor is unitary to rounding at every
step, so no error builds up in U.

The gradient's generator gen is the skew-hermitian part of U^dag B, and the
certificate's stationarity residual is 2 max |gen_ij| <= sqrt 2 ||gen||_F,
the gradient norm.

The fixed-point step converges linearly, at a rate set by how weakly P is
curved, so it crawls near linear dependence.  The finish (``finish``, the
corrector of both callers) therefore also takes Newton steps on U (Absil,
Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, Princeton
2008, ch. 6; Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20, 303
(1998)).  With O = R U, P(U exp Xi) over the off-diagonal skew-hermitian Xi
(the diagonal only turns the column phases, which P ignores) has the gradient
g(Xi) = 2 Re sum_i conj(w_i) (O Xi)_ii and the Hessian
H(Xi, Xi) = 2 sum_i |(O Xi)_ii|^2 + 2 Re sum_i conj(w_i) (O Xi^2)_ii.  Each of
the n = m(m - 1) directions of the basis (m(m - 1)/2 in real arithmetic) has
two nonzeros, so g and H are gathered from the m^3 products conj(O_la) O_lb,
with O(m^3) nonzero terms.  Where -H has a Cholesky factor, the step is
U <- polar(U (I + Xi)), Xi = sum_k c_k Xi_k with H c = -g: the polar factor
U (I + Xi)(I - Xi^2)^{-1/2} agrees with U exp Xi to second order, so near the
optimum, where P is locally concave, the convergence is quadratic.  The
guard: the Newton step is taken only if P falls by at most ``rounding_bound``
(which also bounds the fixed-point step's apparent fall); otherwise, and
wherever -H is not positive definite, the fixed-point step is taken.

Which step to try is read off the finish's own gradient norms.  The first
step is the fixed-point step.  After it, a Newton step is tried only if the
fixed-point rate, held, would need more further steps to reach
``gradient_noise`` than a Newton step costs, ``_newton_price`` = 1.5 +
(n / 56)^2 fixed-point steps, or if the step did not lower the norm; after
a Newton step the next one is tried again.  The price is fitted to one step
of each kind at a near-optimal U (Python 3.11, numpy 2.4, 2 shared cores):
a Newton step cost 1.4 fixed-point steps up to n = 20, 2.6 at n = 56
(m = 8, complex), 4.0 at n = 90, 8.1 at n = 132 and 16.6 at n = 240
(m = 16, complex), the Cholesky factor and the solve growing with n while
the fixed-point step's SVD grows with m.  So a finish one or two fixed-point
steps from rounding, such as the polished sweep at m = 10 to 16, takes no
Newton step, and at m = 16 in complex arithmetic only a crawl of about 20
steps or more does.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linalg  # linalg.lapack: the bare gufuncs of np.linalg, see ``linalg``
from .certify import TOL_STAT
from .exceptions import NoConvergence
from .linalg import polar_unitary

#: iteration budget of one ascent
MAX_ITER = 1000

#: most gradient norm a finish may end at: the certificate's stationarity
#: residual is at most sqrt 2 times the gradient norm, so this leaves it at
#: most TOL_STAT / 2
_GTOL = TOL_STAT / (2.0 * np.sqrt(2.0))


def _diagonal(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """w = diag(R U) for each unitary U of the stack ``u``."""
    return np.einsum("ij,...ji->...i", r, u)


def success(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """P = sum_i |(R U)_ii|^2 for each unitary U of the stack ``u``."""
    return np.add.reduce(np.abs(_diagonal(r, u)) ** 2, axis=-1)


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
    gamma_{m+2} G_jj each (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.6), so ||d gen||_F <= 2 gamma_{m+2} sqrt(m sum_j G_jj^2)
    <= (m + 2) sqrt(m) eps.  A smaller norm cannot be told from zero."""
    return (m + 2) * np.sqrt(m) * np.finfo(float).eps


def _generator(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gen, the skew-hermitian part of U^dag B, at each U of ``u`` and B of ``b``."""
    lam = u.conj().swapaxes(-1, -2) @ b
    return 0.5 * (lam - lam.conj().swapaxes(-1, -2))


def _grad_norm(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||gen||_F at each U of ``u`` and B = R^dag diag(w) of ``b``."""
    return np.sqrt(np.add.reduce(np.abs(_generator(u, b)) ** 2, axis=(-2, -1)))


@functools.lru_cache(maxsize=None)
def _directions(m: int, cplx: bool) -> tuple:
    """The Newton step's basis at dimension m and its gather table.

    Direction k is Xi_k = z E_ij - conj(z) E_ji for a pair i < j, with z = 1,
    and in complex arithmetic also z = 1j right after it, so that the
    coefficients c of a step, read pairwise as complex numbers, are the
    entries Xi_ij.  Returns the pairs (i, j), the number n of directions and
    the table of the nonzero terms of g and W: an index into
    S_lab = conj(O_la) O_lb, a coefficient and a position, 0..n^2 - 1 in W and
    n^2 + k for g_k, where W + W^T is -H.  N = diag(conj w) O, which g and
    the second-order term of P read, is N_ab = S_aab.
    """
    i, j = np.triu_indices(m, 1)
    pairs = (i, j)
    z = np.ones(i.size)
    if cplx:
        i, j, z = i.repeat(2), j.repeat(2), np.tile([1.0, 1j], i.size)
    n = i.size

    def s(l, a, b):
        return (l * m + a) * m + b

    # H(Xi_k, Xi_l) = 2 Re sum_a conj((O Xi_k)_aa) (O Xi_l)_aa + Re Tr N (Xi_k Xi_l + Xi_l Xi_k):
    # diag(O Xi_k) is z O_ji at j and -conj(z) O_ij at i, and Tr N Xi_k Xi_l sums
    # the products of an entry (a, b) of Xi_k and an entry (b, c) of Xi_l
    i1, j1, z1, i2, j2, z2 = i[:, None], j[:, None], z[:, None], i, j, z
    terms = [  # (where the indices of k and l meet, coefficient, index into S)
        (j1 == i2, z1 * z2, s(j2, j2, i1)),  # N Xi_k Xi_l
        (j1 == j2, -z1 * z2.conj(), s(i2, i2, i1)),
        (i1 == i2, -z1.conj() * z2, s(j2, j2, j1)),
        (i1 == j2, z1.conj() * z2.conj(), s(i2, i2, j1)),
        (j1 == j2, z1.conj() * z2, s(j1, i1, i2)),  # conj(O Xi_k)_aa (O Xi_l)_aa
        (j1 == i2, -z1.conj() * z2.conj(), s(j1, i1, j2)),
        (i1 == j2, -z1 * z2, s(i1, j1, i2)),
        (i1 == i2, z1 * z2.conj(), s(i1, j1, j2)),
    ]
    k = np.arange(n)
    # g_k = 2 Re(z N_ji - conj(z) N_ij)
    index, coef, pos = [s(j, j, i), s(i, i, j)], [2.0 * z, -2.0 * z.conj()], [n * n + k] * 2
    for met, c, idx in terms:
        rows, cols = np.nonzero(met)
        index.append(np.broadcast_to(idx, met.shape)[rows, cols])
        coef.append(-np.broadcast_to(c, met.shape)[rows, cols])  # negated: W + W^T is -H
        pos.append(rows * n + cols)
    return pairs, n, np.concatenate(index), np.concatenate(coef), np.concatenate(pos)


def _newton_system(r: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g, -H): the gradient and the negated Hessian of P(U exp Xi) at Xi = 0 over
    the basis of ``_directions``, at the one unitary ``u``."""
    o = r @ u
    s = (o.conj()[:, :, None] * o[:, None, :]).ravel()
    _, n, index, coef, pos = _directions(r.shape[0], np.iscomplexobj(o))
    out = np.bincount(pos, (coef * s.take(index)).real, n * (n + 1))
    w = out[:n * n].reshape(n, n)
    return out[n * n:], w + w.T


def _newton_step(r: np.ndarray, u: np.ndarray) -> np.ndarray | None:
    """U (I + Xi) for the Newton step Xi of P at the one unitary ``u``, or None
    where -H has no Cholesky factor."""
    g, curv = _newton_system(r, u)
    with np.errstate(invalid="ignore"):  # the gufunc flags a failed factor, all NaN
        factor = linalg.lapack.cholesky_lo(curv)
    if np.isnan(factor[-1, -1]):
        return None
    c = linalg.lapack.solve1(curv, g)
    m = u.shape[0]
    xi = np.zeros((m, m), np.result_type(r, u))
    xi[_directions(m, xi.dtype.kind == "c")[0]] = c.view(xi.dtype)
    return u + u @ (xi - xi.conj().T)


def _newton_price(m: int, cplx: bool) -> float:
    """What one Newton step costs at dimension m, in fixed-point steps: 1.5 +
    (n / 56)^2 over its n directions (fitted; see the module docstring)."""
    n = m * (m - 1) // (1 if cplx else 2)
    return 1.5 + (n / 56.0) ** 2


def _iterates(r: np.ndarray, u: np.ndarray):
    """The finish's iterates from the one unitary ``u``: yields each U, in the
    arithmetic of R and ``u`` together, with its gradient norm and the Newton
    steps taken to reach it, and takes the next step when asked.

    The first step is the fixed-point step.  A Newton step is tried after a
    Newton step, and after a fixed-point step that did not lower the gradient
    norm or whose rate, held, would need more than ``_newton_price`` further
    steps to take it down to ``gradient_noise``.  It is taken where -H is
    positive definite and P falls by at most ``rounding_bound``; every other
    step is the fixed-point step."""
    m = r.shape[0]
    rh = r.conj().T
    fall, gtol = rounding_bound(m), gradient_noise(m)

    def at(v):  # (U, w, P) at U = v, P as ``success`` evaluates it
        w = _diagonal(r, v)
        return v, w, np.add.reduce(np.abs(w) ** 2, axis=-1)

    u, w, p = at(u.astype(np.result_type(r, u), copy=False))
    price = _newton_price(m, u.dtype.kind == "c")
    newton, prev, newton_last = 0, np.inf, False
    while True:
        b = rh * w  # R^dag diag(w)
        grad = _grad_norm(u, b)
        yield u, grad, newton
        rate = grad / prev if prev > 0.0 else 0.0  # 0 at the start and after a norm of 0
        # steps left at that rate: log(gtol / grad) / log(rate), both logs negative
        if newton_last or rate >= 1.0 or (
                rate > 0.0 and math.log(gtol / grad) < price * math.log(rate)):
            step = _newton_step(r, u)
            if step is not None:
                trial = at(polar_unitary(step))
                if trial[2] >= p - fall * p:
                    (u, w, p), newton, prev, newton_last = trial, newton + 1, grad, True
                    continue
        (u, w, p), prev, newton_last = at(polar_unitary(b)), grad, False


def finish(r: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, int, int, float]:
    """The corrector: ascend the one unitary ``u`` by the steps of ``_iterates``
    until its gradient norm is down to rounding, ``gradient_noise(m)``, a step
    fails to lower a norm already below TOL_STAT / (2 sqrt 2), or MAX_ITER
    steps.  The second test ends the finish at the rounding of the step
    itself: U is a polar factor computed in floating point, so the step has
    fixed points of its own near the optimum, whose gradient norm may exceed
    ``gradient_noise``.  Returns the final unitary, the iteration it stopped
    at (1 for the start, MAX_ITER when the budget ran out), the Newton steps
    among the steps taken and its gradient norm; NoConvergence if that norm
    is above TOL_STAT / (2 sqrt 2), where the certificate's stationarity
    residual may exceed TOL_STAT / 2."""
    gtol, prev = gradient_noise(r.shape[0]), np.inf
    for it, (u, grad, newton) in enumerate(_iterates(r, u), 1):
        if grad < gtol or prev <= grad <= _GTOL or it > MAX_ITER:
            break
        prev = grad
    it = min(it, MAX_ITER)
    if not grad <= _GTOL:
        raise NoConvergence(f"corrector stopped at iteration {it} with gradient "
                            f"norm {grad:.3e} above {_GTOL:.3e}")
    return u, it, newton, float(grad)
