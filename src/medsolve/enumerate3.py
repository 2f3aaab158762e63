"""Exhaustive stationary-point enumeration for three real states.

For a real 3x3 Gram matrix the stationarity conditions reduce to a
polynomial system.  Writing H = G^{-1} and parameterizing the real
symmetric unit-diagonal matrix

    M = G^{1/2} U D^{-1} = [[1, a, b], [a, 1, c], [b, c, 1]],

the matrix identity M H M = D^{-2} must hold with D^{-2} diagonal.  Its
three off-diagonal entries give three coupled quadratics E(x) = 0 in
x = (a, b, c), whose complex solution set is finite (Bezout bound 8).  A
``StationaryRoot`` stores x alone; M, and for a real root the diagonal D
and the factor F = D M D, follow from it, and ``certify_gram(gram,
root.factor)`` turns F into the root's certificate and measurement.
Complex roots do not correspond to measurements and get neither; every
real root is a stationary point of the success probability on the manifold
of rank-one projective measurements, and exactly one of them -- the one
with M positive definite -- is the global optimum.

Roots are found by a total-degree homotopy with the "gamma trick" (Morgan,
*Solving Polynomial Systems Using Continuation*, 1987; Sommese & Wampler,
*The Numerical Solution of Systems of Polynomials*, 2005, ch. 7-8):

    H(x, s) = (1 - s) gamma (x_i^2 - 1) + s E(x),   s from 0 to 1,

with gamma a fixed random point of the unit circle.  The eight start roots
(+-1, +-1, +-1) are followed together as one stack of paths, each with its
own step: an RK4 predictor on dx/ds = -H_x^{-1} H_s and a Newton corrector.
Every isolated root of E ends one path; a path that leaves every bound ends
at a root at infinity.  M is affine in x, so E_k(x) = x~^T Q_k x~ with
x~ = (1, x) and one (3, 4, 4) coefficient tensor Q gives E and its Jacobian.
No symbolic elimination is attempted.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .certify import Certificate, certify_gram
from .exceptions import RootCountAnomaly
from .gram import GramMatrix
from .linalg import read_only

log = logging.getLogger(__name__)

#: total-degree bound on the number of isolated complex roots
DEGREE_BOUND = 8
#: seed of the homotopy's random complex gamma unless the caller gives one
DEFAULT_SEED = 8128

_REAL_TOL = 1e-9
_DEDUP_TOL = 1e-7
_ROOT_RESID = 1e-9

# Path tracking: each lane's step in s doubles after an accepted step, up to
# _STEP_MAX, and halves after a rejected one.  A step is accepted when at
# most _NEWTON corrections reach _TRACK_TOL (relative to 1 + |x|) and the
# first of them is below _GUARD times the predictor's move, so a predictor
# that overshot into the basin of a neighbouring path is refused.
_STEP_MAX = 0.25
_TRACK_TOL = 1e-6
_GUARD = 0.1
_NEWTON = 3
#: a path whose largest coordinate passes this ends at a root at infinity
_CUTOFF = 1e7
#: a lane whose step falls below _STEP_MIN or that takes _MAX_STEPS steps stops
_STEP_MIN = 1e-12
_MAX_STEPS = 1000
#: rounds of re-tracking, each with a 4x smaller step cap and 100x tighter tolerance
_RETRACKS = 2
_POLISH = 3
#: an endpoint is nonsingular when its Jacobian's condition number is below this
_REGULAR_COND = 1e8

# the off-diagonal entry of M H M that E_k is, and of M that x_k is
_PAIRS = ((0, 1), (0, 2), (1, 2))
# M(x) = sum_j x~_j B_j: B_0 = I, B_{k+1} the symmetric unit matrix at _PAIRS[k]
_BASIS = np.zeros((4, 3, 3))
_BASIS[0] = np.eye(3)
for _k, (_p, _q) in enumerate(_PAIRS):
    _BASIS[_k + 1, _p, _q] = _BASIS[_k + 1, _q, _p] = 1.0
_EYE = np.eye(3)
#: the 2^3 roots of the start system x_i^2 = 1
_STARTS = np.array(
    [[a, b, c] for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)], dtype=complex
)


@dataclass(frozen=True)
class StationaryRoot:
    """One solution of the stationarity system, stored as ``values``: the
    unknowns x = (a, b, c) of M, complex, with a zero imaginary part exactly
    when the root is real.  ``d_inv_sq`` holds the diagonal of M H M (the
    inverse squared scales) of a real root and is None otherwise.  M
    (``symmetric_matrix``) and F = D M D (``factor``, None for a complex root;
    ``certify_gram(gram, root.factor)`` gives the root's certificate and
    measurement) are derived.  Exactly one real root per generic Gram matrix
    is positive definite.
    """

    values: np.ndarray
    residual: float
    d_inv_sq: np.ndarray | None
    jacobian_rank: int

    def __post_init__(self):
        object.__setattr__(self, "values", read_only(np.array(self.values, dtype=complex)))
        if self.d_inv_sq is not None:
            object.__setattr__(self, "d_inv_sq", read_only(np.array(self.d_inv_sq, dtype=float)))

    @property
    def is_real(self) -> bool:
        return not np.any(self.values.imag)

    @property
    def symmetric_matrix(self) -> np.ndarray:
        """M, real for a real root."""
        return _symmetric(self.values.real if self.is_real else self.values)

    @property
    def factor(self) -> np.ndarray | None:
        """F = D M D, whose F^2 - DGD = D (M D^2 M - G) D is 0 iff M H M = D^-2."""
        if self.d_inv_sq is None:
            return None
        d = 1.0 / np.sqrt(self.d_inv_sq)
        return d[:, None] * self.symmetric_matrix * d[None, :]

    @property
    def is_positive_definite(self) -> bool:
        return self.is_real and bool(np.all(np.linalg.eigvalsh(self.symmetric_matrix) > 0.0))

    @property
    def p_success(self) -> float | None:
        """W = M D is unit-diagonal times D, so P_s = sum_i D_ii^2."""
        return None if self.d_inv_sq is None else float(np.sum(1.0 / self.d_inv_sq))


def _symmetric(x: np.ndarray) -> np.ndarray:
    """M(x) = I + sum_k x_k B_{k+1}, the unit-diagonal matrix with x at _PAIRS."""
    return np.tensordot(np.r_[1.0, x], _BASIS, 1)


def _check_real_m3(gram: GramMatrix) -> np.ndarray:
    if gram.m != 3:
        raise ValueError("stationary enumeration is implemented for m=3 only")
    if np.max(np.abs(gram.entries.imag)) > 1e-12:
        raise ValueError("stationary enumeration requires a real Gram matrix")
    return np.linalg.inv(gram.entries.real)


def _coefficients(h: np.ndarray) -> np.ndarray:
    """Q of shape (3, 4, 4), symmetric in its last two axes, with
    E_k(x) = x~^T Q_k x~ the entry _PAIRS[k] of M(x) H M(x)."""
    t = np.einsum("jab,bc,lcd->jlad", _BASIS, h, _BASIS)  # (B_j H B_l)_ad
    q = np.stack([t[:, :, p, r] for p, r in _PAIRS])
    return 0.5 * (q + np.swapaxes(q, 1, 2))


def _evaluate(q: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E and its Jacobian dE/dx at every point of the stack x, shape (n, 3)."""
    # Q_k x~ is affine in x; its entries 1..3 are half the Jacobian row
    qx = (q[:, :, 0].reshape(12) + x @ q[:, :, 1:].transpose(2, 0, 1).reshape(3, 12))
    qx = qx.reshape(-1, 3, 4)
    half_jac = qx[..., 1:]
    return qx[..., 0] + (half_jac @ x[:, :, None])[..., 0], 2.0 * half_jac


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a_n y_n = b_n for every lane n; an exactly singular lane gets nan.

    numpy's LAPACK gufunc fills a lane whose factorization meets an exact
    zero pivot with nan and flags the invalid operation that np.linalg.solve
    turns into LinAlgError; the flag is ignored here."""
    with np.errstate(invalid="ignore"):
        return _umath_linalg.solve(a, b)


def _homotopy(q, gamma, x, s):
    """H, dH/ds and dH/dx at the points x (n, 3) and times s (n,)."""
    e, jac = _evaluate(q, x)
    g = gamma * (x * x - 1.0)
    t = s[:, None]
    h_x = t[:, :, None] * jac + ((2.0 * gamma) * (1.0 - t) * x)[:, :, None] * _EYE
    return g + t * (e - g), e - g, h_x


def _tangent(q, gamma, x, s) -> np.ndarray:
    """dx/ds = -H_x^{-1} H_s along the paths through x at times s."""
    _, h_s, h_x = _homotopy(q, gamma, x, s)
    return -_solve(h_x, h_s[..., None])[..., 0]


def _track(q, gamma, starts, step_max, tol):
    """Follow the homotopy paths from ``starts`` (n, 3) at s = 0 to s = 1.

    Every lane runs its own predictor-corrector with its own step and stops
    on its own: at s = 1, past _CUTOFF (a root at infinity), or stalled.
    Stopped lanes leave the stack.  Returns each lane's last point, step
    count, and whether it ended at infinity.
    """
    n = starts.shape[0]
    x_out = starts.copy()
    steps_out = np.zeros(n, dtype=int)
    inf_out = np.zeros(n, dtype=bool)
    lanes = np.arange(n)  # index in starts of each running lane
    x = starts.copy()
    s = np.zeros(n)
    step = np.full(n, step_max)
    steps = np.zeros(n, dtype=int)
    k1 = _tangent(q, gamma, x, s)
    while lanes.size:
        s_next = np.minimum(s + step, 1.0)
        ds = (s_next - s)[:, None]
        s_mid = 0.5 * (s + s_next)
        k2 = _tangent(q, gamma, x + 0.5 * ds * k1, s_mid)
        k3 = _tangent(q, gamma, x + 0.5 * ds * k2, s_mid)
        k4 = _tangent(q, gamma, x + ds * k3, s_next)
        predicted = x + ds / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # Newton on H(., s_next); the same solve gives the tangent there,
        # which is the next step's k1
        corrected = predicted
        converged = np.zeros(lanes.size, dtype=bool)
        for it in range(_NEWTON):
            h_val, h_s, h_x = _homotopy(q, gamma, corrected, s_next)
            sol = _solve(h_x, np.stack([h_val, h_s], axis=-1))
            corrected = corrected - sol[..., 0]
            size = np.max(np.abs(sol[..., 0]), axis=1)
            if it == 0:
                first = size
            converged |= size <= tol * (1.0 + np.max(np.abs(corrected), axis=1))
            if converged.all():
                break
        move = np.max(np.abs(predicted - x), axis=1)
        ok = (
            converged
            & (first <= _GUARD * move + tol * (1.0 + np.max(np.abs(x), axis=1)))
            & np.all(np.isfinite(corrected), axis=1)
        )
        x = np.where(ok[:, None], corrected, x)
        k1 = np.where(ok[:, None], -sol[..., 1], k1)
        s = np.where(ok, s_next, s)
        step = np.where(ok, np.minimum(2.0 * step, step_max), 0.5 * step)
        steps += 1
        at_inf = np.max(np.abs(x), axis=1) > _CUTOFF
        done = (s >= 1.0) | at_inf | (step < _STEP_MIN) | (steps >= _MAX_STEPS)
        if done.any():
            x_out[lanes[done]] = x[done]
            steps_out[lanes[done]] = steps[done]
            inf_out[lanes[done]] = at_inf[done]
            keep = ~done
            lanes, x, s, step, steps, k1 = (a[keep] for a in (lanes, x, s, step, steps, k1))
    return x_out, steps_out, inf_out


def _polish(q, x) -> np.ndarray:
    """A few Newton iterations on E itself (s = 1)."""
    for _ in range(_POLISH):
        e, jac = _evaluate(q, x)
        x = x - _solve(jac, e[..., None])[..., 0]
    return x


def _close(x) -> np.ndarray:
    """Which pairs of points of the stack x lie within _DEDUP_TOL (nan is never close)."""
    return np.max(np.abs(x[:, None] - x[None]), axis=-1) < _DEDUP_TOL


def _shared_regular_endpoints(q, x) -> np.ndarray:
    """Lanes whose endpoint coincides with another lane's at a nonsingular
    root: one of them jumped paths, since a nonsingular root ends exactly
    one path."""
    shared = _close(x)
    np.fill_diagonal(shared, False)
    shared = shared.any(axis=1)
    if shared.any():
        _, jac = _evaluate(q, x[shared])
        shared[shared] = np.linalg.cond(jac) < _REGULAR_COND
    return shared


def _endpoints(q, gamma):
    """Polished endpoints of all eight paths (nan for a root at infinity),
    steps per path, which paths were re-tracked and which end at infinity."""
    with np.errstate(all="ignore"):
        x, steps, at_inf = _track(q, gamma, _STARTS, _STEP_MAX, _TRACK_TOL)
        x[at_inf] = np.nan
        x = _polish(q, x)
        retracked = np.zeros(len(x), dtype=bool)
        step_max, tol = _STEP_MAX, _TRACK_TOL
        for _ in range(_RETRACKS):
            redo = _shared_regular_endpoints(q, x)
            if not redo.any():
                break
            step_max, tol = step_max / 4.0, tol / 100.0
            ends, more, ends_inf = _track(q, gamma, _STARTS[redo], step_max, tol)
            ends[ends_inf] = np.nan
            at_inf[redo] = ends_inf
            x[redo] = _polish(q, ends)
            steps[redo] += more
            retracked |= redo
    return x, steps, retracked, at_inf


def solve_stationary(gram: GramMatrix, seed: int = DEFAULT_SEED) -> list[StationaryRoot]:
    """All stationary roots of the three-state system, classified.

    The eight paths of the total-degree homotopy are tracked from the start
    roots (+-1, +-1, +-1) with a complex gamma drawn from ``seed`` (>= 0); their
    endpoints are polished by Newton on the system itself, kept when the
    residual is below 1e-9 relative to the size of the terms, and
    deduplicated at distance 1e-7.  Paths whose endpoints coincide at a
    nonsingular root have jumped and are tracked again with smaller steps.
    If fewer distinct roots than the degree bound survive, a
    RootCountAnomaly warning is issued: some roots are at infinity (as for
    symmetric ensembles) or singular, which is informational, not an error.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    h = _check_real_m3(gram)
    q = _coefficients(h)
    gamma = np.exp(2j * np.pi * np.random.default_rng(seed).uniform())
    x, steps, retracked, at_inf = _endpoints(q / np.max(np.abs(q)), gamma)
    log.debug(
        "homotopy: %d paths, steps per path %s, %d re-tracked, %d at infinity",
        len(x), steps.tolist(), int(retracked.sum()), int(at_inf.sum()),
    )
    x = x[np.all(np.isfinite(x), axis=1)]
    e, jac = _evaluate(q, x)
    resid = np.max(np.abs(e), axis=1)
    # E is quadratic, so its terms grow like (1 + |x|)^2
    good = resid < _ROOT_RESID * np.max(np.abs(q)) * (1.0 + np.max(np.abs(x), axis=1)) ** 2
    x, resid, jac = x[good], resid[good], jac[good]
    # keep each endpoint that is the first within _DEDUP_TOL of itself
    distinct = np.argmax(_close(x), axis=1) == np.arange(len(x))

    roots = [_classify_root(*args, h) for args in zip(x[distinct], resid[distinct], jac[distinct])]
    roots.sort(key=_root_order)
    if len(roots) < DEGREE_BOUND:
        warnings.warn(
            f"found {len(roots)} stationary roots; the degree bound allows "
            f"{DEGREE_BOUND}: the others are at infinity or coincide at a singular root",
            RootCountAnomaly,
            stacklevel=2,
        )
    return roots


def _root_order(root: StationaryRoot):
    ps = -(root.p_success or 0.0)
    v = root.values
    return (not root.is_real, ps, tuple(np.round(v.real, 9)), tuple(np.round(v.imag, 9)))


def _classify_root(v: np.ndarray, resid: float, jac: np.ndarray, h: np.ndarray) -> StationaryRoot:
    is_real = bool(np.max(np.abs(v.imag)) < _REAL_TOL)
    x = v.real if is_real else v
    m_mat = _symmetric(x)
    return StationaryRoot(values=x, residual=float(resid),
                          d_inv_sq=np.diagonal(m_mat @ h @ m_mat) if is_real else None,
                          jacobian_rank=int(np.linalg.matrix_rank(jac, tol=1e-8)))


LABEL_GLOBAL = "global maximum"
LABEL_STATIONARY = "stationary (non-global)"
LABEL_COMPLEX = "complex (unphysical)"


@dataclass(frozen=True)
class LandscapeSummary:
    """All stationary points of one three-state problem, certified.

    ``certificates`` runs parallel to ``roots``; a complex root carries no
    certificate.  ``labels`` follow from the roots alone.  Real entries are
    sorted by decreasing success probability, so the global maximum comes
    first.
    """

    gram: GramMatrix
    roots: list[StationaryRoot]
    certificates: list[Certificate | None]

    @property
    def labels(self) -> list[str]:
        return [LABEL_GLOBAL if r.is_positive_definite else LABEL_STATIONARY if r.is_real
                else LABEL_COMPLEX for r in self.roots]

    @property
    def global_index(self) -> int:
        return self.labels.index(LABEL_GLOBAL)


def classify_landscape(gram: GramMatrix, seed: int = DEFAULT_SEED) -> LandscapeSummary:
    """Enumerate and certify every stationary point.

    Each real root's certificate is ``certify_gram(gram, root.factor)[0]``,
    judged at the default tolerances (see ``Certificate``); the second item
    of that pair is the root's measurement.  The unique positive definite
    root is labeled as the global maximum; the remaining real roots are
    certified stationary-non-global points whose success probabilities
    chart the optimization landscape.
    """
    roots = solve_stationary(gram, seed=seed)
    certs = [certify_gram(gram, root.factor)[0] if root.is_real else None for root in roots]
    return LandscapeSummary(gram=gram, roots=roots, certificates=certs)
