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
root.factor)`` turns F into the root's certificate and measurement, for
``classify_landscape`` as for any caller.
Complex roots do not correspond to measurements and get neither; every
real root is a stationary point of the success probability on the manifold
of rank-one projective measurements, and exactly one of them -- the one
with M positive definite -- is the global optimum.

Roots are found by linear algebra, without path tracking (Cox, Little &
O'Shea, *Using Algebraic Geometry*, ch. 3; Telen, Mourrain & Van Barel,
SIAM J. Matrix Anal. Appl. 39, 2018).  M is affine in x, so
E_k(x) = x~^T Q_k x~ with x~ = (1, x) and one (3, 4, 4) coefficient tensor Q.
Homogenized in z = (z0, a, b, c), E_k(z) = z^T Q_k z has 8 roots in
projective space.  Every product mu E_k, with mu one of the 10 monomials of
degree 2, vanishes at them, so the 30 x 35 Macaulay matrix A of these
products annihilates v4(z), the 35 monomials of degree 4 at a root.  For 8
simple roots the null space N of A is spanned by the eight v4(z_r).  The
degree-3 monomials times a linear form g, read through N, give
B_g = V3 diag(g(z_r)) T with T the unknown mixing of the v4(z_r) in N, so
for two random linear forms g and h the 8 x 8 pencil B_g y = lambda B_h y
has the eigenvalues g(z_r) / h(z_r) and the eigenvectors with N y ~ v4(z_r).
Each z is read from the entries z_i z_j^3 of its largest coordinate z_j and
refined by Newton in the chart z_j = 1.  It is a root at infinity when
|z0| / |z| is below what the null space resolves: numpy's rank tolerance
35 eps |A| carried to N by Wedin's bound, 35 eps |A| / sigma_27(A).
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .certify import RESIDUAL_GATE, Certificate, certify_gram, factor_residual
from .exceptions import NoConvergence, RootCountAnomaly
from .gram import GramMatrix
from .linalg import hermitian_eig, read_only

log = logging.getLogger(__name__)

#: total-degree bound on the number of isolated complex roots
DEGREE_BOUND = 8
#: attempt k < _ATTEMPTS draws the linear forms g and h from default_rng(_SEED + k)
_SEED, _ATTEMPTS = 8128, 4

_REAL_TOL = 1e-9
_DEDUP_TOL = 1e-7
_ROOT_RESID = 1e-9
#: Newton steps that refine each root read from the null space
_POLISH = 3

# the off-diagonal entry of M H M that E_k is, and of M that x_k is
_PAIRS = ((0, 1), (0, 2), (1, 2))
# M(x) = sum_j x~_j B_j: B_0 = I, B_{k+1} the symmetric unit matrix at _PAIRS[k]
_BASIS = np.zeros((4, 3, 3))
_BASIS[0] = np.eye(3)
for _k, (_p, _q) in enumerate(_PAIRS):
    _BASIS[_k + 1, _p, _q] = _BASIS[_k + 1, _q, _p] = 1.0


def _monomials(degree: int) -> np.ndarray:
    """Exponents of the monomials of ``degree`` in z = (z0, a, b, c), one per row."""
    return np.array([e for e in itertools.product(range(degree + 1), repeat=4)
                     if sum(e) == degree])


# column of the Macaulay matrix that each monomial of degree 4 owns
_COLUMN = {tuple(e): k for k, e in enumerate(_monomials(4))}
_UNIT = np.eye(4, dtype=int)
# row 4i + j maps Q_k[i, j] to the columns of z_i z_j mu, one block of 35 per mu
_MACAULAY = np.zeros((16, 10, 35))
for _p, _mu in enumerate(_monomials(2)):
    for _i, _j in itertools.product(range(4), repeat=2):
        _MACAULAY[4 * _i + _j, _p, _COLUMN[tuple(_mu + _UNIT[_i] + _UNIT[_j])]] = 1.0
_MACAULAY = _MACAULAY.reshape(16, 350)
#: rank of the 30 x 35 Macaulay matrix of 8 isolated roots
_RANK = 27
#: _SHIFT[i]: the columns of z_i times each monomial of degree 3
_SHIFT = np.array([[_COLUMN[tuple(nu + _UNIT[i])] for nu in _monomials(3)] for i in range(4)])
#: _POWERS[j, i]: the column of z_i z_j^3
_POWERS = np.array([[_COLUMN[tuple(_UNIT[i] + 3 * _UNIT[j])] for i in range(4)]
                    for j in range(4)])
#: _CHART[j]: the coordinates that Newton moves in the chart z_j = 1
_CHART = np.array([[i for i in range(4) if i != j] for j in range(4)])


@dataclass(frozen=True)
class StationaryRoot:
    """One solution of the stationarity system, stored as ``values``: the
    unknowns x = (a, b, c) of M, complex, with a zero imaginary part exactly
    when the root is real.  ``d_inv_sq`` holds the diagonal of M H M (the
    inverse squared scales) of a real root and is None otherwise.  M
    (``symmetric_matrix``) and F = D M D (``factor``, None for a complex root;
    ``certify_gram(gram, root.factor)`` gives the root's certificate and
    measurement) are derived on first use and kept, as is whether M is
    positive definite, which exactly one real root per generic Gram matrix is.
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

    @cached_property
    def symmetric_matrix(self) -> np.ndarray:
        """M, real for a real root."""
        return read_only(_symmetric(self.values.real if self.is_real else self.values))

    @cached_property
    def factor(self) -> np.ndarray | None:
        """F = D M D, whose F^2 - DGD = D (M D^2 M - G) D is 0 iff M H M = D^-2."""
        if self.d_inv_sq is None:
            return None
        d = 1.0 / np.sqrt(self.d_inv_sq)
        return read_only(d[:, None] * self.symmetric_matrix * d[None, :])

    @cached_property
    def is_positive_definite(self) -> bool:
        return self.is_real and bool(np.all(hermitian_eig(self.symmetric_matrix) > 0.0))

    @property
    def p_success(self) -> float | None:
        """W = M D is unit-diagonal times D, so P_s = sum_i D_ii^2."""
        return None if self.d_inv_sq is None else float(np.sum(1.0 / self.d_inv_sq))


def _symmetric(x: np.ndarray) -> np.ndarray:
    """M(x) = I + sum_k x_k B_{k+1}, the unit-diagonal matrix with x at _PAIRS,
    for one x of shape (3,) or each x of a stack (n, 3)."""
    return np.tensordot(np.concatenate((np.ones_like(x[..., :1]), x), axis=-1), _BASIS, 1)


def _check_real_m3(gram: GramMatrix) -> np.ndarray:
    if gram.m != 3:
        raise ValueError("stationary enumeration is implemented for m=3 only")
    if gram.entries.imag.any():  # the drag's test for real arithmetic: -0.0 passes, 1e-300 not
        raise ValueError("stationary enumeration requires a real Gram matrix")
    return np.linalg.inv(gram.entries.real)


def _coefficients(h: np.ndarray) -> np.ndarray:
    """Q of shape (3, 4, 4), symmetric in its last two axes, with
    E_k(x) = x~^T Q_k x~ the entry _PAIRS[k] of M(x) H M(x)."""
    t = np.einsum("jab,bc,lcd->jlad", _BASIS, h, _BASIS)  # (B_j H B_l)_ad
    q = np.stack([t[:, :, p, r] for p, r in _PAIRS])
    return 0.5 * (q + np.swapaxes(q, 1, 2))


def _evaluate(q: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(z) = z^T Q_k z and its gradient 2 Q_k z at every point of the stack z, shape (n, 4)."""
    qz = (q @ z.T).transpose(2, 0, 1)
    return (qz @ z[:, :, None])[..., 0], 2.0 * qz


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a_n y_n = b_n for every lane n; an exactly singular lane gets nan.

    The bare gufunc ``linalg.lapack.solve`` fills a lane whose factorization
    meets an exact zero pivot with nan and flags the invalid operation that
    np.linalg.solve turns into LinAlgError; the flag is ignored here."""
    with np.errstate(invalid="ignore"):
        return linalg.lapack.solve(a, b)


def _projective_roots(q: np.ndarray, seed: int):
    """The 8 roots z of z^T Q_k z = 0, each scaled so its largest coordinate
    z_j is 1 and refined by Newton in the chart z_j = 1, whether each is at
    infinity, and the null-space gap sigma_27 / sigma_28 of the Macaulay matrix."""
    macaulay = (q.reshape(3, 16) @ _MACAULAY).reshape(30, 35)
    _, sigma, vt = np.linalg.svd(macaulay)
    null = vt[_RANK:].T
    b_g, b_h = np.tensordot(np.random.default_rng(seed).standard_normal((2, 4)), null[_SHIFT], 1)
    basis, tri = np.linalg.qr(b_h)
    _, y = np.linalg.eig(np.linalg.solve(tri, basis.T @ b_g))
    v4 = null @ y  # column r is v4(z_r) up to scale
    lanes = np.arange(v4.shape[1])
    j = np.argmax(np.abs(v4[_POWERS.diagonal()]), axis=0)
    z = v4[_POWERS[j], lanes[:, None]] / v4[_POWERS[j, j], lanes][:, None]
    moved = _CHART[j]
    for _ in range(_POLISH):
        e, grad = _evaluate(q, z)
        z[lanes[:, None], moved] -= _solve(np.take_along_axis(grad, moved[:, None], 2),
                                           e[..., None])[..., 0]
    bound = max(macaulay.shape) * np.finfo(float).eps * sigma[0] / sigma[_RANK - 1]
    at_inf = np.abs(z[:, 0]) <= bound * np.linalg.norm(z, axis=1)
    with np.errstate(divide="ignore"):  # an exactly rank-27 matrix has an infinite gap
        return z, at_inf, sigma[_RANK - 1] / sigma[_RANK]


def _close(x) -> np.ndarray:
    """Which pairs of points of the stack x lie within _DEDUP_TOL (nan is never close)."""
    return np.max(np.abs(x[:, None] - x[None]), axis=-1) < _DEDUP_TOL


def solve_stationary(gram: GramMatrix) -> list[StationaryRoot]:
    """All stationary roots of the three-state system, classified.

    The 8 projective roots are the eigenvectors of a shift pencil on the
    null space of the degree-4 Macaulay matrix, for two random linear forms;
    each is refined by Newton in the chart of its largest coordinate.  A
    root whose homogenizing coordinate z0 falls below the null space's
    accuracy, 35 eps |A| / sigma_27(A) of |z|, is at infinity.  The finite
    roots are kept when the residual is below 1e-9 relative to the size of
    the terms, and deduplicated at distance 1e-7.  Rounding can mix the
    eigenvectors of two nearby roots, so up to 4 pencils are tried until one
    has exactly one positive definite real root and every real root's factor
    within RESIDUAL_GATE as ``certify_gram`` gates it, else the last one's
    roots are returned.  A shortfall against the degree bound warns RootCountAnomaly.
    """
    return _stationary(gram)


def _stationary(gram: GramMatrix) -> list[StationaryRoot]:
    """``solve_stationary``'s roots; its RootCountAnomaly points at the caller
    of ``solve_stationary`` or ``classify_landscape``."""
    h = _check_real_m3(gram)
    for attempt in range(_ATTEMPTS):
        roots, at_inf, gap = _find_roots(h, _SEED + attempt)
        log.debug("macaulay attempt %d (seed %d): %d eigenvectors, %d at infinity, "
                  "null-space gap sigma_27/sigma_28 = %.3g",
                  attempt, _SEED + attempt, len(at_inf), int(at_inf.sum()), gap)
        if (why := _rejection(gram, roots)) is None:
            break
        log.debug("macaulay attempt %d rejected: %s", attempt, why)
    if len(roots) < DEGREE_BOUND:
        warnings.warn(f"found {len(roots)} stationary roots; the degree bound allows "
                      f"{DEGREE_BOUND}: the others are at infinity, coincide at a singular "
                      "root or were lost by the pencil", RootCountAnomaly, stacklevel=3)
    return roots


def _find_roots(h: np.ndarray, seed: int):
    """The distinct finite roots for H = G^{-1} from the pencil of the forms of
    ``seed``, classified, and ``_projective_roots``'s at-infinity flags and gap."""
    q = _coefficients(h)
    z, at_inf, gap = _projective_roots(q / np.max(np.abs(q)), seed)
    z = z[~at_inf] / z[~at_inf, :1]
    z = z[np.all(np.isfinite(z), axis=1)]
    e, grad = _evaluate(q, z)
    x, jac, resid = z[:, 1:], grad[..., 1:], np.max(np.abs(e), axis=1)
    # E is quadratic, so its terms grow like (1 + |x|)^2
    good = resid < _ROOT_RESID * np.max(np.abs(q)) * (1.0 + np.max(np.abs(x), axis=1)) ** 2
    x, resid, jac = x[good], resid[good], jac[good]
    # keep each root that is the first within _DEDUP_TOL of itself
    distinct = np.argmax(_close(x), axis=1) == np.arange(len(x))
    return _classify(x[distinct], resid[distinct], jac[distinct], h), at_inf, gap


def _rejection(gram: GramMatrix, roots: list[StationaryRoot]) -> str | None:
    """Why ``roots`` cannot be the landscape of ``gram``, or None: the count of
    positive definite roots, then the worst real root's factor residual as
    ``certify_gram`` computes it (np.max, so a NaN residual rejects)."""
    if (n_pd := sum(root.is_positive_definite for root in roots)) != 1:
        return f"{n_pd} positive definite roots, not 1"
    factors = [root.factor.astype(complex) for root in roots if root.factor is not None]
    worst = np.max([factor_residual(np.sqrt(f.diagonal().real), f, gram.entries)
                    for f in factors])
    return None if worst <= RESIDUAL_GATE else (
        f"worst real-root factor residual {worst:.3e} (gate {RESIDUAL_GATE:.1e})")


def _classify(x: np.ndarray, resid: np.ndarray, jac: np.ndarray, h: np.ndarray
              ) -> list[StationaryRoot]:
    """The roots x (n, 3) with their residuals and Jacobians, classified in one
    pass over the stack: real roots first by decreasing success probability,
    then by rounded coordinates."""
    is_real = np.max(np.abs(x.imag), axis=1) < _REAL_TOL
    x = np.where(is_real[:, None], x.real, x)
    m_mat = _symmetric(x.real)
    d_inv_sq = np.diagonal(m_mat @ h @ m_mat, axis1=1, axis2=2)
    ranks = np.linalg.matrix_rank(jac, tol=1e-8)
    roots = [StationaryRoot(values=v, residual=float(r), d_inv_sq=d if real else None,
                            jacobian_rank=int(k))
             for v, r, d, k, real in zip(x, resid, d_inv_sq, ranks, is_real)]
    keys = zip((~is_real).tolist(), [-(root.p_success or 0.0) for root in roots],
               map(tuple, np.round(x.real, 9).tolist()), map(tuple, np.round(x.imag, 9).tolist()))
    return [root for _, root in sorted(zip(keys, roots), key=lambda pair: pair[0])]


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


def classify_landscape(gram: GramMatrix) -> LandscapeSummary:
    """Enumerate and certify every stationary point.

    Each real root's certificate is ``certify_gram(gram, root.factor)[0]``
    (see ``Certificate``); the second item of that pair is the root's
    measurement.  ``certify_gram`` gates each factor again after the
    enumeration has gated it to pick the pencil, so a factor of a last
    attempt that misses the gate raises ResidualTooLarge, and a last attempt
    without exactly one positive definite root then raises NoConvergence.
    The unique positive definite root is labeled as the global maximum; the
    remaining real roots are certified stationary-non-global points whose
    success probabilities chart the optimization landscape.
    """
    roots = _stationary(gram)
    certs = [None if root.factor is None else certify_gram(gram, root.factor)[0]
             for root in roots]
    if (n_pd := sum(root.is_positive_definite for root in roots)) != 1:
        raise NoConvergence(f"none of {_ATTEMPTS} pencils held one positive definite "
                            f"root: the last had {n_pd} positive definite roots, not 1")
    return LandscapeSummary(gram=gram, roots=roots, certificates=certs)
