"""Exhaustive stationary-point enumeration for three real states.

For a real 3x3 Gram matrix the stationarity conditions reduce to a
polynomial system.  Writing H = G^{-1} and parameterizing the real
symmetric unit-diagonal matrix

    M = G^{1/2} U D^{-1} = [[1, a, b], [a, 1, c], [b, c, 1]],

the matrix identity M H M = D^{-2} must hold with D^{-2} diagonal.  Its
three off-diagonal entries give three coupled quadratics in (a, b, c)
whose complex solution set is finite (degree bound 8); the diagonal
entries then determine D and the factor F = D M D, which ``certify_gram``
turns into the measurement and its certificate.  Complex roots do not
correspond to measurements and are discarded; every real root is a
stationary point of the success probability on the manifold of rank-one
projective measurements, and exactly one of them -- the one with M
positive definite -- is the global optimum.

Roots are found numerically by damped-free multi-start Newton iteration
over the complex box, deduplicated, and polished to tight residuals; no
symbolic elimination is attempted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .certify import TOL_GLB, TOL_STAT, Certificate, certify_gram
from .exceptions import NotRealRoot, RootCountAnomaly
from .gram import GramMatrix
from .linalg import read_only
from .measurement import Povm

#: total-degree bound on the number of isolated complex roots
DEGREE_BOUND = 8

_REAL_TOL = 1e-9
_DEDUP_TOL = 1e-7
_ROOT_RESID = 1e-9


@dataclass(frozen=True)
class StationaryRoot:
    """One solution of the stationarity system.

    ``symmetric_matrix`` is the unit-diagonal matrix M built from the root;
    ``d_inv_sq`` holds the diagonal of M H M (the inverse squared scales)
    for real roots and is None otherwise.  Exactly one real root per
    generic Gram matrix has ``is_positive_definite`` set.
    """

    alpha: complex
    beta: complex
    gamma: complex
    residual: float
    is_real: bool
    symmetric_matrix: np.ndarray
    d_inv_sq: np.ndarray | None
    is_positive_definite: bool
    p_success: float | None
    jacobian_rank: int

    def __post_init__(self):
        object.__setattr__(self, "symmetric_matrix", read_only(np.array(self.symmetric_matrix)))
        if self.d_inv_sq is not None:
            object.__setattr__(self, "d_inv_sq", read_only(np.array(self.d_inv_sq, dtype=float)))

    @property
    def values(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma])


def _check_real_m3(gram: GramMatrix) -> np.ndarray:
    if gram.m != 3:
        raise ValueError("stationary enumeration is implemented for m=3 only")
    if np.max(np.abs(gram.entries.imag)) > 1e-12:
        raise ValueError("stationary enumeration requires a real Gram matrix")
    return np.linalg.inv(gram.entries.real)


def _system(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of M H M as polynomials in (alpha, beta, gamma).

    Works on a batch: v has shape (..., 3)."""
    al, be, ga = v[..., 0], v[..., 1], v[..., 2]
    e1 = (
        al**2 * h[0, 1]
        + al * (h[0, 0] + h[1, 1] + h[0, 2] * be + h[1, 2] * ga)
        + h[2, 2] * be * ga + h[1, 2] * be + h[0, 2] * ga + h[0, 1]
    )
    e2 = (
        be**2 * h[0, 2]
        + be * (h[0, 0] + h[2, 2] + h[1, 2] * ga + h[0, 1] * al)
        + h[1, 1] * al * ga + h[0, 1] * ga + h[1, 2] * al + h[0, 2]
    )
    e3 = (
        ga**2 * h[1, 2]
        + ga * (h[1, 1] + h[2, 2] + h[0, 2] * be + h[0, 1] * al)
        + h[0, 0] * al * be + h[0, 1] * be + h[0, 2] * al + h[1, 2]
    )
    return np.stack([e1, e2, e3], axis=-1)


def _jacobian(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Batched 3x3 complex Jacobian of ``_system``."""
    al, be, ga = v[..., 0], v[..., 1], v[..., 2]
    rows = [
        [
            2 * al * h[0, 1] + h[0, 0] + h[1, 1] + h[0, 2] * be + h[1, 2] * ga,
            al * h[0, 2] + h[2, 2] * ga + h[1, 2],
            al * h[1, 2] + h[2, 2] * be + h[0, 2],
        ],
        [
            be * h[0, 1] + h[1, 1] * ga + h[1, 2],
            2 * be * h[0, 2] + h[0, 0] + h[2, 2] + h[1, 2] * ga + h[0, 1] * al,
            be * h[1, 2] + h[1, 1] * al + h[0, 1],
        ],
        [
            ga * h[0, 1] + h[0, 0] * be + h[0, 2],
            ga * h[0, 2] + h[0, 0] * al + h[0, 1],
            2 * ga * h[1, 2] + h[1, 1] + h[2, 2] + h[0, 2] * be + h[0, 1] * al,
        ],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def _newton_batch(v0: np.ndarray, h: np.ndarray, max_iter: int = 80) -> np.ndarray:
    """Run plain Newton from every start simultaneously.

    Diverged or Jacobian-singular starts are parked and reported as inf so
    the batched solve never sees a bad matrix; everything else iterates to
    quadratic-convergence accuracy."""
    v = v0.copy()
    dead = np.zeros(v.shape[0], dtype=bool)
    eye = np.eye(3, dtype=complex)
    for _ in range(max_iter):
        with np.errstate(all="ignore"):
            res = _system(v, h)
            jac = _jacobian(v, h)
            det = np.linalg.det(jac)
            diverged = ~np.all(np.isfinite(v), axis=-1) | (np.max(np.abs(v), axis=-1) > 1e10)
            dead |= diverged | ~np.isfinite(det) | (np.abs(det) < 1e-30)
            v[dead] = 0.0
            res[dead] = 0.0
            jac[dead] = eye
            v = v - np.linalg.solve(jac, res[..., None])[..., 0]
    v[dead] = np.inf
    return v


def _dedup(cands: np.ndarray) -> list[np.ndarray]:
    roots: list[np.ndarray] = []
    for v in cands:
        if not np.all(np.isfinite(v)):
            continue
        if any(np.max(np.abs(v - r)) < _DEDUP_TOL for r in roots):
            continue
        roots.append(v)
    return roots


def solve_stationary(
    gram: GramMatrix, n_starts: int = 200, seed: int = 8128
) -> list[StationaryRoot]:
    """All stationary roots of the three-state system, classified.

    Newton iteration is started from ``n_starts`` points drawn uniformly
    from the complex box of radius 10 per coordinate; converged iterates
    are deduplicated at distance 1e-7 and kept when the system residual is
    below 1e-9.  If fewer distinct roots than the degree bound survive, a
    RootCountAnomaly warning is issued (symmetric ensembles genuinely push
    roots to infinity, so this is informational, not an error).
    """
    h = _check_real_m3(gram).astype(complex)
    rng = np.random.default_rng(seed)
    radius = rng.uniform(0.0, 10.0, size=(n_starts, 3))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=(n_starts, 3))
    starts = radius * np.exp(1j * angle)
    # A start at the origin homes in on the root nearest the identity.
    starts[0] = 0.0
    finals = _newton_batch(starts, h)
    keep = [v for v in _dedup(finals) if np.max(np.abs(_system(v, h))) < _ROOT_RESID]

    roots = [_classify_root(v, h, gram) for v in keep]
    roots.sort(key=_root_order)
    if len(roots) < DEGREE_BOUND:
        warnings.warn(
            f"found {len(roots)} stationary roots; the degree bound allows "
            f"{DEGREE_BOUND} (some roots may be at infinity or coincident)",
            RootCountAnomaly,
            stacklevel=2,
        )
    return roots


def _root_order(root: StationaryRoot):
    ps = -(root.p_success or 0.0)
    v = root.values
    return (not root.is_real, ps, tuple(np.round(v.real, 9)), tuple(np.round(v.imag, 9)))


def _classify_root(v: np.ndarray, h: np.ndarray, gram: GramMatrix) -> StationaryRoot:
    resid = float(np.max(np.abs(_system(v, h))))
    is_real = bool(np.max(np.abs(v.imag)) < _REAL_TOL)
    jac = _jacobian(v, h)
    rank = int(np.linalg.matrix_rank(jac, tol=1e-8))
    if is_real:
        vr = v.real
        m_mat = np.array([[1.0, vr[0], vr[1]], [vr[0], 1.0, vr[2]], [vr[1], vr[2], 1.0]])
        d_inv_sq = np.diagonal(m_mat @ h.real @ m_mat).copy()
        is_pd = bool(np.all(np.linalg.eigvalsh(m_mat) > 0.0))
        # W = M D is unit-diagonal times D, so P_s = sum_i D_ii^2.
        p_success = float(np.sum(1.0 / d_inv_sq))
        return StationaryRoot(
            alpha=complex(vr[0]), beta=complex(vr[1]), gamma=complex(vr[2]),
            residual=resid, is_real=True, symmetric_matrix=m_mat,
            d_inv_sq=d_inv_sq, is_positive_definite=is_pd,
            p_success=p_success, jacobian_rank=rank,
        )
    m_mat = np.array([[1.0, v[0], v[1]], [v[0], 1.0, v[2]], [v[1], v[2], 1.0]])
    return StationaryRoot(
        alpha=complex(v[0]), beta=complex(v[1]), gamma=complex(v[2]),
        residual=resid, is_real=False, symmetric_matrix=m_mat,
        d_inv_sq=None, is_positive_definite=False,
        p_success=None, jacobian_rank=rank,
    )


def _root_factor(root: StationaryRoot) -> np.ndarray:
    """F = D M D, D = diag(d_inv_sq)^{-1/2}: F^2 - DGD = D (M D^2 M - G) D is 0 iff M H M = D^-2."""
    if not root.is_real or root.d_inv_sq is None:
        raise NotRealRoot("complex stationary roots do not correspond to measurements")
    if np.any(root.d_inv_sq <= 0.0):
        raise NotRealRoot("root has non-positive inverse squared scales")
    d = 1.0 / np.sqrt(root.d_inv_sq)
    return d[:, None] * root.symmetric_matrix.real * d[None, :]


def root_to_povm(gram: GramMatrix, root: StationaryRoot) -> Povm:
    """Measurement attached to a real stationary root.

    The polar-snapped U = G^{-1/2} M D that ``certify_gram`` forms from the
    factor F = D M D; it raises ResidualTooLarge for a root that is not one.
    """
    return certify_gram(gram, _root_factor(root))[1]


LABEL_GLOBAL = "global maximum"
LABEL_STATIONARY = "stationary (non-global)"
LABEL_COMPLEX = "complex (unphysical)"


@dataclass(frozen=True)
class LandscapeSummary:
    """All stationary points of one three-state problem, certified.

    ``labels`` and ``certificates`` run parallel to ``roots`` (complex
    roots carry no certificate).  Real entries are sorted by decreasing
    success probability, so the global maximum comes first.
    """

    gram: GramMatrix
    roots: list[StationaryRoot]
    labels: list[str]
    certificates: list[Certificate | None]

    @property
    def global_index(self) -> int:
        return self.labels.index(LABEL_GLOBAL)


def classify_landscape(
    gram: GramMatrix,
    n_starts: int = 200,
    seed: int = 8128,
    tol_stat: float = TOL_STAT,
    tol_glb: float = TOL_GLB,
) -> LandscapeSummary:
    """Enumerate, convert and certify every stationary point.

    The unique positive definite root is labeled as the global maximum;
    remaining real roots are certified stationary-non-global points whose
    success probabilities chart the optimization landscape.
    """
    roots = solve_stationary(gram, n_starts=n_starts, seed=seed)
    labels: list[str] = []
    certs: list[Certificate | None] = []
    for root in roots:
        if not root.is_real:
            labels.append(LABEL_COMPLEX)
            certs.append(None)
            continue
        certs.append(certify_gram(gram, _root_factor(root), tol_stat, tol_glb)[0])
        labels.append(LABEL_GLOBAL if root.is_positive_definite else LABEL_STATIONARY)
    return LandscapeSummary(gram=gram, roots=roots, labels=labels, certificates=certs)
