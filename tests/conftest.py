"""Shared helpers for the test suite."""

import types

import numpy as np

import medsolve as ms
from medsolve import linalg
from medsolve.linalg import haar_unitary, hermitize

#: numpy's LAPACK gufuncs, taken before any test replaces ``linalg.lapack``
LAPACK = linalg.lapack

#: the gufuncs of the hermitian spectrum, ``linalg.hermitian_eig``
EIGEN = ("eigvalsh_lo", "eigh_lo")
#: the gufuncs that fail by not converging; the others fail at a zero pivot
NO_CONVERGENCE = (*EIGEN, "svd_f")
#: every gufunc of ``linalg.lapack`` that the package calls
GUFUNCS = (*NO_CONVERGENCE, "inv", "cholesky_lo", "solve1", "solve")


def identity_gram(m: int) -> ms.GramMatrix:
    return ms.GramMatrix(np.eye(m) / m)


def random_gram(m: int, seed: int, spread: float = 0.6, real: bool = False) -> ms.GramMatrix:
    """Gram matrix of a seeded random ensemble, in the ensemble's own order."""
    ensemble = ms.random_ensemble(m, seed, spread, real=real)
    return ms.raw_gram(ensemble)


def solve_direct(gram: ms.GramMatrix, steps: int = 500, h: float = 2e-3, **kwargs) -> ms.RunReport:
    """Drag from the orthogonal ensemble straight to ``gram``."""
    return ms.rk4_drag(ms.Trajectory(identity_gram(gram.m), gram), steps=steps, h=h, **kwargs)


def seeded_grams(
    m: int,
    count: int,
    base_seed: int,
    real: bool = False,
    spread_min: float = 0.3,
    spread_step: float = 0.02,
    min_eig: float = 0.01,
) -> list[ms.GramMatrix]:
    """Deterministic family of well-conditioned Gram matrices.

    Draws skip ensembles whose smallest eigenvalue falls below ``min_eig``:
    the fixed-step solver's accuracy guarantees hold away from the
    near-dependent boundary (``polish``, which corrects the measurement at
    t = 1 by ascent on the unitary group, covers the rest)."""
    grams: list[ms.GramMatrix] = []
    probe = 0
    while len(grams) < count:
        spread = min(spread_min + spread_step * probe, 0.95)
        gram = random_gram(m, base_seed + probe, spread=spread, real=real)
        probe += 1
        if np.linalg.eigvalsh(gram.entries)[0] > min_eig:
            grams.append(gram)
    return grams


def probe_grams(seed: int, count: int, m_high: int) -> list[ms.GramMatrix]:
    """The first ``count`` draws of the near-dependence probe from
    ``default_rng(seed)``: m uniform in 2..``m_high``, real or complex by a
    coin, lambda_min(G) = 10^-k with k uniform in [1, 7.5], the other
    eigenvalues uniform in [0.1, 1] scaled to trace 1, Haar eigenvectors."""
    rng = np.random.default_rng(seed)
    grams = []
    for _ in range(count):
        m, real = int(rng.integers(2, m_high + 1)), bool(rng.integers(2))
        lam = np.concatenate(([10.0 ** -rng.uniform(1.0, 7.5)], rng.uniform(0.1, 1.0, m - 1)))
        lam[1:] *= (1.0 - lam[0]) / lam[1:].sum()
        v = haar_unitary(rng, m, real)
        grams.append(ms.GramMatrix(hermitize((v * lam) @ v.conj().T)))
    return grams


def helstrom_angle_scan(
    p1: float, p2: float, overlap: complex, n_points: int = 1_000_000
) -> float:
    """Reference for ``ms.helstrom``: the brute-force two-state optimum by
    scanning rank-one projective measurements in the real span of the pair.

    The overlap phase can be absorbed into one state, and for a real pair
    the optimal basis is real, so a dense scan of the rotation angle is an
    exhaustive and entirely independent check of the closed form.
    """
    c = abs(complex(overlap))
    s = np.sqrt(1.0 - c * c)
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    # basis v1 = (cos, sin), v2 = (-sin, cos); states (1,0) and (c, s)
    ps = p1 * np.cos(theta) ** 2 + p2 * (s * np.cos(theta) - c * np.sin(theta)) ** 2
    return float(np.max(ps))


def overlap_gram_m3(c: float, probs=(0.4, 0.35, 0.25)) -> ms.GramMatrix:
    """Three real states with a strongly overlapping pair; steep ensembles
    for integration-order measurements (min Gram eigenvalue shrinks with c)."""
    psi1 = np.array([1.0, 0.0, 0.0])
    psi2 = np.array([c, np.sqrt(1.0 - c * c), 0.0])
    psi3 = np.array([0.3, 0.25, np.sqrt(1.0 - 0.3**2 - 0.25**2)])
    states = np.stack([psi1, psi2, psi3], axis=1)
    scaled = states * np.sqrt(np.asarray(probs))
    return ms.GramMatrix(scaled.T @ scaled)


def lapack_nan_from_call(monkeypatch, first: int, *names: str,
                         last: int | None = None, flagged: bool = False) -> list[int]:
    """Replace ``linalg.lapack`` by numpy's LAPACK gufuncs, except that the gufuncs
    ``names``, their calls counted together from 1, return NaN in every output from
    call ``first`` on (to call ``last``, if given), as numpy's gufuncs report a failed
    factorization, without raising the invalid flag.  With ``flagged``, a failing
    call runs the real gufunc on an input that LAPACK fails on, and so also raises
    the flag, as a real failure does: all NaN for those of ``NO_CONVERGENCE``, all
    zeros, an exact zero pivot, for the others.  Every caller in the package
    looks ``linalg.lapack`` up at call time, so this reaches each of its calls.
    Returns the list that records the ndim of each named call's first argument.
    A later call replaces an earlier one's patch."""
    calls: list[int] = []

    def failing(name):
        gufunc = getattr(LAPACK, name)
        fill = np.nan if name in NO_CONVERGENCE else 0.0

        def call(*args):
            calls.append(args[0].ndim)
            if len(calls) < first or last is not None and len(calls) > last:
                return gufunc(*args)
            if flagged:
                return gufunc(np.full_like(args[0], fill), *args[1:])
            out = gufunc(*args)
            if isinstance(out, tuple):
                return tuple(np.full_like(x, np.nan) for x in out)
            return np.full_like(out, np.nan)
        return call

    monkeypatch.setattr(linalg, "lapack", types.SimpleNamespace(
        **vars(LAPACK) | {name: failing(name) for name in names}))
    return calls
