"""The stationary-root finder against two independent references.

``_multistart_roots`` is a plain copy of the earlier root finder: Newton from
200 random complex starts, deduplicated.  It misses roots but never invents
one, so every root it finds must be found again.  A lex Groebner basis
computed exactly by sympy on a rational Gram matrix gives every root: in
shape form its last element is a univariate polynomial whose roots fix the
other two coordinates.
"""

import numpy as np
import pytest

import medsolve as ms
from conftest import random_gram


def _system(v, h):
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


def _jacobian(v, h):
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


def _multistart_roots(gram, n_starts=200, seed=8128, max_iter=80):
    """Distinct roots reached by plain Newton from random starts in the complex box of radius 10."""
    h = np.linalg.inv(gram.entries.real).astype(complex)
    rng = np.random.default_rng(seed)
    radius = rng.uniform(0.0, 10.0, size=(n_starts, 3))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=(n_starts, 3))
    v = radius * np.exp(1j * angle)
    v[0] = 0.0
    dead = np.zeros(n_starts, dtype=bool)
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
    roots = []
    for cand in v[~dead]:
        if any(np.max(np.abs(cand - r)) < 1e-7 for r in roots):
            continue
        if np.max(np.abs(_system(cand, h))) < 1e-9:
            roots.append(cand)
    return roots


def _found(gram):
    return np.array([root.values for root in ms.solve_stationary(gram)])


@pytest.mark.slow
def test_every_multistart_root_is_found():
    for seed in range(30):
        gram = random_gram(3, seed + 400, real=True, spread=0.4 + 0.018 * seed)
        found = _found(gram)
        reference = _multistart_roots(gram)
        assert reference, f"seed {seed}"
        for v in reference:
            assert np.min(np.max(np.abs(found - v), axis=1)) < 1e-8, f"seed {seed}: {v}"


def _rational_gram(sp, seed, spread):
    """The seeded Gram matrix rounded to rationals, exactly and in floats."""
    g = random_gram(3, seed, spread=spread, real=True).entries.real
    r = sp.zeros(3, 3)
    for i in range(3):
        for j in range(i, 3):
            r[i, j] = r[j, i] = sp.Rational(g[i, j]).limit_denominator(10**9)
    r[2, 2] = 1 - r[0, 0] - r[1, 1]
    return r, ms.GramMatrix(np.array(r.tolist(), dtype=float))


def _groebner_roots(sp, r):
    a, b, c = sp.symbols("a b c")
    m = sp.Matrix([[1, a, b], [a, 1, c], [b, c, 1]])
    e = m * r.inv() * m
    pa, pb, pc = sp.groebner([e[0, 1], e[0, 2], e[1, 2]], a, b, c, order="lex").exprs
    # shape form: a + P(c), b + Q(c), R(c)
    assert sp.Poly(pa - a, a, b).is_ground and sp.Poly(pb - b, a, b).is_ground
    roots = []
    # 120 digits: back-substituting a root into the degree-7 polynomials P
    # and Q cancels about 20 digits at |c| ~ 1e3 and more at |c| ~ 1e8, where
    # 60 digits leave a and b of the root at c = -8.27e7 off by 3.5 %
    for c0 in sp.Poly(pc, c).nroots(n=120, maxsteps=200):
        roots.append([-(pa - a).subs(c, c0), -(pb - b).subs(c, c0), c0])
    return np.array(roots, dtype=complex)


@pytest.mark.slow
@pytest.mark.parametrize("seed, spread", [(6, 0.9), (0, 0.3), (474, 0.77)])
def test_roots_match_groebner_basis(seed, spread):
    sp = pytest.importorskip("sympy")
    r, gram = _rational_gram(sp, seed, spread)
    reference = _groebner_roots(sp, r)
    found = _found(gram)
    assert len(reference) == len(found) == ms.enumerate3.DEGREE_BOUND
    for v in reference:
        # (474, 0.77) has a real root at c = -8.27e7, so its bound is relative
        tol = 1e-12 * (1.0 + np.max(np.abs(v))) if seed == 474 else 1e-8
        assert np.min(np.max(np.abs(found - v), axis=1)) < tol, v
    n_real = np.sum(np.max(np.abs(reference.imag), axis=1) < 1e-9)
    assert sum(root.is_real for root in ms.solve_stationary(gram)) == n_real
