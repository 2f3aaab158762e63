"""The Barnum-Knill bracket P_PGM <= P <= sqrt(P_PGM) on both optimum routes.

Barnum & Knill, J. Math. Phys. 43, 2097 (2002): the pretty good measurement
(PGM) succeeds with P_PGM = sum_i ((G^{1/2})_ii)^2, and the optimum P obeys
P_PGM <= P <= sqrt(P_PGM).  P_PGM is computed here from its own eigh of G,
O(m^3) and shared with neither the direct search nor the drag.  The bracket
is tight at the orthogonal ensemble, where P = P_PGM = 1.  The polished drag
is checked at m = 2..8; the direct search, restricted to m <= 4, at
m <= 4.
"""

import numpy as np
import pytest

import medsolve as ms
from conftest import identity_gram, seeded_grams, solve_direct

_EPS = np.finfo(float).eps


def _pgm_success(gram: ms.GramMatrix) -> float:
    lam, v = np.linalg.eigh(gram.entries)
    root_diag = (np.abs(v) ** 2) @ np.sqrt(np.clip(lam, 0.0, None))
    return float(np.sum(root_diag**2))


def _grams(m, real):
    return [identity_gram(m)] + seeded_grams(
        m, 3, base_seed=3500 + 10 * m, real=real, spread_step=0.3
    )


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("real", [False, True])
def test_both_routes_lie_in_the_bracket(m, real):
    # both P and P_PGM are sums of m squares of entries bounded by 1, taken
    # from a square root of G (a backward-stable eigh of a matrix of norm
    # <= Tr G = 1: about m eps off in norm) through m-term sums of products
    # (about m eps each).  Squaring and summing against a total <= 1 moves
    # each side by at most about 2 (m eps + m eps) = 4 m eps; the two sides
    # together by 8 m eps.  At the orthogonal ensemble the routes read up to
    # 3 m eps past sqrt(P_PGM).
    margin = 8 * m * _EPS
    for k, gram in enumerate(_grams(m, real)):
        p_pgm = _pgm_success(gram)
        report = solve_direct(gram, steps=200, h=5e-3, polish=True)
        assert report.certificate.status == "optimal"
        routes = [report.certificate.p_success]
        if m <= 4:
            routes.append(ms.search_optimum(gram, seed=k).p_success)
        for p in routes:
            assert p_pgm - margin <= p <= np.sqrt(p_pgm) + margin, f"gram {k}: {p_pgm!r}, {p!r}"
