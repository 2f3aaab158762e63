"""The two rounding facts the ascent's corrector rests on.

The corrector of a polished drag may stop on the gradient norm because the
certificate's stationarity residual is 2 max |gen_ij|, at most sqrt 2 times
that norm; and it accepts a trial that falls below the current value by
less than twice the rounding bound of one evaluation of P.
"""

import numpy as np
import pytest

import medsolve as ms
from conftest import random_gram
from medsolve import ascent
from medsolve.linalg import haar_unitary

_EPS = np.finfo(float).eps


def _measurements(m, real, count=20):
    """Seeded (R, U, gram): Haar-random measurements of seeded Gram matrices."""
    for k in range(count):
        rng = np.random.default_rng(1000 * m + 100 * real + k)
        gram = random_gram(m, seed=500 + 20 * m + k, spread=0.3 + 0.03 * k, real=real)
        r = gram.scaled_states.real.copy() if real else gram.scaled_states
        yield r, haar_unitary(rng, m, real), gram


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_stationarity_residual_is_twice_the_largest_generator_entry(m, real):
    for r, u, gram in _measurements(m, real):
        w = np.einsum("ij,kji->ki", r, u[None])
        gen = ascent._generator(r.conj().T, u[None], w)[0]
        residual = ms.certify_povm(gram, ms.Povm(u)).stationarity_residual
        # both are differences of products of entries of O = R U, whose squares
        # sum to Tr G = 1, so they agree to rounding on that scale
        assert residual == pytest.approx(2.0 * np.abs(gen).max(), rel=0.0, abs=m * m * _EPS)
        assert residual <= np.sqrt(2.0) * np.linalg.norm(gen) * (1.0 + m * m * _EPS)


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_one_evaluation_of_p_is_within_its_rounding_bound(m, real):
    # the reference sums in extended precision
    for r, u, _ in _measurements(m, real):
        w = (r.astype(np.clongdouble) * u.T.astype(np.clongdouble)).sum(axis=1)
        exact = (w.real**2 + w.imag**2).sum()
        p = ascent.success(r, u)
        assert abs(p - exact) <= ascent.rounding_bound(m) * p
