"""The rounding facts the ascent rests on, and its fixed-point property.

The corrector of a polished drag may stop on the gradient norm because the
certificate's stationarity residual is 2 max |gen_ij|, at most sqrt 2 times
that norm.  One evaluation of P = sum_i |(R U)_ii|^2 is good to 3 m eps P,
which bounds how far P may appear to fall along the ascent's iterates.  The
step U <- polar(R^dag diag(w)) holds the optimum in place and leaves every
other stationary point, as the independent m = 3 enumeration tells them
apart.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import medsolve as ms
from conftest import random_gram, seeded_grams, solve_direct
from medsolve import ascent
from medsolve.enumerate3 import LABEL_GLOBAL, LABEL_STATIONARY
from medsolve.linalg import haar_unitary, polar_unitary

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402

_EPS = np.finfo(float).eps


def _rounding_bound(m):
    """Relative rounding of one evaluation of P at dimension m >= 2: each (R U)_ii
    is an m-term complex inner product, good to gamma_{m+2} ~ (m + 2) eps/2
    where it does not cancel (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.6); squaring its modulus doubles that and adds eps,
    and summing m squares adds (m - 1) eps/2: (1.5 m + 2.5) eps <= 3 m eps."""
    return 3.0 * m * _EPS


def _step(r, u):
    """One fixed-point step U <- polar(R^dag diag(w)), w = diag(R U)."""
    return polar_unitary(r.conj().T * np.einsum("ij,ji->i", r, u))


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
        b = r.conj().T * np.einsum("ij,ji->i", r, u)
        gen = ascent._generator(u[None], b[None])[0]
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
        assert abs(p - exact) <= _rounding_bound(m) * p


@pytest.mark.slow
def test_one_step_from_a_drag_certified_optimum_moves_p_by_rounding():
    # the optimum is a fixed point: the step's own change of P is second order
    # in the drag's stationarity residual, far below rounding, so only the two
    # evaluations of P differ
    for k, gram in enumerate(seeded_grams(3, 20, base_seed=3900, real=True)):
        report = solve_direct(gram)
        assert report.certificate.status == "optimal", f"gram {k}"
        r, u = gram.scaled_states.real, report.final_povm.vectors.real
        p = float(ascent.success(r, u))
        assert abs(float(ascent.success(r, _step(r, u))) - p) <= 2.0 * _rounding_bound(3) * p


def test_one_step_from_a_non_global_stationary_point_raises_p():
    # at a non-global real root U^dag R^dag diag(w) is hermitian but indefinite,
    # so the polar step leaves the root, and by a margin, not by rounding
    seen = 0
    for gram in seeded_grams(3, 20, base_seed=3900, real=True):
        landscape = ms.classify_landscape(gram)
        r = gram.scaled_states.real
        for label, cert, root in zip(landscape.labels, landscape.certificates, landscape.roots):
            if label != LABEL_STATIONARY:
                continue
            u = ms.certify_gram(gram, root.factor)[1].vectors.real
            assert cert.status == "stationary"
            assert float(ascent.success(r, _step(r, u))) > root.p_success + 1e-3
            seen += 1
        assert landscape.labels.count(LABEL_GLOBAL) == 1
    assert seen >= 100


def test_a_lane_stuck_at_the_rounding_of_its_step_stops():
    # the best restart of this search lands on a fixed point of the computed
    # step whose gradient norm, 2.2e-15, exceeds gradient_noise(3) = 1.9e-15:
    # the finish stops where the norm no longer falls, not after MAX_ITER steps
    problem = inputs.verify_m3(104)[8]
    gram = ms.GramMatrix(problem.gram())
    found = ms.search_optimum(gram, seed=8)
    assert ascent.gradient_noise(3) < found.convergence.grad_norm <= ascent._GTOL
    assert found.convergence.iterations < 40
    assert ms.certify_povm(gram, found.povm).status == "optimal"


@pytest.mark.slow
def test_p_never_falls_along_the_correctors_iterates(monkeypatch):
    # every unitary the polished drag's corrector steps to on the batch-small
    # inputs of seed 0, recorded as the kernel's polar step returns it
    starts, steps = [], []

    def finish(r, u):
        starts.append((r, u, len(steps)))
        return real_finish(r, u)

    def polar(b):
        steps.append(polar_unitary(b)[0])
        return steps[-1][None]

    real_finish = ascent.finish
    monkeypatch.setattr(ascent, "finish", finish)
    monkeypatch.setattr(ascent, "polar_unitary", polar)
    for problem in inputs.batch_small(0):
        report = solve_direct(ms.GramMatrix(problem.gram()), steps=200, h=5e-3, polish=True)
        assert report.certificate.status == "optimal", problem.name
    assert len(steps) > len(starts) == len(inputs.batch_small(0))
    for k, (r, u, first) in enumerate(starts):
        end = starts[k + 1][2] if k + 1 < len(starts) else len(steps)
        values = ascent.success(r, np.array([u, *steps[first:end]]))
        bound = _rounding_bound(r.shape[0]) * values[:-1]
        assert np.all(values[1:] >= values[:-1] - bound), f"corrector {k}"
