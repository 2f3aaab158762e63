"""The rounding facts the ascent rests on, its fixed-point property and its
Newton step.

The corrector of a polished drag may stop on the gradient norm because the
certificate's stationarity residual is 2 max |gen_ij|, at most sqrt 2 times
that norm.  One evaluation of P = sum_i |(R U)_ii|^2 is good to
``ascent.rounding_bound``, which bounds how far P may appear to fall along the
ascent's iterates and guards the Newton step.  The step
U <- polar(R^dag diag(w)) holds the optimum in place and leaves every other
stationary point, as the independent m = 3 enumeration tells them apart; every
non-global root is a saddle of P, which the finish leaves for the optimum, so
the direct search needs one start.  The Newton step's gradient and Hessian are
the derivatives of P along U exp(t Xi).
"""

import itertools
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import medsolve as ms
from conftest import lapack_nan_from_call, random_gram, seeded_grams, solve_direct
from medsolve import ascent, oracle
from medsolve.enumerate3 import LABEL_GLOBAL, LABEL_STATIONARY
from medsolve.linalg import haar_unitary, polar_unitary

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402

_EPS = np.finfo(float).eps


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


def _exact_success(r, u):
    """P at U = ``u``, summed in extended precision."""
    w = (r.astype(np.clongdouble) * u.T.astype(np.clongdouble)).sum(axis=1)
    return (w.real**2 + w.imag**2).sum()


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
        exact = _exact_success(r, u)
        p = ascent.success(r, u)
        assert abs(p - exact) <= ascent.rounding_bound(m) * p


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
        assert abs(float(ascent.success(r, _step(r, u))) - p) <= 2.0 * ascent.rounding_bound(3) * p


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


def _landscape_roots():
    """(R, U, label, P at the global root) at every global or non-global real root
    of seeded real m = 3 inputs, U = polar(G^{-1/2} D^{-1} F) as ``certify_gram``
    builds it from the root's factor F."""
    for spread in (0.3, 0.6, 0.9):
        for seed in range(30):
            gram = ms.raw_gram(ms.random_ensemble(3, seed, spread, real=True))
            landscape = ms.classify_landscape(gram)
            roots = [(label, root) for label, root in zip(landscape.labels, landscape.roots)
                     if label in (LABEL_GLOBAL, LABEL_STATIONARY)]
            [p_global] = [root.p_success for label, root in roots if label == LABEL_GLOBAL]
            r = gram.scaled_states.real
            for label, root in roots:
                yield r, ms.certify_gram(gram, root.factor)[1].vectors.real, label, p_global


def test_every_non_global_stationary_point_is_a_saddle():
    # the direct search's one start rests on this: -H, promoted to complex
    # arithmetic so that every direction counts, has a negative eigenvalue at
    # every non-global root, and by a margin (the largest such minimum is
    # -0.49 here), while it is positive definite at the global root (least
    # eigenvalue 0.42).  The real search runs over O(3), and there too every
    # non-global root has a direction of ascent (largest minimum -0.41)
    worst_saddle, worst_real_saddle, worst_global, saddles = -np.inf, -np.inf, np.inf, 0
    for r, u, label, _ in _landscape_roots():
        curv = ascent._newton_system(r.astype(complex), u.astype(complex))[1]
        least = np.linalg.eigvalsh(curv)[0]
        if label == LABEL_GLOBAL:
            worst_global = min(worst_global, least)
            continue
        least_real = np.linalg.eigvalsh(ascent._newton_system(r, u)[1])[0]
        worst_saddle, saddles = max(worst_saddle, least), saddles + 1
        worst_real_saddle = max(worst_real_saddle, least_real)
    assert saddles >= 500
    assert max(worst_saddle, worst_real_saddle) < -0.1, (worst_saddle, worst_real_saddle)
    assert worst_global > 0.1, worst_global


def _skew(rng, m, cplx, size):
    """A random skew-hermitian (skew-symmetric unless ``cplx``) m x m matrix of
    Frobenius norm ``size``."""
    x = rng.normal(size=(m, m)) + (1j * rng.normal(size=(m, m)) if cplx else 0.0)
    x = x - x.conj().T
    return size * x / np.linalg.norm(x)


def test_the_finish_leaves_every_saddle_for_the_global_optimum():
    # from a start 1e-6 or 1e-3 off a non-global root, U polar(I + Xi) for a
    # random skew Xi, in complex and in real arithmetic, the finish reaches
    # the global root's P in a few steps
    rng = np.random.default_rng(38)
    starts = 0
    for r, u, label, p_global in _landscape_roots():
        if label == LABEL_GLOBAL:
            continue
        for size, cplx in itertools.product((1e-6, 1e-3), (True, False)):
            xi = _skew(rng, 3, cplx, size)
            rr = r.astype(complex) if cplx else r
            v, stopped_at, _, _ = ascent.finish(rr, u @ polar_unitary(np.eye(3) + xi))
            assert abs(float(ascent.success(rr, v)) - p_global) <= 1e-12
            assert stopped_at <= 12
            starts += 1
    assert starts >= 2000


def test_a_lane_stuck_at_the_rounding_of_its_step_stops(monkeypatch):
    # by the fixed-point step alone, this search lands after 23 iterations on
    # a fixed point of the computed step whose gradient norm, 2.2e-15,
    # exceeds gradient_noise(3) = 1.9e-15: the finish stops where the norm no
    # longer falls, not after MAX_ITER steps.  Newton steps take this search
    # to 4.2e-16, so they are switched off to reach the fixed-point step alone
    monkeypatch.setattr(ascent, "_newton_step", lambda r, u: None)
    problem = inputs.verify_m3(104)[8]
    gram = ms.GramMatrix(problem.gram())
    found = ms.search_optimum(gram, seed=8)
    assert ascent.gradient_noise(3) < found.convergence.grad_norm <= ascent._GTOL
    assert found.convergence.iterations < 40
    assert ms.certify_povm(gram, found.povm).status == "optimal"


@pytest.mark.slow
def test_p_never_falls_along_the_correctors_iterates(monkeypatch):
    # every unitary the polished drag's corrector steps to on the batch-small
    # inputs of seed 0, as the finish's iterates yield them, once with the
    # Newton step and once with the fixed-point step alone.  P is summed in
    # extended precision, not as the Newton step's guard evaluates it, and
    # every accepted Newton step must also lower the gradient norm
    runs = []

    def finish(r, u):
        out = real_finish(r, u)
        runs.append((r, u, out[1], out[2]))
        return out

    real_finish = ascent.finish
    monkeypatch.setattr(ascent, "finish", finish)
    for newton_on in (True, False):
        if not newton_on:
            monkeypatch.setattr(ascent, "_newton_step", lambda r, u: None)
        runs.clear()
        for problem in inputs.batch_small(0):
            report = solve_direct(ms.GramMatrix(problem.gram()), steps=200, h=5e-3, polish=True)
            assert report.certificate.status == "optimal", problem.name
        assert len(runs) == len(inputs.batch_small(0))
        steps = newton = 0
        for k, (r, u, stopped_at, newton_steps) in enumerate(runs):
            iterates = list(itertools.islice(ascent._iterates(r, u), stopped_at))
            values = np.array([_exact_success(r, v) for v, _, _ in iterates])
            bound = ascent.rounding_bound(r.shape[0]) * values[:-1]
            assert np.all(values[1:] >= values[:-1] - bound), f"corrector {k}"
            for (_, grad, before), (_, grad_next, after) in itertools.pairwise(iterates):
                assert after == before or grad_next < grad, f"corrector {k}"
            assert iterates[-1][2] == newton_steps
            steps, newton = steps + stopped_at - 1, newton + newton_steps
        assert steps > 0 and (newton > 0) == newton_on, (newton_on, steps, newton)


def test_the_iterates_go_on_past_a_gradient_norm_of_exactly_zero():
    # at a diagonal R, U = I is stationary with a gradient norm of exactly 0;
    # the step after it forms no rate from that norm (under the suite's
    # error::RuntimeWarning, 0 / 0 would raise)
    r = ms.GramMatrix(np.diag([0.5, 0.3, 0.2])).scaled_states.real
    iterates = list(itertools.islice(ascent._iterates(r, np.eye(3)), 4))
    assert [grad for _, grad, _ in iterates] == [0.0] * 4
    for u, _, _ in iterates:
        np.testing.assert_allclose(u, np.eye(3), atol=1e-15)


def _expm_skew(xi):
    """exp(Xi) of a skew-hermitian Xi, from the eigenvectors of the hermitian i Xi."""
    lam, v = np.linalg.eigh(1j * xi)
    return (v * np.exp(-1j * lam)) @ v.conj().T


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_newton_system_is_the_derivatives_of_p_along_the_basis(m, real):
    # central differences of P(U exp(t Xi)) at t = +-h: the first derivative
    # along Xi_k is g_k and the second along Xi_k +- Xi_l is H(Xi_k +- Xi_l, same),
    # whose difference is 4 H_kl; truncation h^2 and rounding eps / h^2 both
    # stay near 1e-8 at h = 1e-4
    (i, j), *_ = ascent._directions(m, not real)
    basis = []
    for a, b in zip(i, j):
        for z in ((1.0,) if real else (1.0, 1j)):
            xi = np.zeros((m, m), complex)
            xi[a, b], xi[b, a] = z, -np.conj(z)
            basis.append(xi)
    h = 1e-4
    for r, u, _ in itertools.islice(_measurements(m, real), 3):
        def p(xi):
            return float(ascent.success(r, u @ _expm_skew(xi)))

        def second(xi):
            return (p(h * xi) - 2.0 * p(0.0 * xi) + p(-h * xi)) / h**2

        g, curv = ascent._newton_system(r, u)
        assert g.shape == (len(basis),) and curv.shape == (len(basis), len(basis))
        assert np.array_equal(curv, curv.T)
        want = [(p(h * xi) - p(-h * xi)) / (2.0 * h) for xi in basis]
        assert np.max(np.abs(g - want)) <= 1e-7
        hess = [[(second(x + y) - second(x - y)) / 4.0 for y in basis] for x in basis]
        assert np.max(np.abs(-curv - np.array(hess))) <= 1e-6


def _finishes(monkeypatch):
    """Record (iteration stopped at, Newton steps) of every finish from now on,
    the corrector's and the search's."""
    runs = []

    def finish(r, u):
        out = real_finish(r, u)
        runs.append(out[1:3])
        return out

    real_finish = ascent.finish
    monkeypatch.setattr(ascent, "finish", finish)
    monkeypatch.setattr(oracle, "finish", finish)
    return runs


def test_a_corrector_one_step_from_rounding_takes_no_newton_step(monkeypatch):
    # the sweep-large inputs at m = 10, 12 and 16 and well-separated ensembles
    # at m = 8 and 12: one or two fixed-point steps from the drag's raw end
    # reach the gradient's rounding, where one Newton step costs 3 to 17 of them
    runs = _finishes(monkeypatch)
    grams = [ms.GramMatrix(p.gram()) for p in inputs.sweep_large(0)]
    grams += [ms.raw_gram(ms.random_ensemble(m, 190 + m, 0.3)) for m in (8, 12)]
    for gram in grams:
        report = solve_direct(gram, steps=200, h=5e-3, polish=True)
        assert report.certificate.status == "optimal"
    assert len(runs) == len(grams) and all(n == 0 and it <= 3 for it, n in runs), runs


def test_a_searchs_finish_takes_a_newton_step_after_one_fixed_point_step(monkeypatch):
    # at m = 3 the fixed-point step alone takes the search's Haar-random start
    # to rounding in 6 to 16 iterations; after the first step the rest would
    # cost more than a Newton step, and each finish then takes Newton steps
    # only, 2 to 4 of them
    runs = _finishes(monkeypatch)
    grams = [ms.GramMatrix(p.gram()) for p in inputs.verify_m3(0)]
    for gram in grams:
        ms.search_optimum(gram, seed=0)
    with_newton = list(runs)
    monkeypatch.setattr(ascent, "_newton_step", lambda r, u: None)
    runs.clear()
    for gram in grams:
        ms.search_optimum(gram, seed=0)
    # iterations count the start: it - 1 steps, n of them Newton steps
    assert all(it - 1 - n == 1 and n >= 2 for it, n in with_newton), with_newton
    assert all(a[0] <= b[0] for a, b in zip(with_newton, runs)), (with_newton, runs)
    assert sum(it for it, _ in runs) >= sum(it for it, _ in with_newton) + 2 * len(grams)


def test_a_search_whose_cholesky_always_fails_finishes_by_fixed_point_steps(monkeypatch):
    # a NaN factor declines every Newton attempt; the fixed-point steps alone
    # reach the same optimum, to rounding, in more iterations
    gram = random_gram(3, seed=7)
    want = ms.search_optimum(gram, seed=0)
    calls = lapack_nan_from_call(monkeypatch, 1, "cholesky_lo")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ms.search_optimum(gram, seed=0)
    assert (want.convergence.iterations, got.convergence.iterations, len(calls)) == (5, 11, 8)
    assert abs(got.p_success - want.p_success) <= 2 * _EPS
    assert ms.certify_povm(gram, got.povm).status == "optimal"


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_a_real_start_against_a_complex_r_ascends_in_complex_arithmetic(m):
    # the pretty-good measurement's start: U = I in the G^{1/2} realization
    gram = random_gram(m, seed=600 + m, spread=0.6)
    r = gram.scaled_states
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, _, _, _ = ascent.finish(r, np.eye(m))
    assert v.dtype == np.complex128
    assert np.abs(v.imag).max() > 1e-3
    assert ms.certify_povm(gram, ms.Povm(v)).status == "optimal"
