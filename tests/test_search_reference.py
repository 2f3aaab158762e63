"""The one-start direct search against a plain copy of the sequential restart loop.

``_reference_restarts`` runs twenty restarts one after another, each its own
fixed-point loop U <- polar(R^dag diag(w)).  The search runs
``ascent.finish`` from the first of those starts only, one (2, m, m) draw
from the same seed: every stationary point but the global optimum is a
saddle, so the one start must reach the best restart's value, up to
roundoff.  A real Gram matrix is
searched over the orthogonal group from a real start; the complex restarts
from the same seed must reach the same value.
"""

import itertools

import numpy as np
import pytest

import medsolve as ms
from conftest import probe_grams, random_gram, seeded_grams
from medsolve import ascent
from medsolve.ascent import finish, success
from medsolve.linalg import polar_unitary, unitarity_residual

_EPS = np.finfo(float).eps
#: restarts of the reference, as many as the search ran before one start sufficed
_RESTARTS = 20


def _gradient(r, u):
    """(gen, U gen, R^dag diag(w)): the Riemannian gradient at U, gen skew-hermitian."""
    b = r.conj().T @ np.diag(np.diagonal(r @ u))
    lam = u.conj().T @ b
    gen = 0.5 * (lam - lam.conj().T)
    return gen, u @ gen, b


def _reference_restarts(r, rng, restarts, gtol):
    """Per restart, with the budget ascent.MAX_ITER: (final unitary, iterations,
    gradient norm there, final value)."""
    m = r.shape[0]

    def value(u):
        return float(np.sum(np.abs(np.diagonal(r @ u)) ** 2))

    lanes = []
    for _ in range(restarts):
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        u = polar_unitary(z)
        iters = 0
        for iters in range(1, ascent.MAX_ITER + 1):
            _, rgrad, b = _gradient(r, u)
            grad_norm = float(np.linalg.norm(rgrad))
            if grad_norm < gtol:
                break
            u = polar_unitary(b)
        else:
            # the budget is spent: report the gradient at the last iterate
            grad_norm = float(np.linalg.norm(_gradient(r, u)[1]))
        lanes.append((u, iters, grad_norm, value(u)))
    return lanes


def _best_restart(gram, seed, gtol=1e-7):
    reference = _reference_restarts(gram.scaled_states, np.random.default_rng(seed),
                                    _RESTARTS, gtol)
    return max(lane[3] for lane in reference)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("real", [False, True])
def test_lanes_match_sequential_restarts(m, real):
    # not only the best of the twenty restarts: every one of them reaches the
    # one start's value, so the other nineteen guard against nothing
    for k, gram in enumerate(seeded_grams(m, 2, base_seed=3000 + 10 * m, real=real)):
        p_success = ms.search_optimum(gram, seed=k).p_success
        reference = _reference_restarts(gram.scaled_states, np.random.default_rng(k),
                                        _RESTARTS, 1e-7)
        for lane, (_, _, _, value) in enumerate(reference):
            assert abs(value - p_success) <= 1e-12, f"lane {lane}"


def test_one_start_reaches_the_best_restart_on_near_dependent_draws():
    # the fixed-point step crawls where P is weakly curved (up to 113 steps
    # per restart here), but the restarts' value at a gradient norm of 1e-7
    # is still within 3e-13 of the optimum
    grams = probe_grams(2026, 16, m_high=4)
    assert {g.m for g in grams} == {2, 3, 4}
    assert {bool(g.entries.imag.any()) for g in grams} == {False, True}
    for k, gram in enumerate(grams):
        assert abs(ms.search_optimum(gram, seed=k).p_success - _best_restart(gram, k)) <= 1e-12


def _start(gram, seed):
    """(R, start) of the search: the polar factor of the seeded (2, m, m) draw,
    which is the first restart's, its real part and R's for a real G."""
    m, r = gram.m, gram.scaled_states
    z = np.random.default_rng(seed).normal(size=(2, m, m))
    if gram.entries.imag.any():
        return r, polar_unitary(z[0] + 1j * z[1])
    return r.real.copy(), polar_unitary(z[0])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_lanes_cut_off_by_the_iteration_budget_match(m, monkeypatch):
    # the finish's first step is the fixed-point step, so a search cut off
    # after one step (with no ceiling on the norm it returns instead of
    # raising) matches the first sequential restart cut off at that budget
    monkeypatch.setattr(ascent, "MAX_ITER", 1)
    monkeypatch.setattr(ascent, "_GTOL", np.inf)
    gram = seeded_grams(m, 1, base_seed=3100 + 10 * m)[0]
    r = gram.scaled_states
    [(u_ref, it_ref, grad_ref, val_ref)] = _reference_restarts(r, np.random.default_rng(7), 1, 1e-7)
    assert it_ref == 1 and grad_ref > 1e-7
    found = ms.search_optimum(gram, seed=7)
    assert found.convergence.iterations == it_ref
    assert np.max(np.abs(found.povm.vectors - u_ref)) <= 1e-10
    assert abs(found.p_success - val_ref) <= 1e-12
    assert found.convergence.grad_norm == pytest.approx(grad_ref, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("max_iter", [2, 500])
def test_gradient_norm_is_taken_at_the_returned_unitary(m, max_iter, monkeypatch):
    # a finish cut off by the budget stops after its last step, and its norm
    # must describe that unitary, not the one before the step; with no
    # ceiling on the norm the cut-off finish returns instead of raising.
    # Near a maximum the norm is a difference of O(1) terms: each of its m^2
    # entries carries a rounding error of about m eps ||R||^2 <= m eps
    # (Tr G = 1), which sets the absolute floor
    monkeypatch.setattr(ascent, "MAX_ITER", max_iter)
    monkeypatch.setattr(ascent, "_GTOL", np.inf if max_iter == 2 else ascent._GTOL)
    cut = 0
    for k, gram in enumerate((random_gram(m, seed=3131),
                              *seeded_grams(m, 2, base_seed=3300 + 10 * m))):
        r, u0 = _start(gram, seed=7 + k)
        u, stopped_at, _, grad_norm = finish(r, u0)
        cut += stopped_at == 2 and grad_norm > 1e-7
        recomputed = float(np.linalg.norm(_gradient(r, u)[1]))
        assert grad_norm == pytest.approx(recomputed, rel=1e-12, abs=m**2 * _EPS), f"gram {k}"
    assert cut > 0 if max_iter == 2 else cut == 0


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("real", [False, True])
def test_composed_iterates_stay_unitary(m, real):
    # each step takes the polar factor afresh, so rounding cannot build up
    # over the iterations: MAX_ITER iterates of the finish from the search's
    # start, far past the optimum, fixed-point and Newton steps alike (up to a
    # gradient norm of exactly 0, past which the step's rate is undefined:
    # at m = 2 in real arithmetic one fixed-point step reaches it here)
    for k, gram in enumerate(seeded_grams(m, 2, base_seed=3400 + 10 * m, real=real)):
        r, u0 = _start(gram, seed=m)
        iterates = list(itertools.takewhile(
            lambda it: it[1] > 0.0, itertools.islice(ascent._iterates(r, u0), ascent.MAX_ITER)))
        assert iterates[-1][2] > 0 or (m, real) == (2, True)
        for u, _, _ in iterates:
            assert unitarity_residual(u) <= 1e-13
        assert unitarity_residual(ms.search_optimum(gram, seed=m).povm.vectors) <= 1e-13


@pytest.mark.parametrize("m", [2, 3, 4])
def test_a_real_search_reaches_the_complex_ascents_optimum(m):
    # conjugation maps an optimum of a real G to an optimum, and the optimum
    # is unique up to column phases, so the real search loses nothing.  The
    # search finishes down to the gradient's rounding, so its measurement
    # certifies at the default tolerances
    for k, gram in enumerate(seeded_grams(m, 3, base_seed=3700 + 10 * m, real=True)):
        assert not gram.entries.imag.any()
        found = ms.search_optimum(gram, seed=k)
        assert not found.povm.vectors.imag.any()
        assert abs(found.p_success - _best_restart(gram, k)) <= 1e-12
        assert ms.certify_povm(gram, found.povm).status == "optimal"


def _assert_search_is_the_finish(gram, seed):
    found = ms.search_optimum(gram, seed=seed)
    r, u0 = _start(gram, seed)
    u, stopped_at, _, grad_norm = finish(r, u0)
    assert found.p_success.hex() == float(success(r, u)).hex()
    assert found.povm.vectors.tobytes() == u.astype(complex).tobytes()
    assert found.convergence.iterations == stopped_at
    assert found.convergence.grad_norm.hex() == grad_norm.hex()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_a_complex_search_is_the_complex_ascent_bitwise(m):
    # the finish from the first restart's start
    for k, gram in enumerate(seeded_grams(m, 2, base_seed=3800 + 10 * m)):
        assert gram.entries.imag.any()
        _assert_search_is_the_finish(gram, k)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_a_real_search_is_the_real_ascent_bitwise(m):
    # the finish over O(m) from the real part of the first restart's start
    for k, gram in enumerate(seeded_grams(m, 2, base_seed=3800 + 10 * m, real=True)):
        assert not gram.entries.imag.any()
        _assert_search_is_the_finish(gram, k)
