"""The stacked direct search against a plain copy of the sequential restart loop.

``_reference_restarts`` runs the restarts one after another, each its own
fixed-point loop U <- polar(R^dag diag(w)).  ``ascent.ascend`` advances all
restarts together as one stack; every lane must follow the same iterates, so
only roundoff may differ.  A real Gram matrix is searched over the
orthogonal group from real starts; the complex ascent from the same seed's
complex starts must reach the same value.
"""

import numpy as np
import pytest

import medsolve as ms
from conftest import random_gram, seeded_grams
from medsolve import ascent
from medsolve.ascent import ascend, finish, success
from medsolve.linalg import polar_unitary, unitarity_residual

_EPS = np.finfo(float).eps


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


def _stacked_lanes(r, seed, restarts, gtol):
    m = r.shape[0]
    z = np.random.default_rng(seed).normal(size=(restarts, 2, m, m))
    return ascend(r, polar_unitary(z[:, 0] + 1j * z[:, 1]), gtol)


def _assert_lanes_match(gram, seed, restarts, gtol=1e-7):
    r = gram.scaled_states
    reference = _reference_restarts(r, np.random.default_rng(seed), restarts, gtol)
    u, iterations, grad_norm = _stacked_lanes(r, seed, restarts, gtol)
    for k, (u_ref, it_ref, grad_ref, val_ref) in enumerate(reference):
        assert iterations[k] == it_ref, f"lane {k}"
        assert np.max(np.abs(u[k] - u_ref)) <= 1e-10, f"lane {k}"
        assert abs(float(np.sum(np.abs(np.diagonal(r @ u[k])) ** 2)) - val_ref) <= 1e-12
        assert grad_norm[k] == pytest.approx(grad_ref, rel=1e-6, abs=1e-12)
    return reference


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("real", [False, True])
def test_lanes_match_sequential_restarts(m, real):
    for k, gram in enumerate(seeded_grams(m, 2, base_seed=3000 + 10 * m, real=real)):
        reference = _assert_lanes_match(gram, seed=k, restarts=20)
        best = max(lane[3] for lane in reference)
        assert abs(ms.search_optimum(gram, seed=k).p_success - best) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_lanes_cut_off_by_the_iteration_budget_match(m, monkeypatch):
    monkeypatch.setattr(ascent, "MAX_ITER", 3)
    gram = seeded_grams(m, 1, base_seed=3100 + 10 * m)[0]
    reference = _assert_lanes_match(gram, seed=7, restarts=20)
    assert any(it == 3 and grad > 1e-7 for _, it, grad, _ in reference)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("max_iter", [2, 500])
def test_gradient_norm_is_taken_at_the_returned_unitary(m, max_iter, monkeypatch):
    # a lane cut off by the budget stops after its last step, and its norm
    # must describe that unitary, not the one before the step (at m = 2
    # every lane of one of these inputs converges within 3 steps).  Near a
    # maximum the norm is a difference of O(1) terms: each of its m^2
    # entries carries a rounding error of about m eps ||R||^2 <= m eps
    # (Tr G = 1), which sets the absolute floor
    monkeypatch.setattr(ascent, "MAX_ITER", max_iter)
    for gram in (random_gram(m, seed=3131), *seeded_grams(m, 2, base_seed=3300 + 10 * m)):
        r = gram.scaled_states
        u, iterations, grad_norm = _stacked_lanes(r, seed=7, restarts=20, gtol=1e-7)
        if max_iter == 2:
            assert np.any((iterations == 2) & (grad_norm > 1e-7))
        for k in range(u.shape[0]):
            recomputed = float(np.linalg.norm(_gradient(r, u[k])[1]))
            assert grad_norm[k] == pytest.approx(recomputed, rel=1e-12, abs=m**2 * _EPS), f"lane {k}"


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("real", [False, True])
def test_composed_iterates_stay_unitary(m, real, monkeypatch):
    # each step takes the polar factor afresh, so rounding cannot build up
    # over the iterations; a run from the optimum with gtol = 0, and no stop
    # where the norm stops falling, takes every step of its budget
    monkeypatch.setattr(ascent, "_GTOL", 0.0)
    for gram in seeded_grams(m, 2, base_seed=3400 + 10 * m, real=real):
        r = gram.scaled_states
        u, _, _ = _stacked_lanes(r, seed=m, restarts=20, gtol=1e-7)
        stalled, iterations, _ = ascend(r, u, gtol=0.0)
        assert np.all(iterations == ascent.MAX_ITER)
        for lane in (*u, *stalled):
            assert unitarity_residual(lane) <= 1e-13


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("real", [False, True])
def test_a_lane_does_not_depend_on_its_stack(m, real):
    # a step runs on the lanes still searching, so each lane must take bit
    # for bit the same iterates alone as beside any other lanes
    for k, gram in enumerate(seeded_grams(m, 2, base_seed=3600 + 10 * m, real=real)):
        r = gram.scaled_states
        z = np.random.default_rng(k).normal(size=(20, 2, m, m))
        u0 = polar_unitary(z[:, 0] + 1j * z[:, 1])
        u, iterations, grad_norm = ascend(r, u0, gtol=1e-7)
        for lane in range(u0.shape[0]):
            u1, iterations1, grad_norm1 = ascend(r, u0[lane:lane + 1], gtol=1e-7)
            assert iterations1[0] == iterations[lane], f"lane {lane}"
            assert u1[0].tobytes() == u[lane].tobytes(), f"lane {lane}"
            assert grad_norm1[0].tobytes() == grad_norm[lane].tobytes(), f"lane {lane}"


@pytest.mark.parametrize("m", [2, 3, 4])
def test_a_real_search_reaches_the_complex_ascents_optimum(m):
    # conjugation maps an optimum of a real G to an optimum, and the optimum
    # is unique up to column phases, so the real search loses nothing.  The
    # search finishes its best lane down to the gradient's rounding, so its
    # measurement certifies at the default tolerances
    for k, gram in enumerate(seeded_grams(m, 3, base_seed=3700 + 10 * m, real=True)):
        assert not gram.entries.imag.any()
        found = ms.search_optimum(gram, seed=k)
        assert not found.povm.vectors.imag.any()
        r = gram.scaled_states
        u, _, _ = _stacked_lanes(r, seed=k, restarts=20, gtol=1e-7)
        assert abs(found.p_success - float(np.max(success(r, u)))) <= 1e-12
        assert ms.certify_povm(gram, found.povm).status == "optimal"


@pytest.mark.parametrize("m", [2, 3, 4])
def test_a_complex_search_is_the_complex_ascent_bitwise(m):
    # the best restart lane, then the corrector on it
    for k, gram in enumerate(seeded_grams(m, 2, base_seed=3800 + 10 * m)):
        assert gram.entries.imag.any()
        found = ms.search_optimum(gram, seed=k)
        r = gram.scaled_states
        u, iterations, _ = _stacked_lanes(r, seed=k, restarts=20, gtol=1e-7)
        best = int(np.argmax(success(r, u)))
        u_best, stopped_at, _, grad_norm = finish(r, u[best])
        assert found.p_success.hex() == float(success(r, u_best)).hex()
        assert found.povm.vectors.tobytes() == u_best.tobytes()
        assert found.convergence.iterations == iterations[best] + stopped_at - 1
        assert found.convergence.grad_norm.hex() == grad_norm.hex()
