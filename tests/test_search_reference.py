"""The stacked direct search against a plain copy of the sequential restart loop.

``_reference_restarts`` runs the restarts one after another, each with its
own scalar Barzilai-Borwein step and backtracking loop.  ``oracle._ascend``
advances all restarts together as one stack; every lane must follow the same
iterates, so only roundoff may differ.
"""

import numpy as np
import pytest

import medsolve as ms
from conftest import seeded_grams
from medsolve.linalg import polar_unitary
from medsolve.oracle import _ascend


def _reference_restarts(r, rng, restarts, max_iter, gtol):
    """Per restart: (final unitary, iterations, last gradient norm, final value)."""
    m = r.shape[0]

    def value(u):
        return float(np.sum(np.abs(np.diagonal(r @ u)) ** 2))

    lanes = []
    for _ in range(restarts):
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        u = polar_unitary(z)
        step = 1.0
        grad_norm = np.inf
        iters = 0
        prev_u = prev_grad = None
        for iters in range(1, max_iter + 1):
            w = np.diagonal(r @ u)
            egrad = r.conj().T @ np.diag(w)
            lam = u.conj().T @ egrad
            rgrad = u @ (0.5 * (lam - lam.conj().T))
            grad_norm = float(np.linalg.norm(rgrad))
            if grad_norm < gtol:
                break
            if prev_grad is not None:
                s_vec = (u - prev_u).ravel()
                y_vec = (rgrad - prev_grad).ravel()
                denom = np.vdot(s_vec, y_vec).real
                if abs(denom) > 1e-300:
                    step = abs(np.vdot(s_vec, s_vec).real / denom)
                step = float(min(max(step, 1e-3), 1e8))
            current = value(u)
            trial_step = step
            for _ in range(60):
                candidate = polar_unitary(u + trial_step * rgrad)
                if value(candidate) > current + 1e-15:
                    break
                trial_step *= 0.5
            else:
                break
            prev_u, prev_grad = u, rgrad
            u = candidate
        lanes.append((u, iters, grad_norm, value(u)))
    return lanes


def _stacked_lanes(r, seed, restarts, max_iter, gtol):
    m = r.shape[0]
    z = np.random.default_rng(seed).normal(size=(restarts, 2, m, m))
    return _ascend(r, polar_unitary(z[:, 0] + 1j * z[:, 1]), max_iter, gtol)


def _assert_lanes_match(gram, seed, restarts, max_iter, gtol=1e-7):
    r = gram.sqrt()
    reference = _reference_restarts(r, np.random.default_rng(seed), restarts, max_iter, gtol)
    u, iterations, grad_norm = _stacked_lanes(r, seed, restarts, max_iter, gtol)
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
        reference = _assert_lanes_match(gram, seed=k, restarts=20, max_iter=500)
        best = max(lane[3] for lane in reference)
        assert abs(ms.search_optimum(gram, seed=k).p_success - best) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_lanes_cut_off_by_the_iteration_budget_match(m):
    gram = seeded_grams(m, 1, base_seed=3100 + 10 * m)[0]
    reference = _assert_lanes_match(gram, seed=7, restarts=20, max_iter=3)
    assert any(it == 3 and grad > 1e-7 for _, it, grad, _ in reference)


def test_stalled_lane_stops_where_it_is():
    # at a maximum the gradient is zero to roundoff; a tolerance of zero
    # leaves only the exhausted backtracking to stop the lane
    gram = seeded_grams(3, 1, base_seed=3200)[0]
    r = gram.sqrt()
    u_opt, _, _ = _stacked_lanes(r, seed=1, restarts=4, max_iter=500, gtol=1e-7)
    u, iterations, _ = _ascend(r, u_opt, max_iter=50, gtol=0.0)
    assert np.all(iterations < 50)
    assert np.max(np.abs(u - u_opt)) <= 1e-6
