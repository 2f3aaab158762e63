"""The RK4 drag against a plain reference implementation, and its guards.

``_reference_drag`` is the straightforward form of the step: every stage
decomposes F itself, the Schur system and its right-hand side are reduced
separately, and the step check runs its own ``eigvalsh``.  The solver shares
one eigendecomposition per step and contracts the Schur system and its
right-hand side from one tensor instead, which reorders roundoff only; the
tolerances below were fixed before that rewrite.
"""

import numpy as np
import pytest

import medsolve as ms
from conftest import identity_gram, seeded_grams
from medsolve.homotopy import COND_MAX, EPS_A, _integrate


def _reference_factor(a, f, iu, ju):
    m = a.shape[0]
    out = np.zeros((m, m), dtype=complex)
    out.flat[:: m + 1] = a * a
    out[iu, ju] = f
    out[ju, iu] = f.conj()
    return out


def _reference_tangent_solve(a, fmat, g, rhs, t):
    m = a.shape[0]
    lam, v = np.linalg.eigh(fmat)
    vh = v.conj().T
    s = lam[:, None] + lam[None, :]
    s_abs = np.abs(s)
    s_min, s_max = s_abs.min(), s_abs.max()
    if not s_max <= COND_MAX * s_min:
        raise ms.SingularJacobian(f"Lyapunov spectrum ratio at t={t:.6f}")
    w = 1.0 / s
    p = (g * a) @ v
    q = ((vh.T[:, None, :] * w).reshape(m * m, m) @ p.T).reshape(m, m, m)
    schur = -2.0 * np.sum(v[:, :, None] * q * vh, axis=1).real
    schur.flat[:: m + 1] += 2.0 * a
    rhs_w = (vh @ rhs @ v) * w
    b = np.sum((v @ rhs_w) * v.conj(), axis=1).real
    schur_inv = np.linalg.inv(schur)
    cond = np.abs(schur).sum(axis=0).max() * np.abs(schur_inv).sum(axis=0).max()
    if not cond <= COND_MAX:
        raise ms.SingularJacobian(f"Schur system condition number at t={t:.6f}")
    da = schur_inv @ b
    x = (vh * da) @ p
    return da, v @ (rhs_w + (x + x.conj().T) * w) @ vh


def _reference_drag(trajectory, steps, h, polish, polish_every=10):
    m = trajectory.m
    iu, ju = np.triu_indices(m, 1)
    state = ms.initial_state(m)
    a, f = state.a.copy(), state.f.copy()
    gdot = trajectory.tangent()

    def rate(a, f, g, t):
        da, dfmat = _reference_tangent_solve(
            a, _reference_factor(a, f, iu, ju), g, a[:, None] * gdot * a, t
        )
        return da, dfmat[iu, ju]

    trace = np.empty((steps, 5))
    t = 0.0
    for it in range(1, steps + 1):
        k1 = rate(a, f, trajectory(t), t)
        k2 = rate(a + 0.5 * h * k1[0], f + 0.5 * h * k1[1], trajectory(t + 0.5 * h), t)
        k3 = rate(a + 0.5 * h * k2[0], f + 0.5 * h * k2[1], trajectory(t + 0.5 * h), t)
        k4 = rate(a + h * k3[0], f + h * k3[1], trajectory(t + h), t)
        a = a + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        f = f + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t = it * h
        g = trajectory(t)
        if polish and it % polish_every == 0:
            fmat = _reference_factor(a, f, iu, ju)
            da, dfmat = _reference_tangent_solve(a, fmat, g, a[:, None] * g * a - fmat @ fmat, t)
            a, f = a + da, f + dfmat[iu, ju]
        fmat = _reference_factor(a, f, iu, ju)
        d = np.diag(a)
        trace[it - 1] = (it, t, np.linalg.norm(fmat @ fmat - d @ g @ d),
                         np.linalg.eigvalsh(fmat)[0], np.sum(a**2))
    return a, f, trace


@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("polish", [False, True])
def test_drag_matches_reference(m, real, polish):
    gram = seeded_grams(m, 1, base_seed=2000 + 10 * m, real=real)[0]
    trajectory = ms.Trajectory(identity_gram(m), gram)
    a, f, trace = _reference_drag(trajectory, steps=200, h=5e-3, polish=polish)
    report = ms.rk4_drag(trajectory, steps=200, h=5e-3, polish=polish)
    assert np.max(np.abs(report.final_state.a - a)) <= 1e-12
    assert np.max(np.abs(report.final_state.f - f)) <= 1e-12
    assert abs(np.sum(report.final_state.a**2) - np.sum(a**2)) <= 1e-13
    assert np.array_equal(report.trace[:, :2], trace[:, :2])
    assert np.max(np.abs(report.trace[:, 2] - trace[:, 2])) <= 1e-14
    assert np.max(np.abs(report.trace[:, 3:] - trace[:, 3:])) <= 1e-13


def _drag_unchecked(entries, start):
    """Ten RK4 steps from ``start`` along the constant path at ``entries``.

    None of the starts below solves its path, so ``rk4_drag`` would reject
    them before the first step; the guards are those of the loop itself."""
    g = ms.GramMatrix(np.asarray(entries, dtype=complex))
    return _integrate(ms.Trajectory(g, g), start.a, start.f, steps=10, h=0.1, polish=False)


class TestGuards:
    def test_singular_factor_stops_the_drag(self):
        # |f12|^2 = a1^2 a2^2: F is singular and lam_i + lam_j reaches zero
        start = ms.SolverState(t=0.0, a=[0.8, 0.5], f=[0.4])
        with pytest.raises(ms.SingularJacobian, match=r"Lyapunov spectrum ratio.*t=0\.000000"):
            _drag_unchecked(np.eye(2) / 2, start)

    @pytest.mark.parametrize("a0", [0.5, 0.5 + 1e-14])
    def test_singular_schur_system_stops_the_drag(self, a0):
        # F = diag(a^2) at G = I/2 gives the Schur matrix diag(2 a_n - G_nn / a_n),
        # which vanishes (a0 = 0.5) or nearly vanishes in its first entry
        start = ms.SolverState(t=0.0, a=[a0, 0.8], f=[0.0])
        with pytest.raises(ms.SingularJacobian,
                           match=r"Schur system condition number .* at t=0\.000000"):
            _drag_unchecked(np.eye(2) / 2, start)

    def test_indefinite_factor_loses_positivity_after_the_first_step(self):
        start = ms.SolverState(t=0.0, a=[0.8, 0.5], f=[0.6])  # det F < 0
        with pytest.raises(ms.PositivityLost, match=r"t=0\.100000 \(min eig -"):
            _drag_unchecked(np.eye(2) / 2, start)

    def test_vanishing_scale_is_near_linear_dependence(self):
        # a constant path leaves a_0 = 9e-7 below EPS_A after the first step
        start = ms.SolverState(t=0.0, a=[9e-7, 0.5], f=[0.0])
        assert start.a[0] <= EPS_A
        with pytest.raises(ms.NearLinearDependence,
                           match=r"a_0 fell to 9\.000e-07 at t=0\.100000"):
            _drag_unchecked(np.diag([0.7, 0.3]), start)

