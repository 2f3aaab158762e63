"""Continuation solver: tangent system, RK4 drag, chaining."""

import numpy as np
import pytest

import medsolve as ms
from medsolve import homotopy
from conftest import identity_gram, overlap_gram_m3, random_gram, solve_direct
from medsolve.certify import RESIDUAL_GATE
from medsolve.homotopy import _factor, _newton_correction, _rate, _triu


class TestInitialState:
    def test_two_states(self):
        state = ms.initial_state(2)
        assert np.allclose(state.a, 1 / np.sqrt(2), atol=1e-15)
        assert np.max(np.abs(state.matrix - np.eye(2) / 2)) < 1e-15

    def test_total_success_is_one(self):
        assert np.sum(ms.initial_state(5).a**2) == pytest.approx(1.0, abs=1e-14)

    def test_residual_is_zero(self):
        state = ms.initial_state(4)
        assert state.residual(identity_gram(4)) == 0.0


    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_state(self, value):
        with pytest.raises(ValueError, match="finite"):
            ms.SolverState(t=0.0, a=[0.5, 0.5], f=[value])


class TestDerivative:
    def test_zero_for_constant_trajectory(self):
        g = random_gram(3, seed=90)
        traj = ms.Trajectory(g, g)
        state = solve_direct(g).final_state
        da, df = ms.derivative(ms.SolverState(t=0.0, a=state.a, f=state.f), traj)
        assert np.max(np.abs(da)) < 1e-12
        assert np.max(np.abs(df)) < 1e-12

    def test_euler_step_residual_is_second_order(self):
        # along the solved direction the constraint violation after an
        # explicit Euler step scales with delta^2, not delta
        g = overlap_gram_m3(0.9)
        traj = ms.Trajectory(identity_gram(3), g)
        state = ms.initial_state(3)

        def euler_residual(delta):
            da, df = ms.derivative(state, traj)
            moved = ms.SolverState(t=delta, a=state.a + delta * da, f=state.f + delta * df)
            return moved.residual(ms.GramMatrix(traj(delta)))

        r1, r2 = euler_residual(5e-3), euler_residual(1e-2)
        assert r1 > 1e-12
        assert r2 / r1 == pytest.approx(4.0, rel=0.2)

    def test_matches_hand_coded_two_state_forms(self):
        # the assembled tangent solution must zero the four explicit
        # two-state rate equations at generic hermitian points
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.uniform(0.4, 1.1, 2)
            f12 = rng.normal() + 1j * rng.normal()
            g01 = rng.normal() + 1j * rng.normal()
            g = np.array([[rng.uniform(0.2, 0.8), g01], [np.conj(g01), rng.uniform(0.2, 0.8)]])
            gd01 = rng.normal() + 1j * rng.normal()
            gdot = np.array([[rng.normal(), gd01], [np.conj(gd01), rng.normal()]])

            iu, ju = _triu(2)
            da, df = _rate(a, np.array([f12]), g, gdot, 0.0, iu, ju)
            f21, df12, df21 = np.conj(f12), df[0], np.conj(df[0])

            zeta11 = (4 * a[0] ** 3 * da[0] + f12 * df21 + f21 * df12
                      - 2 * a[0] * g[0, 0] * da[0] - a[0] ** 2 * gdot[0, 0])
            zeta12 = ((a[0] ** 2 + a[1] ** 2) * df12
                      + (2 * a[0] * f12 - a[1] * g[0, 1]) * da[0]
                      + (2 * a[1] * f12 - a[0] * g[0, 1]) * da[1]
                      - a[0] * a[1] * gdot[0, 1])
            zeta21 = ((a[0] ** 2 + a[1] ** 2) * df21
                      + (2 * a[0] * f21 - a[1] * g[1, 0]) * da[0]
                      + (2 * a[1] * f21 - a[0] * g[1, 0]) * da[1]
                      - a[0] * a[1] * gdot[1, 0])
            zeta22 = (4 * a[1] ** 3 * da[1] + f12 * df21 + f21 * df12
                      - 2 * a[1] * g[1, 1] * da[1] - a[1] ** 2 * gdot[1, 1])
            for z in (zeta11, zeta12, zeta21, zeta22):
                assert abs(z) < 1e-12


class TestRk4Drag:
    def test_reference_error_trace(self):
        gram = ms.reference_five_state_gram()
        report = solve_direct(gram, steps=1000, h=1e-3)
        lg = np.log10(report.trace[:, 2])
        assert np.all(lg[:10] >= -17.3) and np.all(lg[:10] <= -16.3)
        assert np.all(lg[979:] >= -16.2) and np.all(lg[979:] <= -15.2)
        assert report.certificate.is_optimal

    @pytest.mark.parametrize("polish", [False, True], ids=["raw", "polish"])
    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_final_povm_is_the_certified_measurement(self, m, polish):
        gram = random_gram(m, seed=160 + m)
        report = solve_direct(gram, polish=polish)
        _, certified = ms.certify_gram(gram, report.final_state.matrix)
        assert np.array_equal(report.final_povm.vectors, certified.vectors)
        assert report.final_povm.frame == ms.FRAME_DUAL

    def test_two_state_matches_closed_form(self):
        entries = 0.5 * np.array([[1.0, 0.6], [0.6, 1.0]])
        report = solve_direct(ms.GramMatrix(entries + 0j))
        assert abs(report.certificate.p_success - 0.9) < 1e-9

    def test_constant_trajectory_is_identity(self):
        g = identity_gram(3)
        report = ms.rk4_drag(ms.Trajectory(g, g), steps=100, h=1e-2)
        state = report.final_state
        assert np.max(np.abs(state.a - 1 / np.sqrt(3))) < 1e-14
        assert np.max(np.abs(state.f)) < 1e-14
        assert report.trace[-1, 2] < 1e-15

    def test_steps_times_h_must_cover_unit_interval(self):
        g = random_gram(3, seed=91)
        with pytest.raises(ValueError):
            ms.rk4_drag(ms.Trajectory(identity_gram(3), g), steps=100, h=1e-3)
        with pytest.raises(ValueError, match="steps\\*h must equal 1"):
            ms.rk4_drag(ms.Trajectory(identity_gram(3), g), steps=100, h=float("nan"))

    def test_hermiticity_is_structural(self):
        report = solve_direct(random_gram(4, seed=92))
        f = report.final_state.matrix
        assert np.array_equal(f, f.conj().T)
        assert np.isrealobj(report.final_state.a)

    def test_residual_growth_stays_below_two_decades(self):
        gram = ms.reference_five_state_gram()
        report = solve_direct(gram, steps=1000, h=1e-3)
        lg = np.log10(report.trace[:, 2])
        assert lg[-1] - lg[0] < 2.0

    def test_factor_stays_positive_definite(self):
        report = solve_direct(random_gram(4, seed=93, spread=0.8))
        assert np.min(report.trace[:, 3]) > 0.0

    def test_success_probability_consistency(self):
        report = solve_direct(random_gram(3, seed=94))
        gram = random_gram(3, seed=94)
        realization = ms.ensemble_from_gram(gram)
        ps_povm = ms.certify_povm(realization, report.final_povm).p_success
        assert abs(np.sum(report.final_state.a**2) - ps_povm) < 1e-9

    def test_polish_tightens_hard_runs(self):
        gram = overlap_gram_m3(0.95)
        raw = solve_direct(gram, steps=250, h=4e-3)
        polished = solve_direct(gram, steps=250, h=4e-3, polish=True)
        assert polished.trace[-1, 2] < raw.trace[-1, 2] * 1e-2
        assert polished.certificate.is_optimal

    def test_trace_layout(self):
        report = solve_direct(random_gram(2, seed=95), steps=100, h=1e-2)
        assert report.trace.shape == (100, 5)
        assert report.trace[0, 0] == 1 and report.trace[-1, 0] == 100
        assert report.trace[-1, 1] == pytest.approx(1.0, abs=1e-12)


@pytest.fixture
def rate_calls(monkeypatch):
    """Counts the tangent evaluations of the drags a test runs."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _rate(*args, **kwargs)

    monkeypatch.setattr(homotopy, "_rate", counted)
    return calls


class TestDragBetween:
    """Drags between two solved matrices: ``rk4_drag`` with ``initial=``, which
    continues only a start that solves the path's first matrix."""

    def test_chained_equals_direct(self):
        g_a = random_gram(3, seed=96, spread=0.4)
        g_b = random_gram(3, seed=97, spread=0.7)
        leg1 = solve_direct(g_a)
        chained = ms.rk4_drag(ms.Trajectory(g_a, g_b), steps=500, h=2e-3,
                              initial=leg1.final_state)
        direct = solve_direct(g_b)
        assert abs(chained.certificate.p_success - direct.certificate.p_success) < 1e-8

    def test_reverse_drag_recovers_trivial_state(self):
        g = random_gram(4, seed=98)
        forward = solve_direct(g)
        back = ms.rk4_drag(ms.Trajectory(g, identity_gram(4)), steps=500, h=2e-3,
                           initial=forward.final_state)
        assert np.max(np.abs(back.final_state.a - 0.5)) < 1e-8
        assert np.max(np.abs(back.final_state.f)) < 1e-8

    def test_zero_length_segment(self):
        g = random_gram(3, seed=99)
        solved = solve_direct(g)
        again = ms.rk4_drag(ms.Trajectory(g, g), steps=100, h=1e-2, initial=solved.final_state)
        assert np.max(np.abs(again.final_state.a - solved.final_state.a)) < 1e-12

    def test_near_dependent_target_aborts_with_diagnostic(self):
        # formally admissible (min eigenvalue just above the floor) but
        # outside the method's accuracy range: the run must fail loudly,
        # not return a quietly wrong result
        gram = overlap_gram_m3(0.999999)
        assert np.linalg.eigvalsh(gram.entries)[0] > ms.EPS_LI
        with pytest.raises(ms.MedError):
            ms.rk4_drag(ms.Trajectory(identity_gram(3), gram), steps=250, h=4e-3)

    def test_uncertified_start_is_rejected(self, rate_calls):
        g_a = random_gram(3, seed=96, spread=0.4)
        g_b = random_gram(3, seed=97, spread=0.7)
        with pytest.raises(ms.NotCertified, match="not a solution at g_start"):
            ms.rk4_drag(ms.Trajectory(g_a, g_b), steps=100, h=1e-2, initial=ms.initial_state(3))
        assert rate_calls == []

    @pytest.mark.parametrize("polish", [False, True])
    def test_default_start_serves_only_paths_from_identity(self, rate_calls, polish):
        # the default start solves I/4, not g_a; unchecked, the plain drag ends
        # in PositivityLost at t = 0.615 and the polished one certifies by luck
        g_a = ms.raw_gram(ms.random_ensemble(4, 1, 0.5))
        g_b = ms.raw_gram(ms.random_ensemble(4, 2, 0.5))
        with pytest.raises(ms.NotCertified, match="not a solution at g_start"):
            ms.rk4_drag(ms.Trajectory(g_a, g_b), polish=polish)
        assert rate_calls == []

    def test_start_of_another_dimension_is_rejected(self, rate_calls):
        with pytest.raises(ms.NotCertified, match="dimension 3, g_start has 4"):
            ms.rk4_drag(ms.Trajectory(identity_gram(4), identity_gram(4)), steps=100, h=1e-2,
                        initial=ms.initial_state(3))
        assert rate_calls == []

    @pytest.mark.parametrize("ratio", [0.99, 1.01])
    def test_start_residual_is_gated_at_residual_gate(self, ratio):
        # the exact state at I/4 (a = 1/2, F = I/4) offered at I/4 + delta
        # diag(1, -1, 0, 0), where its residual is delta * sqrt(2) / 4
        delta = ratio * RESIDUAL_GATE * 4.0 / np.sqrt(2.0)
        g_from = ms.GramMatrix(np.eye(4) / 4 + delta * np.diag([1.0, -1.0, 0.0, 0.0]))
        start = ms.initial_state(4)
        assert start.residual(g_from) == pytest.approx(ratio * RESIDUAL_GATE, rel=1e-6)
        trajectory = ms.Trajectory(g_from, random_gram(4, seed=100, spread=0.3))
        for initial in (start, None):
            if ratio > 1.0:
                with pytest.raises(ms.NotCertified, match="gate 1.0e-08"):
                    ms.rk4_drag(trajectory, steps=100, h=1e-2, initial=initial)
            else:
                # accepted: the drag runs (its start error is carried, not certified)
                report = ms.rk4_drag(trajectory, steps=100, h=1e-2, initial=initial)
                assert report.trace.shape == (100, 5)


def _random_point(rng, m, real, indefinite):
    """Random a > 0, strict upper triangle f, Gram-like g and hermitian gdot,
    redrawn until F is definite or indefinite as asked and its Lyapunov
    spectrum |l_i + l_j| stays clear of zero."""
    iu, ju = _triu(m)
    cplx = 0.0 if real else 1.0
    f_scale = 0.8 if indefinite else 0.05
    while True:
        z = rng.normal(size=(m, m)) + cplx * 1j * rng.normal(size=(m, m))
        g = z @ z.conj().T
        g = g / np.trace(g).real
        gd = rng.normal(size=(m, m)) + cplx * 1j * rng.normal(size=(m, m))
        gd = gd + gd.conj().T
        a = rng.uniform(0.3, 1.0, m)
        f = f_scale * (rng.normal(size=iu.size) + cplx * 1j * rng.normal(size=iu.size))
        lam = np.linalg.eigvalsh(_factor(a, f, iu, ju))
        if (lam[0] < 0.0) == indefinite and np.min(np.abs(lam[:, None] + lam[None, :])) > 0.05:
            return a, f, g.astype(complex), gd.astype(complex)


class TestTangentSolve:
    @pytest.mark.parametrize("m", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("indefinite", [False, True])
    def test_satisfies_hermitian_equation(self, m, real, indefinite):
        rng = np.random.default_rng(100 * m + 10 * real + indefinite)
        a, f, g, gdot = _random_point(rng, m, real, indefinite)
        iu, ju = _triu(m)
        da, df = _rate(a, f, g, gdot, 0.0, iu, ju)
        fmat = _factor(a, f, iu, ju)
        dfmat = _factor(np.ones(m), df, iu, ju)
        dfmat[np.diag_indices(m)] = 2.0 * a * da
        d, dd = np.diag(a), np.diag(da)
        lhs = dfmat @ fmat + fmat @ dfmat - dd @ g @ d - d @ g @ dd
        rhs = d @ gdot @ d
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
        if real:
            assert np.max(np.abs(df.imag)) < 1e-14

    def test_singular_factor_raises_with_t(self):
        a = np.array([0.8, 0.5])
        f = np.array([0.8 * 0.5 * np.exp(0.3j)])  # |f12|^2 = a1^2 a2^2: det F = 0
        g = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        gdot = np.array([[0.1, 0.2], [0.2, -0.1]], dtype=complex)
        with pytest.raises(ms.SingularJacobian, match=r"t=0\.250000"):
            _rate(a, f, g, gdot, 0.25, *_triu(2))

    def test_newton_correction_reduces_residual(self):
        gram = random_gram(4, seed=150, spread=0.7)
        state = solve_direct(gram).final_state
        rng = np.random.default_rng(151)
        a = state.a + 1e-4 * rng.normal(size=4)
        f = state.f + 1e-4 * (rng.normal(size=6) + 1j * rng.normal(size=6))
        before = ms.SolverState(t=1.0, a=a, f=f).residual(gram)
        a2, f2 = _newton_correction(a, f, gram.entries, 1.0, *_triu(4))
        after = ms.SolverState(t=1.0, a=a2, f=f2).residual(gram)
        assert before > 1e-5
        assert after < 1e-3 * before


class TestTrajectoryAdmissibility:
    def test_min_eigenvalue_never_dips_below_endpoints(self):
        # lambda_min is concave along a linear path, which is why rk4_drag
        # does not re-check G(t) at every step
        rng = np.random.default_rng(160)
        ts = np.linspace(0.0, 1.0, 101)
        for k in range(20):
            m = int(rng.integers(2, 9))
            spreads = rng.uniform(0.2, 0.95, 2)
            g0 = random_gram(m, seed=1600 + 2 * k, spread=spreads[0], real=bool(k % 2))
            g1 = random_gram(m, seed=1601 + 2 * k, spread=spreads[1])
            floor = min(np.linalg.eigvalsh(g.entries)[0] for g in (g0, g1))
            traj = ms.Trajectory(g0, g1)
            lows = [np.linalg.eigvalsh(traj(t))[0] for t in ts]
            assert min(lows) >= floor - 1e-15
