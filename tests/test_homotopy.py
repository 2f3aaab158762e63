"""Continuation solver: tangent system, RK4 drag, chaining."""

import logging
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import medsolve as ms
from medsolve import homotopy, linalg, serialize
from conftest import (identity_gram, lapack_nan_from_call, overlap_gram_m3, probe_grams,
                      random_gram, seeded_grams, solve_direct)
from medsolve.certify import RESIDUAL_GATE, factor_residual
from medsolve.homotopy import _correct, _factor, _integrate, _rate
from medsolve.linalg import haar_unitary, hermitize, polar_unitary

DATA = Path(__file__).parent / "data"


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

    @pytest.mark.parametrize("a, f, message", [
        ([0.5, 0.5], [0.0, 0.0], "f must hold the strict upper triangle of F"),
        ([0.5, 0.5, 0.5], [0.0], "f must hold the strict upper triangle of F"),
        ([0.5, 0.0], [0.0], "all scales a_i must be positive and finite"),
        ([0.5, -0.5], [0.0], "all scales a_i must be positive and finite"),
        ([[0.5], [0.5]], [0.1], "a must be a 1-D array of the scales a_i"),
        (0.5, [], "a must be a 1-D array of the scales a_i"),
    ], ids=["long-f", "short-f", "zero-scale", "negative-scale", "column-a", "scalar-a"])
    def test_rejects_a_malformed_state(self, a, f, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ms.SolverState(t=0.0, a=a, f=f)

    @pytest.mark.parametrize("m", [1, 0])
    def test_rejects_fewer_than_two_states(self, m):
        with pytest.raises(ValueError, match="^need at least two states$"):
            ms.initial_state(m)

    def test_trajectory_endpoints_must_have_equal_dimension(self):
        with pytest.raises(ValueError, match="^trajectory endpoints must have equal dimension$"):
            ms.Trajectory(identity_gram(2), identity_gram(3))


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

    def test_rejects_a_state_of_another_dimension(self):
        traj = ms.Trajectory(identity_gram(3), overlap_gram_m3(0.9))
        with pytest.raises(ValueError, match="^state has dimension 2, the trajectory has 3$"):
            ms.derivative(ms.initial_state(2), traj)

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

            da, df = _rate(a, np.array([f12]), g, gdot, 0.0)
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
        assert ms.certify_povm(gram, report.final_povm) == report.certificate
        _, certified = ms.certify_gram(gram, report.final_state.matrix)
        if polish:
            # the corrected U itself; the round trip through F moves it by rounding
            assert np.max(np.abs(report.final_povm.vectors - certified.vectors)) <= 1e-12
        else:
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

    def test_steps_beyond_the_double_range_are_a_value_error(self):
        # steps * h would raise OverflowError converting the int to a double
        g = random_gram(3, seed=91)
        with pytest.raises(ValueError, match="^steps is beyond the double range$"):
            ms.rk4_drag(ms.Trajectory(identity_gram(3), g), steps=10**400, h=1e-3)

    def test_last_step_lands_on_t_one(self):
        # 3 * 0.3333333333 is within 1e-9 of 1 but not 1: the polished finish and
        # the certificate must both work at G(1)
        gram = ms.reference_five_state_gram()
        report = solve_direct(gram, steps=3, h=0.3333333333, polish=True)
        assert report.trace[-1, 1] == 1.0
        reference = solve_direct(gram, steps=1000, h=1e-3, polish=True)
        assert abs(report.certificate.p_success - reference.certificate.p_success) <= 1e-13

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

    def test_polish_certifies_a_near_dependent_ensemble(self):
        # min eig G 1.0e-6: the plain drag ends at HS residual 3.5e-6, 350 times
        # the certificate's gate
        gram = ms.raw_gram(ms.random_ensemble(8, seed=7, spread=0.5))
        assert solve_direct(gram, steps=200, h=5e-3, polish=True).certificate.is_optimal

    @staticmethod
    def _near_dependent_m3() -> ms.GramMatrix:
        # real, spectrum (3e-8, 3/7, 4/7) up to the trace: min eig G is three
        # times EPS_LI, so the input is admissible
        v = haar_unitary(np.random.default_rng(1), 3, real=True)
        lam = np.array([3e-8, 3 / 7 * (1 - 3e-8), 4 / 7 * (1 - 3e-8)])
        g = hermitize((v * lam) @ v.T)
        return ms.GramMatrix(g / np.trace(g).real)

    def test_landscape_certifies_the_near_dependent_m3_optimum(self):
        landscape = ms.classify_landscape(self._near_dependent_m3())
        [best] = [c for c in landscape.certificates if c is not None and c.status == "optimal"]
        assert abs(best.p_success - 0.89222151777819) <= 1e-12

    def test_polish_certifies_the_near_dependent_m3_optimum(self):
        # Phi(a) = diag (DGD)^{1/2} - a^2 is nearly flat here: Newton on the m
        # scales stopped at stationarity residual 2.0e-7, while the corrector
        # works on the measurement itself
        report = solve_direct(self._near_dependent_m3(), steps=200, h=5e-3, polish=True)
        assert report.certificate.status == "optimal"
        assert abs(report.certificate.p_success - 0.89222151777819) <= 1e-12

    @pytest.mark.parametrize("step", [4, 10], ids=["mid-run", "last"])
    def test_nan_spectrum_at_the_step_check_loses_positivity(self, monkeypatch, step):
        # step 1 calls eigh for k1..k4 and the check, every later step for k2..k4 and
        # the check (k1 reuses it): the check after ``step`` is call 5 + 4 (step - 1)
        calls = lapack_nan_from_call(monkeypatch, 5 + 4 * (step - 1), "eigh_lo")
        t = f"{step / 10:.6f}"
        with pytest.raises(ms.PositivityLost, match=rf"at t={t} \(min eig nan\)$"):
            solve_direct(random_gram(3, seed=96), steps=10, h=0.1)
        assert len(calls) == 5 + 4 * (step - 1)

    def test_nan_spectrum_in_a_stage_is_a_singular_jacobian_at_the_stage_time(self,
                                                                             monkeypatch):
        # call 6 is k2 of step 2, at its own time t_1 + h/2
        lapack_nan_from_call(monkeypatch, 6, "eigh_lo")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ms.SingularJacobian, match=r"= nan/nan exceeds 1e\+12 at "
                                                          r"t=0\.150000 "):
                solve_direct(random_gram(3, seed=96), steps=10, h=0.1)

    def test_trace_layout(self):
        report = solve_direct(random_gram(2, seed=95), steps=100, h=1e-2)
        assert report.trace.shape == (100, 5)
        assert report.trace[0, 0] == 1 and report.trace[-1, 0] == 100
        assert report.trace[-1, 1] == pytest.approx(1.0, abs=1e-12)


class TestTimeGrid:
    """Step k evaluates G at t_k, t_k + h/2 and t_{k+1} only (t_k = k h, t_steps = 1):
    k4, the step check and the next k1 share one G(t_{k+1}), and each stage gets its
    own time."""

    @staticmethod
    def _drag(monkeypatch, steps, h, target=None, polish=False):
        rates, checks = [], []  # (G, t) of every stage; G of every step check

        def stage(a, f, g, gdot, t, eig=None):
            rates.append((g, t))
            return _rate(a, f, g, gdot, t, eig=eig)

        def residual(a, fmat, g):  # one call per block, on the stack of its checks' G
            checks.extend(g)
            return factor_residual(a, fmat, g)

        monkeypatch.setattr(homotopy, "_rate", stage)
        monkeypatch.setattr(homotopy, "factor_residual", residual)
        trajectory = ms.Trajectory(identity_gram(4),
                                   random_gram(4, seed=97) if target is None else target)
        start = ms.initial_state(4)
        _integrate(trajectory, start.a, start.f, steps, h, polish)
        assert len(rates) == 4 * steps and len(checks) == steps
        return trajectory, rates, checks

    def test_stages_and_checks_share_the_grid(self, monkeypatch):
        # 0.05 * k + 0.05 != 0.05 * (k + 1) for k = 5, 12, 14 and 17
        steps, h = 20, 0.05
        _, rates, checks = self._drag(monkeypatch, steps, h)
        for k in range(steps):
            g_next = rates[4 * k + 3][0]
            assert np.array_equal(checks[k], g_next)
            if k + 1 < steps:
                assert np.array_equal(rates[4 * k + 4][0], g_next)
        grid = [k * h for k in range(steps)] + [1.0]
        want = [(t, t + 0.5 * h, t + 0.5 * h, t_next) for t, t_next in zip(grid, grid[1:])]
        assert [t for _, t in rates] == [t for stage_times in want for t in stage_times]

    def test_last_k4_sees_g_at_t_one(self, monkeypatch):
        # 3 * 0.3333333333 = 0.9999999999: the last step still ends on G(1)
        trajectory, rates, checks = self._drag(monkeypatch, 3, 0.3333333333)
        g_one = trajectory(1.0)
        assert np.array_equal(rates[-1][0], g_one) and np.array_equal(checks[-1], g_one)
        assert rates[-1][1] == 1.0

    @pytest.mark.parametrize("polish", [False, True])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_stacked_blocks_round_as_the_scalar_path(self, monkeypatch, polish, real):
        # 150 steps at m = 4 are three blocks of G(t) (64, 64 and 22 steps); at
        # h = 1/150, t_k + h/2 + h/2 and t_{k+1} = (k + 1) h differ at k = 10, ...
        steps, h = 150, 1.0 / 150
        assert -(-steps // homotopy._BLOCK_STEPS) == 3
        assert any(k * h + 0.5 * h + 0.5 * h != (k + 1) * h for k in range(steps))
        trajectory, rates, checks = self._drag(
            monkeypatch, steps, h, random_gram(4, seed=97, real=real), polish)
        g_start, g_end = trajectory.g_start.entries, trajectory.g_end.entries
        if real:
            g_start, g_end = g_start.real, g_end.real

        def same(g, t):  # bitwise G(t) of the scalar expression, in the drag's dtype
            want = (1.0 - t) * g_start + t * g_end
            return g.dtype == want.dtype and g.tobytes() == want.tobytes()

        grid = [k * h for k in range(steps)] + [1.0]
        want = [(t, t + 0.5 * h, t + 0.5 * h, t_next) for t, t_next in zip(grid, grid[1:])]
        assert [t for _, t in rates] == [t for stage_times in want for t in stage_times]
        assert all(same(g, t) for g, t in rates)
        assert all(same(g, t) for g, t in zip(checks, grid[1:]))
        assert rates[-1][1] == 1.0 and same(rates[-1][0], 1.0) and same(checks[-1], 1.0)


def _two_array_integrate(trajectory, a, f, steps, h, polish):
    """Frozen copy of the RK4 loop as it stood with a and f in separate arrays,
    its failure branches left out; it calls the module's stage, residual and
    corrector."""
    g_start, g_end = trajectory.g_start.entries, trajectory.g_end.entries
    if not (g_start.imag.any() or g_end.imag.any() or f.imag.any()):
        g_start, g_end, f = g_start.real, g_end.real, f.real

    def path(t):
        return (1.0 - t) * g_start + t * g_end

    gdot, trace, t, eig, u = g_end - g_start, np.empty((steps, 5)), 0.0, None, None
    g_now, half, sixth = path(t), 0.5 * h, h / 6.0
    for it in range(1, steps + 1):
        t_mid, t_next = t + half, 1.0 if it == steps else it * h
        g_mid, g_next = path(t_mid), path(t_next)
        k1 = _rate(a, f, g_now, gdot, t, eig=eig)
        k2 = _rate(a + half * k1[0], f + half * k1[1], g_mid, gdot, t_mid)
        k3 = _rate(a + half * k2[0], f + half * k2[1], g_mid, gdot, t_mid)
        k4 = _rate(a + h * k3[0], f + h * k3[1], g_next, gdot, t_next)
        a = a + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        f = f + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t, g_now = t_next, g_next
        if polish and it == steps:
            a, f, u = _correct(a, f, trajectory.g_end)
        fmat = _factor(a, f)
        eig = linalg.lapack.eigh_lo(fmat)
        f_min = float(eig[0][0])
        trace[it - 1] = (it, t, factor_residual(a, fmat, g_now), f_min, float(np.sum(a**2)))
    return a, f, trace, u


class TestStateVector:
    """The loop carries (a, f) as one vector and must round every value as the
    two-array loop did, in real and complex arithmetic."""

    @pytest.mark.parametrize("m", [2, 5, 8])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("polish", [False, True])
    def test_matches_the_two_array_loop(self, m, real, polish):
        trajectory = ms.Trajectory(identity_gram(m),
                                   random_gram(m, seed=180 + m, spread=0.7, real=real))
        start = ms.initial_state(m)
        got = _integrate(trajectory, start.a, start.f, 200, 5e-3, polish)
        want = _two_array_integrate(trajectory, start.a, start.f, 200, 5e-3, polish)
        assert (got[3] is None, want[3] is None) == (not polish, not polish)
        for x, y in zip(got, want[:3] + want[3:] * polish):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        a = got[0]  # its own contiguous float64 array, not a view of the loop's state
        assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.owndata


@pytest.fixture
def rate_calls(monkeypatch):
    """Counts the tangent evaluations (calls of ``_rate``) of the drags a test runs."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _rate(*args, **kwargs)

    monkeypatch.setattr(homotopy, "_rate", counted)
    return calls


def test_rate_calls_counts_every_stage_of_a_drag(rate_calls):
    report = solve_direct(random_gram(3, seed=96), steps=10, h=0.1, polish=True)
    assert report.certificate.is_optimal and len(rate_calls) == 4 * 10


class TestErrorState:
    """The drag's stages and step checks ignore invalid operations, under the one
    error state the drag enters; the caller's holds after the drag and in its
    corrector."""

    def test_a_drag_leaves_the_error_state_as_it_found_it(self, monkeypatch):
        before = np.geterr()
        solve_direct(random_gram(3, seed=96), steps=10, h=0.1, polish=True)
        assert np.geterr() == before
        # NaN at the check after step 4 (see test_nan_spectrum_at_the_step_check_loses_positivity)
        lapack_nan_from_call(monkeypatch, 5 + 4 * 3, "eigh_lo")
        with pytest.raises(ms.PositivityLost, match=r"at t=0\.400000 "):
            solve_direct(random_gram(3, seed=96), steps=10, h=0.1)
        assert np.geterr() == before

    def test_the_corrector_runs_under_the_callers_error_state(self, monkeypatch):
        stages, corrector = set(), []

        def stage(*args, **kwargs):
            stages.add(np.geterr()["invalid"])
            return _rate(*args, **kwargs)

        def correct(*args):
            corrector.append(np.geterr()["invalid"])
            return _correct(*args)

        monkeypatch.setattr(homotopy, "_rate", stage)
        monkeypatch.setattr(homotopy, "_correct", correct)
        trajectory = ms.Trajectory(identity_gram(3), random_gram(3, seed=96))
        start = ms.initial_state(3)
        with np.errstate(invalid="raise"):
            u = _integrate(trajectory, start.a, start.f, 20, 0.05, True)[3]
            assert np.geterr()["invalid"] == "raise"
        assert u is not None and stages == {"ignore"} and corrector == ["raise"]

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_stage_reads_a_singular_schur_off_its_nan_inverse(self, m):
        # the pinned point of test_singular_schur_raises_without_a_warning, under
        # the drag's error state in place of derivative's
        a = np.full(m, 0.8)
        a[0] = np.sqrt(0.5 / m)
        g = np.eye(m) / m
        gdot = np.diag(np.linspace(-1.0, 1.0, m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                with pytest.raises(ms.SingularJacobian,
                                   match=r"^Schur system condition number inf exceeds 1e\+12 "):
                    _rate(a, np.zeros(m * (m - 1) // 2), g, gdot, 0.625)


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
        with pytest.raises(ms.ResidualTooLarge, match="not a solution at g_start"):
            ms.rk4_drag(ms.Trajectory(g_a, g_b), steps=100, h=1e-2, initial=ms.initial_state(3))
        assert rate_calls == []

    @pytest.mark.parametrize("polish", [False, True])
    def test_default_start_serves_only_paths_from_identity(self, rate_calls, polish):
        # the default start solves I/4, not g_a; unchecked, the plain drag ends
        # in PositivityLost at t = 0.615 and the polished one certifies by luck
        g_a = ms.raw_gram(ms.random_ensemble(4, 1, 0.5))
        g_b = ms.raw_gram(ms.random_ensemble(4, 2, 0.5))
        with pytest.raises(ms.ResidualTooLarge, match="not a solution at g_start"):
            ms.rk4_drag(ms.Trajectory(g_a, g_b), polish=polish)
        assert rate_calls == []

    def test_start_of_another_dimension_is_rejected(self, rate_calls):
        with pytest.raises(ValueError, match="dimension 3, g_start has 4"):
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
                with pytest.raises(ms.ResidualTooLarge, match="gate 1.0e-08"):
                    ms.rk4_drag(trajectory, steps=100, h=1e-2, initial=initial)
            else:
                # accepted: the drag runs (its start error is carried, not certified)
                report = ms.rk4_drag(trajectory, steps=100, h=1e-2, initial=initial)
                assert report.trace.shape == (100, 5)


def _random_point(rng, m, real, indefinite):
    """Random a > 0, strict upper triangle f, Gram-like g and hermitian gdot,
    redrawn until F is definite or indefinite as asked and its Lyapunov
    spectrum |l_i + l_j| stays clear of zero."""
    n = m * (m - 1) // 2
    cplx = 0.0 if real else 1.0
    f_scale = 0.8 if indefinite else 0.05
    while True:
        z = rng.normal(size=(m, m)) + cplx * 1j * rng.normal(size=(m, m))
        g = z @ z.conj().T
        g = g / np.trace(g).real
        gd = rng.normal(size=(m, m)) + cplx * 1j * rng.normal(size=(m, m))
        gd = gd + gd.conj().T
        a = rng.uniform(0.3, 1.0, m)
        f = f_scale * (rng.normal(size=n) + cplx * 1j * rng.normal(size=n))
        lam = np.linalg.eigvalsh(_factor(a, f))
        if (lam[0] < 0.0) == indefinite and np.min(np.abs(lam[:, None] + lam[None, :])) > 0.05:
            return a, f, g.astype(complex), gd.astype(complex)


class TestFactor:
    @pytest.mark.parametrize("m", [2, 3, 8, 16])
    @pytest.mark.parametrize("real", [False, True])
    def test_hermitian_layout(self, m, real):
        rng = np.random.default_rng(200 + m)
        iu, ju = np.triu_indices(m, 1)
        a = rng.uniform(0.3, 1.0, m)
        f = rng.normal(size=iu.size) + (0.0 if real else 1j) * rng.normal(size=iu.size)
        if real:
            f = f.real
        fmat = _factor(a, f)
        assert fmat.shape == (m, m)
        assert fmat.dtype == (np.float64 if real else np.complex128)
        assert np.array_equal(fmat, fmat.conj().T)
        assert np.array_equal(fmat.diagonal(), a * a)
        assert np.array_equal(fmat[iu, ju], f)


class TestTangentSolve:
    @pytest.mark.parametrize("m", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("indefinite", [False, True])
    def test_satisfies_hermitian_equation(self, m, real, indefinite):
        rng = np.random.default_rng(100 * m + 10 * real + indefinite)
        a, f, g, gdot = _random_point(rng, m, real, indefinite)
        da, df = _rate(a, f, g, gdot, 0.0)
        fmat = _factor(a, f)
        dfmat = _factor(np.ones(m), df)
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
            _rate(a, f, g, gdot, 0.25)



class TestCorrector:
    """The corrector that ends a polished drag: a non-monotone Riemannian ascent
    from the drag's measurement down to the rounding of the gradient."""

    @staticmethod
    def _optimum(caplog):
        gram = random_gram(4, seed=150, spread=0.7)
        state = solve_direct(gram, polish=True).final_state
        caplog.set_level(logging.DEBUG, logger="medsolve.homotopy")
        return gram, state

    def test_corrector_restores_a_perturbed_optimum(self, caplog):
        gram, optimum = self._optimum(caplog)
        a = optimum.a + 1e-4 * np.random.default_rng(151).normal(size=4)
        assert ms.SolverState(t=1.0, a=a, f=optimum.f).residual(gram) > 1e-5
        a, f, u = _correct(a, optimum.f, gram)
        [record] = caplog.records
        assert re.fullmatch(r"corrector: stopped at iteration \d+, newton steps \d+, "
                            r"gradient norm \S+", record.getMessage())
        assert int(record.getMessage().split()[4][:-1]) > 1
        assert ms.SolverState(t=1.0, a=a, f=f).residual(gram) <= 1e-14
        assert np.max(np.abs(a - optimum.a)) <= 1e-13
        assert ms.certify_povm(gram, ms.Povm(u)).status == "optimal"

    def test_corrector_from_a_converged_optimum_takes_no_step(self, caplog):
        gram, optimum = self._optimum(caplog)
        a, f, _ = _correct(optimum.a, optimum.f, gram)
        [record] = caplog.records
        assert record.getMessage().startswith("corrector: stopped at iteration 1, ")
        assert np.max(np.abs(a - optimum.a)) <= 1e-15
        assert np.max(np.abs(f - optimum.f)) <= 1e-15

    def test_corrector_certifies_the_near_dependent_m2_ensemble(self):
        # min eig G 2.5e-6: the 200-step drag ends at HS residual 2.5e-3, 2.5e5
        # times certify_gram's gate, and the corrector still certifies it
        ens = serialize.load_gram_or_ensemble(
            serialize.read_json(DATA / "near-dependent-m2-ensemble.json"))
        gram = ms.raw_gram(ens)
        with pytest.raises(ms.ResidualTooLarge):
            solve_direct(gram, steps=200, h=5e-3)
        polished = solve_direct(gram, steps=200, h=5e-3, polish=True)
        assert polished.certificate.is_optimal
        closed = ms.helstrom(*ens.probs, np.vdot(ens.states[:, 0], ens.states[:, 1])).p_success
        assert abs(polished.certificate.p_success - closed) <= 1e-12

    def test_a_budget_spent_below_the_certificates_bound_is_accepted(self, caplog,
                                                                      monkeypatch):
        # 12 fixed-point iterations take the near-dependent m = 3 input below
        # _GTOL but not down to the gradient's rounding, which they reach at
        # iteration 21.  The Newton step takes it from 1.1e-8 to 7.7e-17 at
        # once, so it is switched off to reach a budget spent between the two
        caplog.set_level(logging.DEBUG, logger="medsolve.homotopy")
        monkeypatch.setattr(homotopy.ascent, "MAX_ITER", 12)
        monkeypatch.setattr(homotopy.ascent, "_newton_step", lambda r, u: None)
        report = solve_direct(TestRk4Drag._near_dependent_m3(), steps=200, h=5e-3, polish=True)
        assert [r.getMessage().split(",")[0] for r in caplog.records
                if r.levelno == logging.DEBUG] == ["corrector: stopped at iteration 12"]
        assert report.certificate.status == "optimal"

    @pytest.mark.slow
    def test_every_near_dependent_probe_draw_certifies(self, monkeypatch):
        # the probe's draws with m up to 8
        newton = []

        def finish(r, u):
            out = real_finish(r, u)
            newton.append(out[2])
            return out

        real_finish = homotopy.ascent.finish
        monkeypatch.setattr(homotopy.ascent, "finish", finish)
        seen = set()
        for draw, gram in enumerate(probe_grams(2026, 30, m_high=8)):
            report = solve_direct(gram, steps=200, h=5e-3, polish=True)
            assert report.certificate.status == "optimal", f"draw {draw}"
            assert len(newton) == draw + 1 and newton[-1] <= 10, f"draw {draw}"
            seen.add((gram.m, not gram.entries.imag.any()))
        assert {m for m, _ in seen} == set(range(2, 9)) and len(seen) >= 10

    def test_an_exhausted_budget_raises_no_convergence(self, caplog, monkeypatch):
        gram, optimum = self._optimum(caplog)
        a = optimum.a + 1e-4 * np.random.default_rng(151).normal(size=4)
        monkeypatch.setattr(homotopy.ascent, "MAX_ITER", 1)
        with pytest.raises(ms.NoConvergence,
                           match=r"^corrector stopped at iteration 1 with gradient norm \S+ "
                                 r"above 3\.536e-10$"):
            _correct(a, optimum.f, gram)


class TestLapackKernels:
    """The drag and the polar factor call numpy's LAPACK gufuncs without
    np.linalg's wrapper: they must exist and give the wrapper's results bit for
    bit, else a numpy upgrade changes the drag's output or breaks it."""

    @staticmethod
    def _same(x, y):
        return x.dtype == y.dtype and np.array_equal(x, y)

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("real", [False, True])
    def test_kernels_match_the_wrappers(self, m, real):
        rng = np.random.default_rng(230 + m + 100 * real)
        z = rng.normal(size=(m, m)) + (0.0 if real else 1j) * rng.normal(size=(m, m))
        if real:
            z = z.real
        herm = z + z.conj().T
        lam, v = linalg.lapack.eigh_lo(herm)
        want = np.linalg.eigh(herm)
        assert self._same(lam, want.eigenvalues) and self._same(v, want.eigenvectors)
        assert lam.dtype == np.float64 and v.dtype == z.dtype
        assert self._same(linalg.lapack.inv(z), np.linalg.inv(z))
        for mat in (z, np.stack([z, 2.0 * z.T, herm])):
            u, _, vh = np.linalg.svd(mat)
            assert self._same(polar_unitary(mat), u @ vh)

    @pytest.mark.parametrize("real", [False, True])
    def test_polar_factor_of_a_nan_matrix_raises_numpys_linalg_error(self, real):
        # the gufunc flags the failed SVD as an invalid operation and returns NaN
        mat = np.eye(3) if real else np.eye(3, dtype=complex)
        mat[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            with pytest.warns(RuntimeWarning, match="invalid value encountered in svd_f"):
                polar_unitary(np.stack([np.eye(3), mat]))

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_singular_schur_raises_without_a_warning(self, m):
        # F = diag(a^2) at G = I/m: the Schur matrix diag(2 a_n - 1 / (m a_n)) has
        # an exact zero in its first entry, which the bare inv flags as invalid;
        # derivative reaches it on a path through I/m at t = 0.625
        a = np.full(m, 0.8)
        a[0] = np.sqrt(0.5 / m)
        d = np.diag(np.linspace(-1.0, 1.0, m)) / (4 * m)
        traj = ms.Trajectory(ms.GramMatrix(np.eye(m) / m - 0.625 * d),
                             ms.GramMatrix(np.eye(m) / m + 0.375 * d))
        assert np.array_equal(traj(0.625), np.eye(m) / m)
        state = ms.SolverState(t=0.625, a=a, f=np.zeros(m * (m - 1) // 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ms.SingularJacobian,
                               match=r"^Schur system condition number inf exceeds 1e\+12 "):
                ms.derivative(state, traj)


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


class TestRealArithmetic:
    """A path whose endpoints and start have no imaginary part is integrated in
    real arithmetic; any nonzero imaginary part keeps it complex."""

    @pytest.mark.parametrize("negative_zero", [False, True])
    def test_real_path_integrates_in_float64(self, negative_zero):
        gram = random_gram(3, seed=170, real=True)
        if negative_zero:  # conj turns every +0.0 imaginary part into -0.0
            gram = ms.GramMatrix(gram.entries.conj())
            assert np.signbit(gram.entries.imag).all()
        start = ms.initial_state(3)
        trajectory = ms.Trajectory(identity_gram(3), gram)
        for polish in (False, True):
            f = _integrate(trajectory, start.a, start.f, steps=100, h=1e-2, polish=polish)[1]
            assert f.dtype == np.float64

    def test_complex_path_stays_complex(self):
        start = ms.initial_state(3)
        trajectory = ms.Trajectory(identity_gram(3), random_gram(3, seed=170))
        f = _integrate(trajectory, start.a, start.f, steps=100, h=1e-2, polish=True)[1]
        assert f.dtype == np.complex128 and np.abs(f.imag).max() > 1e-3

    def test_complex_start_on_a_real_path_stays_complex(self):
        # the path is constant, so the drag must hand back its start unchanged
        g = ms.GramMatrix(np.diag([0.6, 0.4]))
        start = ms.SolverState(t=0.0, a=[0.8, 0.7], f=[0.05 + 0.1j])
        f = _integrate(ms.Trajectory(g, g), start.a, start.f, steps=10, h=0.1, polish=False)[1]
        assert f.dtype == np.complex128 and np.array_equal(f, start.f)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("polish", [False, True])
    def test_real_gram_agrees_with_its_complex_rephasing(self, m, polish):
        # Phi G Phi^dag with Phi a diagonal of phases has the same optimal scales
        # (F -> Phi F Phi^dag), but its drag runs in complex arithmetic
        gram = seeded_grams(m, 1, base_seed=2000 + 10 * m, real=True)[0]
        phases = np.exp(2j * np.pi * np.random.default_rng(171 + m).uniform(size=m))
        rephased = ms.GramMatrix(phases[:, None] * gram.entries * phases.conj())
        real, cplx = (ms.rk4_drag(ms.Trajectory(identity_gram(m), g), steps=200, h=5e-3,
                                  polish=polish) for g in (gram, rephased))
        assert np.max(np.abs(real.final_state.a - cplx.final_state.a)) <= 1e-12
        assert abs(real.certificate.p_success - cplx.certificate.p_success) <= 1e-12
        assert np.max(np.abs(real.trace[:, 2:] - cplx.trace[:, 2:])) <= 1e-14

    @pytest.mark.parametrize("real", [True, False])
    def test_info_log_names_the_arithmetic(self, caplog, real):
        caplog.set_level(logging.INFO, logger="medsolve.homotopy")
        solve_direct(random_gram(3, seed=172, real=real), steps=100, h=1e-2, polish=True)
        [record] = caplog.records
        arithmetic = "real" if real else "complex"
        assert re.fullmatch(rf"drag: m=3 steps=100 polish=True arithmetic={arithmetic} "
                            r"\d+\.\d{3} s", record.getMessage())
