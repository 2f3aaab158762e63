"""Byte-identity guard for rewrites of the drag's stage hot path.

The functions below are verbatim copies of ``_factor``, ``_residual``,
``_tangent_solve``, ``_rate`` and ``_integrate`` as they stood before their
numpy calls were cut down (``ndarray.dot`` for ``@``, one ``take`` to build
F, the sorted-spectrum shortcut of the Lyapunov check, one reduction for
both Schur 1-norms).  That rewrite keeps every floating-point operation and
its order, so the solver must reproduce these copies bit for bit, in real and
complex arithmetic, and raise the same errors with the same messages; a later
rewrite that reorders roundoff has to say so here.  Two differences in
``_integrate`` are intended.  The first is the time of the last step, exactly
1.0 now; the drags below use ``steps * h == 1.0``, where both agree.  The
second is the time grid: each step evaluates G once at t_k + h/2 and once at
t_{k+1}, so k4, the step check and the next k1 share one G(t_{k+1}) where
k4 used to take G(t_k + h), which differs from it in the last bit at some
steps, and each stage receives its own time for its failure messages.  The
copy below carries that second change; the stage functions are unchanged.
"""

import numpy as np
import pytest

import medsolve as ms
from conftest import identity_gram, random_gram
from medsolve import homotopy
from medsolve.exceptions import NearLinearDependence, PositivityLost, SingularJacobian
from medsolve.homotopy import COND_MAX, EPS_A, Trajectory, _finish
from medsolve.linalg import hs_norm

# ---------------------------------------------------------------- frozen copies


def _factor(a: np.ndarray, f: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """The hermitian factor F with F_ii = a_i^2 and strict upper triangle f, in f's dtype."""
    m = a.shape[0]
    out = np.zeros((m, m), dtype=f.dtype)
    out.flat[:: m + 1] = a * a
    out[iu, ju] = f
    out[ju, iu] = f.conj()
    return out


def _residual(a: np.ndarray, fmat: np.ndarray, g: np.ndarray) -> float:
    """HS norm of F^2 - D G D."""
    return hs_norm(fmat @ fmat - a[:, None] * g * a)


def _tangent_solve(
    a: np.ndarray, eig: tuple[np.ndarray, np.ndarray], g: np.ndarray, rhs: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Solve F'F + FF' - D'GD - DGD' = rhs for (a', F'), with (lam, V) = eig = eigh(F).

    The Lyapunov operator X -> XF + FX has the inverse
    L^-1(C) = V [(V^dag C V)_ij w_ij] V^dag with w_ij = 1/(lam_i + lam_j), so
    F' = L^-1(rhs + D'GD + DGD') is linear in a'.  The m conditions
    F'_nn = 2 a_n a'_n then form the real Schur system
    (2 diag(a) - M) a' = diag L^-1(rhs), M_nk = diag L^-1(E_kk GD + DG E_kk)_n;
    both sides contract B_nij = V_ni conj(V_nj) w_ij.
    Raises SingularJacobian when either operator is too ill-conditioned.
    """
    lam, v = eig
    m = a.shape[0]
    vh = v.conj().T
    s = lam[:, None] + lam[None, :]
    s_abs = np.abs(s)
    s_min, s_max = s_abs.min(), s_abs.max()
    if not s_max <= COND_MAX * s_min:
        raise SingularJacobian(
            f"Lyapunov spectrum ratio max|l_i+l_j|/min|l_i+l_j| = {s_max:.3e}/{s_min:.3e} "
            f"exceeds {COND_MAX:.0e} at t={t:.6f} (bifurcation or near-dependence)"
        )
    w = 1.0 / s
    p = (g * a) @ v
    bnij = (v[:, :, None] * (vh.T[:, None, :] * w)).reshape(m, m * m)
    # M_nk = 2 Re sum_ij B_nij conj(V_ki) P_kj with P = G D V
    schur = -2.0 * (bnij @ (vh.T[:, :, None] * p[:, None, :]).reshape(m, m * m).T).real
    schur.flat[:: m + 1] += 2.0 * a
    y = vh @ rhs @ v
    b = (bnij @ y.ravel()).real
    try:
        schur_inv = np.linalg.inv(schur)
        cond = np.abs(schur).sum(axis=0).max() * np.abs(schur_inv).sum(axis=0).max()
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond <= COND_MAX:
        raise SingularJacobian(
            f"Schur system condition number {cond:.3e} exceeds {COND_MAX:.0e} "
            f"at t={t:.6f} (bifurcation or near-dependence)"
        )
    da = schur_inv @ b
    # V^dag (D'GD + DGD') V = X + X^dag with X = V^dag D' P
    x = (vh * da) @ p
    return da, v @ ((y + x + x.conj().T) * w) @ vh


def _rate(
    a: np.ndarray, f: np.ndarray, g: np.ndarray, gdot: np.ndarray, t: float, iu: np.ndarray,
    ju: np.ndarray, eig: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(a', f') at (a, f); ``eig`` is eigh(F) when the caller already has it."""
    eig = np.linalg.eigh(_factor(a, f, iu, ju)) if eig is None else eig
    da, dfmat = _tangent_solve(a, eig, g, a[:, None] * gdot * a, t)
    return da, dfmat[iu, ju]

def _integrate(
    trajectory: Trajectory, a: np.ndarray, f: np.ndarray, steps: int, h: float, polish: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The RK4 loop of ``rk4_drag`` from (a, f) at t = 0, unchecked: (a, f) at
    t = 1 and the trace.  f comes back real when the path and the start have no
    imaginary part, complex otherwise."""
    iu, ju = np.triu_indices(trajectory.m, 1)
    g_start, g_end = trajectory.g_start.entries, trajectory.g_end.entries
    if not (g_start.imag.any() or g_end.imag.any() or f.imag.any()):
        # exact zeros only: the real parts are then the same path, so only rounding changes
        g_start, g_end, f = g_start.real, g_end.real, f.real

    def path(t: float) -> np.ndarray:  # Trajectory.__call__ in the dtype chosen above
        return (1.0 - t) * g_start + t * g_end

    gdot = g_end - g_start
    trace = np.empty((steps, 5))
    t = 0.0
    g_now = path(t)
    eig = None  # eigh(F) at (a, f), shared by the step check and the next k1
    for it in range(1, steps + 1):
        t_mid, t_next = t + 0.5 * h, it * h
        g_mid, g_next = path(t_mid), path(t_next)
        k1 = _rate(a, f, g_now, gdot, t, iu, ju, eig=eig)
        k2 = _rate(a + 0.5 * h * k1[0], f + 0.5 * h * k1[1], g_mid, gdot, t_mid, iu, ju)
        k3 = _rate(a + 0.5 * h * k2[0], f + 0.5 * h * k2[1], g_mid, gdot, t_mid, iu, ju)
        k4 = _rate(a + h * k3[0], f + h * k3[1], g_next, gdot, t_next, iu, ju)
        a = a + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        f = f + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t, g_now = t_next, g_next

        # no admissibility check on G(t): its smallest eigenvalue is concave in t,
        # and GramMatrix already holds both endpoints above EPS_LI
        if polish and it == steps:
            a, f = _finish(a, g_now, t)

        if a.min() <= EPS_A:
            raise NearLinearDependence(
                f"scale a_{int(np.argmin(a))} fell to {a.min():.3e} at t={t:.6f}; "
                "target is too close to linear dependence"
            )
        fmat = _factor(a, f, iu, ju)
        eig = np.linalg.eigh(fmat)
        f_min = float(eig[0][0])
        if f_min < 0.0:
            raise PositivityLost(
                f"factor F lost positive definiteness at t={t:.6f} (min eig {f_min:.3e})"
            )
        resid = _residual(a, fmat, g_now)
        trace[it - 1] = (it, t, resid, f_min, float(np.sum(a**2)))
    return a, f, trace


# ---------------------------------------------------------------- comparisons


def _same(x, y) -> bool:
    return x.dtype == y.dtype and np.array_equal(x, y)


def _point(rng, m, real):
    """Random scales a, small upper triangle f, a Gram-like g and a hermitian
    gdot, all real or all complex."""
    cplx = 0.0 if real else 1.0
    z = rng.normal(size=(m, m)) + cplx * 1j * rng.normal(size=(m, m))
    g = z @ z.conj().T
    g = g / np.trace(g).real
    gd = rng.normal(size=(m, m)) + cplx * 1j * rng.normal(size=(m, m))
    gd = gd + gd.conj().T
    n = m * (m - 1) // 2
    a = rng.uniform(0.3, 1.0, m)
    f = 0.05 * (rng.normal(size=n) + cplx * 1j * rng.normal(size=n))
    if real:
        return a, f.real, g.real, gd.real
    return a, f, g, gd


@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("real", [False, True])
def test_rate_is_byte_identical(m, real):
    rng = np.random.default_rng(700 + 10 * m + real)
    iu, ju = np.triu_indices(m, 1)
    for _ in range(5):
        a, f, g, gdot = _point(rng, m, real)
        assert _same(homotopy._factor(a, f), _factor(a, f, iu, ju))
        eig = np.linalg.eigh(_factor(a, f, iu, ju))
        for given in (None, eig):
            da, df = homotopy._rate(a, f, g, gdot, 0.5, eig=given)
            da_ref, df_ref = _rate(a, f, g, gdot, 0.5, iu, ju, eig=given)
            assert _same(da, da_ref) and _same(df, df_ref)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("polish", [False, True])
def test_integrate_is_byte_identical(m, real, polish):
    trajectory = Trajectory(identity_gram(m), random_gram(m, seed=710 + m, spread=0.5, real=real))
    start = ms.initial_state(m)
    steps, h = 20, 0.05
    assert steps * h == 1.0
    got = homotopy._integrate(trajectory, start.a, start.f, steps, h, polish)
    want = _integrate(trajectory, start.a, start.f, steps, h, polish)
    for x, y in zip(got, want):
        assert _same(x, y)


def _lyapunov_outcome(solve, lam, v, a, g, rhs):
    """What ``solve`` does with eig = (lam, v): its outputs, or its error."""
    try:
        return solve(a, (lam, v), g, rhs, 0.375)
    except SingularJacobian as exc:
        return exc


@pytest.mark.parametrize("lam", [
    pytest.param([1.0, 2.0, 1e12 * (1.0 - 1e-9)], id="positive-just-under"),
    pytest.param([1.0, 2.0, 1e12], id="positive-at-the-ceiling"),
    pytest.param([1.0, 2.0, 1e12 * (1.0 + 1e-9)], id="positive-just-over"),
    pytest.param([-1.0, 0.999, 3.0], id="indefinite-passes"),
    pytest.param([-1.0, 1.0 - 1e-13, 2.0], id="indefinite-fails"),
    pytest.param([0.0, 1.0, 2.0], id="zero"),
    pytest.param([np.nan, 1.0, 2.0], id="nan-first"),
    pytest.param([0.5, 1.0, np.nan], id="nan-last"),
])
def test_lyapunov_check_agrees_with_the_full_spectrum(lam):
    lam = np.array(lam)
    rng = np.random.default_rng(720)
    v = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    a, _, g, rhs = _point(rng, 3, real=False)
    s_abs = np.abs(lam[:, None] + lam[None, :])
    fails = not s_abs.max() <= COND_MAX * s_abs.min()
    if lam[0] < 0.0:  # here min |l_i + l_j| is not 2 |l_0|
        assert s_abs.min() < -2.0 * lam[0]
    got = _lyapunov_outcome(homotopy._tangent_solve, lam, v, a, g, rhs)
    want = _lyapunov_outcome(_tangent_solve, lam, v, a, g, rhs)
    if fails:
        assert isinstance(got, SingularJacobian) and str(got).startswith("Lyapunov spectrum ratio")
        assert str(got) == str(want)
    else:
        assert _same(got[0], want[0]) and _same(got[1], want[1])


@pytest.mark.parametrize("m", [2, 3, 8])
@pytest.mark.parametrize("offset", [0.0, 1e-14, 1e-7])
def test_schur_check_agrees_with_the_separate_norms(m, offset):
    # F = diag(a^2) at G = I/m gives the Schur matrix diag(2 a_n - 1 / (m a_n)),
    # singular, nearly singular or well enough conditioned in its first entry
    a = np.full(m, 0.8)
    a[0] = np.sqrt(0.5 / m) * (1.0 + offset)
    f = np.zeros(m * (m - 1) // 2)
    g = np.eye(m) / m
    gdot = np.diag(np.linspace(-1.0, 1.0, m))
    iu, ju = np.triu_indices(m, 1)

    def frozen(*args):
        return _rate(*args, iu, ju)

    outcomes = []
    for rate in (homotopy._rate, frozen):
        try:
            outcomes.append(rate(a, f, g, gdot, 0.625))
        except SingularJacobian as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want and want.startswith("Schur system condition number")
    else:
        assert _same(got[0], want[0]) and _same(got[1], want[1])

