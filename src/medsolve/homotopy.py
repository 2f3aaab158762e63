"""Continuation solver: drag a known optimum along a line of Gram matrices.

The optimal measurement at G is encoded by the positive hermitian factor
F = D G^{1/2} U (D = diag(a_i), F_ii = a_i^2) satisfying

    F^2 - D G D = 0.

Along the linear trajectory G(t) = (1-t) G_start + t G_end this constraint
defines the implicit variables (a_i, f_ij) as analytic functions of t, and
total differentiation gives a square linear system for their derivatives:

    F' F + F F' - D' G D - D G D' = D G' D,

with F'_ii = 2 a_i a_i', F'_ij = f_ij', D' = diag(a_i').  In F' this is a
Lyapunov equation, solved in closed form in the eigenbasis of F (Bartels &
Stewart 1972); the m scales a' then follow from an m x m Schur system, so
one evaluation costs O(m^4) rather than the O(m^6) of the equivalent
m^2 x m^2 real system.  Starting from the equiprobable orthogonal ensemble
(G = I/m, a_i = 1/sqrt(m), f = 0), where the solution is trivial, a
classical fixed-step RK4 integration of this system carries the optimum to
any linearly independent target; the flow keeps F^2 - DG(t)D constant, so
``rk4_drag`` checks that its start solves the path's first matrix.  The
Hilbert-Schmidt norm of F^2 - DGD measures the accumulated error at every
step without reference to any other solver.  The eigendecomposition of F
taken after each step for the positivity check also serves the first stage
of the next step.

Hermiticity is preserved structurally: the state stores a_i and the strict
upper triangle of F, so a_i stays real and f_ji = conj(f_ij) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import RESIDUAL_GATE, Certificate, certify_gram
from .exceptions import NearLinearDependence, NotCertified, PositivityLost, SingularJacobian
from .gram import GramMatrix
from .linalg import hs_norm, read_only
from .measurement import Povm

#: condition-number ceiling for the tangent solve (the spread of the Lyapunov
#: spectrum lam_i + lam_j, and the Schur system for a'); beyond this the
#: implicit function theorem no longer vouches for the step (bifurcation or
#: near-dependence) and the run aborts
COND_MAX = 1e12

#: steps between the Newton re-projections of a polished run
POLISH_EVERY = 10

#: most Newton corrections a polished run applies at t = 1
NEWTON_FINISH = 3

#: floor on the diagonal scales a_i; one of them tending to zero signals the
#: boundary of the admissible Gram region
EPS_A = 1e-6


def _triu(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(m, 1)


@dataclass(frozen=True)
class SolverState:
    """Point on the solution manifold: scales a_i and strict upper triangle
    of the hermitian factor F (row-major, f_ji = conj(f_ij) implied)."""

    t: float
    a: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        f = np.array(self.f, dtype=complex)
        m = a.shape[0]
        if f.shape != (m * (m - 1) // 2,):
            raise ValueError("f must hold the strict upper triangle of F")
        if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
            raise ValueError("all scales a_i must be positive and finite")
        if not np.all(np.isfinite(f)):
            raise ValueError("off-diagonal entries f must be finite")
        object.__setattr__(self, "a", read_only(a))
        object.__setattr__(self, "f", read_only(f))

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The hermitian factor F with F_ii = a_i^2."""
        return _factor(self.a, self.f, *_triu(self.m))

    def residual(self, gram: GramMatrix) -> float:
        """HS norm of F^2 - D G D at this state."""
        return _residual(self.a, self.matrix, gram.entries)


@dataclass(frozen=True)
class Trajectory:
    """Linear path G(t) = (1-t) g_start + t g_end, t in [0, 1].

    Convexity of the trace-one positive definite set keeps every
    intermediate matrix admissible when the endpoints are.
    """

    g_start: GramMatrix
    g_end: GramMatrix

    def __post_init__(self):
        if self.g_start.m != self.g_end.m:
            raise ValueError("trajectory endpoints must have equal dimension")

    @property
    def m(self) -> int:
        return self.g_start.m

    def __call__(self, t: float) -> np.ndarray:
        return (1.0 - t) * self.g_start.entries + t * self.g_end.entries

    def tangent(self) -> np.ndarray:
        """dG/dt, constant along a linear path."""
        return self.g_end.entries - self.g_start.entries


@dataclass(frozen=True)
class RunReport:
    """Everything a continuation run produced.

    ``trace`` has one row per iteration with columns
    (iteration, t, hs_residual, min_eig_F, p_success_partial).
    """

    steps: int
    h: float
    polish: bool
    trace: np.ndarray = field(repr=False)
    final_state: SolverState
    final_povm: Povm
    certificate: Certificate


def initial_state(m: int) -> SolverState:
    """Exact solution at the equiprobable orthogonal ensemble G = I/m:
    a_i = 1/sqrt(m), F = I/m, residual identically zero."""
    if m < 2:
        raise ValueError("need at least two states")
    return SolverState(
        t=0.0, a=np.full(m, 1.0 / np.sqrt(m)), f=np.zeros(m * (m - 1) // 2, dtype=complex)
    )


def _factor(a: np.ndarray, f: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """The hermitian factor F with F_ii = a_i^2 and strict upper triangle f."""
    m = a.shape[0]
    out = np.zeros((m, m), dtype=complex)
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
    a: np.ndarray,
    f: np.ndarray,
    g: np.ndarray,
    gdot: np.ndarray,
    t: float,
    iu: np.ndarray,
    ju: np.ndarray,
    eig: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(a', f') at (a, f); ``eig`` is eigh(F) when the caller already has it."""
    eig = np.linalg.eigh(_factor(a, f, iu, ju)) if eig is None else eig
    da, dfmat = _tangent_solve(a, eig, g, a[:, None] * gdot * a, t)
    return da, dfmat[iu, ju]


def derivative(state: SolverState, trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (da/dt, df/dt) of the implicit variables at ``state``.

    Solves the tangent equation at G(state.t) in the eigenbasis of F: a
    Lyapunov solve plus an m x m Schur system for a', O(m^4) work.  Raises
    SingularJacobian if either is conditioned beyond COND_MAX.  The returned
    direction preserves hermiticity exactly (a' real, upper triangle only).
    """
    t = state.t
    return _rate(state.a, state.f, trajectory(t), trajectory.tangent(), t, *_triu(state.m))


def _newton_correction(
    a: np.ndarray, f: np.ndarray, g: np.ndarray, t: float, iu: np.ndarray, ju: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step back onto the constraint F^2 - DGD = 0 at fixed t."""
    fmat = _factor(a, f, iu, ju)
    da, dfmat = _tangent_solve(a, np.linalg.eigh(fmat), g, a[:, None] * g * a - fmat @ fmat, t)
    return a + da, f + dfmat[iu, ju]


def _newton_finish(
    a: np.ndarray, f: np.ndarray, g: np.ndarray, t: float, iu: np.ndarray, ju: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton corrections at fixed t for as long as each one at least halves
    the residual of F^2 - DGD, at most NEWTON_FINISH of them."""
    resid = _residual(a, _factor(a, f, iu, ju), g)
    for _ in range(NEWTON_FINISH):
        a_new, f_new = _newton_correction(a, f, g, t, iu, ju)
        resid_new = _residual(a_new, _factor(a_new, f_new, iu, ju), g)
        if not resid_new <= 0.5 * resid:
            break
        a, f, resid = a_new, f_new, resid_new
    return a, f


def rk4_drag(
    trajectory: Trajectory,
    steps: int = 1000,
    h: float = 1e-3,
    polish: bool = False,
    initial: SolverState | None = None,
) -> RunReport:
    """Integrate the implicit system from t=0 to t=1 with fixed-step RK4.

    The start ``initial`` (default ``initial_state(m)``, the solution at I/m)
    must solve ``trajectory.g_start``: the same dimension and HS norm of
    F^2 - D G D at most RESIDUAL_GATE there, else NotCertified is raised
    before the first step.  Passing an earlier run's ``final_state`` chains
    segments; by uniqueness of the optimum the result is independent of the
    path taken through admissible matrices.

    ``steps * h`` must equal 1 so the run covers the whole trajectory, as
    is checked before step 1.  The four stage derivatives use the exact
    trajectory values G(t), G(t+h/2), G(t+h).  After every step the run
    records the HS residual of F^2 - D G(t) D, the minimum eigenvalue of F
    and the partial success probability.  ``polish`` applies one Newton re-projection onto the
    constraint every POLISH_EVERY steps (off by default, leaving the raw
    integrator behavior observable), and at t = 1 keeps correcting, up to
    NEWTON_FINISH times, while each correction at least halves the
    residual, so that Tr F matches the value the measurement attains.

    ``certify_gram`` turns the final F into the certificate and the measurement
    it certified, U = G(1)^{-1/2} D^{-1} F snapped to unitary; the certificate
    is judged at the default tolerances (see ``Certificate``).  A run that
    drifted too far off the constraint to certify (targets close to the
    near-dependence floor) raises ResidualTooLarge instead of returning.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if not abs(steps * h - 1.0) <= 1e-9:
        raise ValueError(f"steps*h must equal 1, got {steps} * {h} = {steps * h}")
    m = trajectory.m
    start = initial_state(m) if initial is None else initial
    if start.m != m:
        raise NotCertified(f"starting state has dimension {start.m}, g_start has {m}")
    resid = start.residual(trajectory.g_start)
    if not resid <= RESIDUAL_GATE:
        raise NotCertified(f"starting state is not a solution at g_start: F^2 - DGD has HS "
                           f"norm {resid:.3e} (gate {RESIDUAL_GATE:.1e})")
    a, f, trace = _integrate(trajectory, start.a, start.f, steps, h, polish)

    final = SolverState(t=1.0, a=a, f=f)
    certificate, final_povm = certify_gram(trajectory.g_end, final.matrix)
    return RunReport(
        steps=steps,
        h=h,
        polish=polish,
        trace=read_only(trace),
        final_state=final,
        final_povm=final_povm,
        certificate=certificate,
    )


def _integrate(
    trajectory: Trajectory, a: np.ndarray, f: np.ndarray, steps: int, h: float, polish: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The RK4 loop of ``rk4_drag`` from (a, f) at t = 0, unchecked: (a, f) at
    t = 1 and the trace."""
    iu, ju = _triu(trajectory.m)
    gdot = trajectory.tangent()

    trace = np.empty((steps, 5))
    t = 0.0
    g_now = trajectory(t)
    eig = None  # eigh(F) at (a, f), shared by the step check and the next k1
    for it in range(1, steps + 1):
        g_mid = trajectory(t + 0.5 * h)
        k1 = _rate(a, f, g_now, gdot, t, iu, ju, eig=eig)
        k2 = _rate(a + 0.5 * h * k1[0], f + 0.5 * h * k1[1], g_mid, gdot, t, iu, ju)
        k3 = _rate(a + 0.5 * h * k2[0], f + 0.5 * h * k2[1], g_mid, gdot, t, iu, ju)
        k4 = _rate(a + h * k3[0], f + h * k3[1], trajectory(t + h), gdot, t, iu, ju)
        a = a + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        f = f + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t = it * h

        # no admissibility check on G(t): its smallest eigenvalue is concave in t,
        # and GramMatrix already holds both endpoints above EPS_LI
        g_now = trajectory(t)
        if polish and it % POLISH_EVERY == 0:
            a, f = _newton_correction(a, f, g_now, t, iu, ju)
        if polish and it == steps:
            a, f = _newton_finish(a, f, g_now, t, iu, ju)

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
