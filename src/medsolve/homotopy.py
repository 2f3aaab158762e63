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
of the next step.  When G_start, G_end and the start's f have imaginary
parts that are exactly zero, the whole drag runs in real arithmetic (real
``eigh`` and real products, cheaper than complex ones); a tolerance on the
imaginary parts would instead change the problem being solved.

For m <= 8 a stage costs about as much as its numpy calls, so the stage is
written to make few and cheap ones without changing any floating-point
operation or its order: 2-D products go through ``ndarray.dot`` (the BLAS
call of ``@`` with less dispatch), F is gathered by one ``take`` through a
per-m index table, the Lyapunov check reads the extremes of a positive
spectrum off the ends of the sorted eigenvalues, and the 1-norms of the
Schur matrix and its inverse come from one reduction.  ``eigh`` and ``inv``
call numpy's LAPACK gufuncs (``_umath_linalg.eigh_lo`` and ``.inv``, what
``np.linalg.eigh`` and ``np.linalg.inv`` call) without the wrapper's
per-call array checks, dtype casts and error-state context, which cost as
much as the factorization itself at these sizes.  The wrapper's one other
duty is kept: the kernel flags a singular Schur matrix as an invalid
operation, which the solve raises as SingularJacobian without a warning.
A non-finite F yields NaN eigenvalues rather than an error, which the
Lyapunov check and the positivity check after each step reject.

Hermiticity is preserved structurally: the state stores a_i and the strict
upper triangle of F, so a_i stays real and f_ji = conj(f_ij) exactly.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field

import numpy as np
# the gufuncs behind np.linalg.eigh and np.linalg.inv, called without that
# wrapper's per-call checks and casts: the same LAPACK call on the same data
from numpy.linalg import _umath_linalg

from .certify import RESIDUAL_GATE, Certificate, certify_gram, factor_residual
from .exceptions import NearLinearDependence, NotCertified, PositivityLost, SingularJacobian
from .gram import GramMatrix
from .linalg import read_only
from .measurement import Povm

log = logging.getLogger(__name__)

#: condition-number ceiling for the tangent solve (the spread of the Lyapunov
#: spectrum lam_i + lam_j, and the Schur system for a'); beyond this the
#: implicit function theorem no longer vouches for the step (bifurcation or
#: near-dependence) and the run aborts
COND_MAX = 1e12

#: most Newton iterations on the m scales that a polished run applies at t = 1
_NEWTON_MAX = 50

#: most step halvings one of those iterations tries before the finish stops
_HALVINGS_MAX = 30

#: floor on the diagonal scales a_i; one of them tending to zero signals the
#: boundary of the admissible Gram region
EPS_A = 1e-6


@functools.cache
def _layout(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index tables of an m x m hermitian factor: ``upper``, the flat
    positions iu*m + ju of its strict upper triangle (iu, ju) = triu_indices(m, 1)
    in row-major order, which is where f sits; and ``build``, the (m, m) table
    that ``take`` reads F from in concatenate((a*a, f, conj f))."""
    iu, ju = np.triu_indices(m, 1)
    n = iu.size
    build = np.empty((m, m), dtype=np.intp)
    build.flat[:: m + 1] = np.arange(m)
    build[iu, ju] = m + np.arange(n)
    build[ju, iu] = m + n + np.arange(n)
    return read_only(iu * m + ju), read_only(build)


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
        return _factor(self.a, self.f)

    def residual(self, gram: GramMatrix) -> float:
        """HS norm of F^2 - D G D at this state."""
        return factor_residual(self.a, self.matrix, gram.entries)


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


def _factor(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The hermitian factor F with F_ii = a_i^2 and strict upper triangle f, in f's dtype,
    gathered by one ``take`` through the per-m table of ``_layout``."""
    return np.concatenate((a * a, f, f.conj())).take(_layout(a.shape[0])[1])


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
    vc = v.conj()
    vh = vc.T
    s = lam[:, None] + lam[None, :]
    # eigh sorts lam ascending and rounding is monotone, so for lam_0 > 0 the
    # extremes of |l_i + l_j| are exactly 2 l_0 and 2 l_{m-1}; any other
    # spectrum, or one that fails the check, takes the full reduction
    if not (lam[0] > 0.0 and lam[-1] + lam[-1] <= COND_MAX * (lam[0] + lam[0])):
        s_abs = np.abs(s)
        s_min, s_max = s_abs.min(), s_abs.max()
        if not s_max <= COND_MAX * s_min:
            raise SingularJacobian(
                f"Lyapunov spectrum ratio max|l_i+l_j|/min|l_i+l_j| = {s_max:.3e}/{s_min:.3e} "
                f"exceeds {COND_MAX:.0e} at t={t:.6f} (bifurcation or near-dependence)"
            )
    w = 1.0 / s
    p = (g * a).dot(v)
    bnij = (v[:, :, None] * (vc[:, None, :] * w)).reshape(m, m * m)
    # M_nk = 2 Re sum_ij B_nij conj(V_ki) P_kj with P = G D V
    schur = -2.0 * bnij.dot((vc[:, :, None] * p[:, None, :]).reshape(m, m * m).T).real
    schur.ravel()[:: m + 1] += 2.0 * a  # a view: schur is contiguous
    y = vh.dot(rhs).dot(v)
    b = bnij.dot(y.ravel()).real
    try:
        # the kernel flags a singular matrix as an invalid operation (and
        # returns NaNs), which np.linalg.inv raised as LinAlgError
        with np.errstate(invalid="raise"):
            schur_inv = _umath_linalg.inv(schur)
        # the 1-norms of M and M^-1: column sums of |.|, both in one reduction
        pair = np.abs(np.concatenate((schur, schur_inv))).reshape(2, m, m)
        norms = pair.sum(axis=1).max(axis=1)
        cond = norms[0] * norms[1]
    except FloatingPointError:
        cond = np.inf
    if not cond <= COND_MAX:
        raise SingularJacobian(
            f"Schur system condition number {cond:.3e} exceeds {COND_MAX:.0e} "
            f"at t={t:.6f} (bifurcation or near-dependence)"
        )
    da = schur_inv.dot(b)
    # V^dag (D'GD + DGD') V = X + X^dag with X = V^dag D' P
    x = (vh * da).dot(p)
    return da, v.dot((y + x + x.conj().T) * w).dot(vh)


def _rate(
    a: np.ndarray, f: np.ndarray, g: np.ndarray, gdot: np.ndarray, t: float,
    eig: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(a', f') at (a, f); ``eig`` is eigh(F) when the caller already has it."""
    eig = _umath_linalg.eigh_lo(_factor(a, f)) if eig is None else eig
    da, dfmat = _tangent_solve(a, eig, g, a[:, None] * gdot * a, t)
    return da, dfmat.take(_layout(a.shape[0])[0])


def derivative(state: SolverState, trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative (da/dt, df/dt) of the implicit variables at ``state``.

    Solves the tangent equation at G(state.t) in the eigenbasis of F: a
    Lyapunov solve plus an m x m Schur system for a', O(m^4) work.  Raises
    SingularJacobian if either is conditioned beyond COND_MAX.  The returned
    direction preserves hermiticity exactly (a' real, upper triangle only).
    ValueError if the state and the trajectory differ in dimension.
    """
    if state.m != trajectory.m:
        raise ValueError(f"state has dimension {state.m}, the trajectory has {trajectory.m}")
    t = state.t
    return _rate(state.a, state.f, trajectory(t), trajectory.tangent(), t)


def _positive_root(a: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, tuple, float]:
    """F = (DGD)^{1/2}, its eigenpairs (s, V) from eigh(DGD) = (s^2, V), and ||Phi(a)||_2."""
    lam, v = _umath_linalg.eigh_lo(a[:, None] * g * a)
    s = np.sqrt(np.maximum(lam, 0.0))
    fmat = (v * s) @ v.conj().T
    return fmat, (s, v), float(np.linalg.norm(fmat.diagonal().real - a * a))


def _newton_correction(a: np.ndarray, g: np.ndarray, t: float, root: tuple) -> tuple | None:
    """One Newton iteration on Phi(a) = diag (DGD)^{1/2} - a^2 from ``root`` at a, the
    step halved until ||Phi|| drops and every a_i > 0: (a, its root, halvings), or
    None when _HALVINGS_MAX halvings fail or the halved step no longer moves a.  For
    E = diag Phi the Lyapunov solve of EF + FE is E, so the tangent solve gives the
    step (its Schur matrix is -Phi')."""
    fmat, eig, norm = root
    phi = fmat.diagonal().real - a * a
    da = _tangent_solve(a, eig, g, phi[:, None] * fmat + fmat * phi, t)[0]
    for halvings in range(_HALVINGS_MAX + 1):
        trial = a + 0.5**halvings * da
        if np.array_equal(trial, a):  # every shorter step rounds to a as well
            return None
        if trial.min() > 0.0 and (new := _positive_root(trial, g))[2] < norm:
            return trial, new, halvings
    return None


def _finish(a: np.ndarray, g: np.ndarray, t: float) -> tuple:
    """Newton on the m scales from the drag's end until no iteration lowers ||Phi||, at
    most _NEWTON_MAX: the best a and the upper triangle of (DGD)^{1/2} there."""
    root = _positive_root(a, g)
    before, iterations, halvings = root[2], 0, 0
    while iterations < _NEWTON_MAX and (step := _newton_correction(a, g, t, root)) is not None:
        a, root, k = step
        iterations, halvings = iterations + 1, halvings + k
    log.debug("newton finish: %d iterations, %d halvings, |Phi| %.3e -> %.3e",
              iterations, halvings, before, root[2])
    return a, root[0].take(_layout(a.shape[0])[0])


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

    ``steps * h`` must equal 1 to within 1e-9 so the run covers the whole
    trajectory, as is checked before step 1.  The stages of step k use
    G(t_k), G(t_k + h/2) and G(t_{k+1}), with t_k = k h and t_steps = 1, and
    name their own time when they fail; the step check reuses G(t_{k+1}) to
    record the HS residual of F^2 - D G D, the minimum eigenvalue of F and
    the partial success probability.  ``polish`` (off by default, leaving the
    raw integrator behavior observable) changes only the last step: it
    finishes with Newton on the m scales at t = 1, driving
    Phi(a) = diag (DGD)^{1/2} - a^2 to zero with the step halved until
    ||Phi|| drops, and keeps F = (DGD)^{1/2} at the best a found.

    A path whose G_start, G_end and starting f have imaginary parts that are
    all exactly zero (``-0.0`` included) is integrated in real arithmetic,
    which changes only the rounding; any nonzero imaginary part keeps it
    complex, since dropping it would change the problem.  Under
    ``MED_LOG=info`` one log line names m, steps, polish, the arithmetic and
    the wall seconds of the run.

    ``certify_gram`` turns the final F into the certificate and the measurement
    it certified, U = G(1)^{-1/2} D^{-1} F snapped to unitary; the certificate
    is judged at the default tolerances (see ``Certificate``).  A run that
    drifted too far off the constraint to certify (targets close to the
    near-dependence floor) raises ResidualTooLarge instead of returning.
    """
    began = time.perf_counter()
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
    log.info("drag: m=%d steps=%d polish=%s arithmetic=%s %.3f s", m, steps, polish,
             "complex" if np.iscomplexobj(f) else "real", time.perf_counter() - began)
    return RunReport(steps=steps, h=h, polish=polish, trace=read_only(trace), final_state=final,
                     final_povm=final_povm, certificate=certificate)


def _integrate(
    trajectory: Trajectory, a: np.ndarray, f: np.ndarray, steps: int, h: float, polish: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The RK4 loop of ``rk4_drag`` from (a, f) at t = 0, unchecked: (a, f) at
    t = 1 and the trace.  f comes back real when the path and the start have no
    imaginary part, complex otherwise."""
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
    half, sixth = 0.5 * h, h / 6.0  # 0.5 * h * k already rounds as (0.5 * h) * k
    for it in range(1, steps + 1):
        # steps * h may miss 1 by up to 1e-9; the last step lands on t = 1 exactly
        t_mid, t_next = t + half, 1.0 if it == steps else it * h
        g_mid, g_next = path(t_mid), path(t_next)  # k4 and the step check share G(t_next)
        k1 = _rate(a, f, g_now, gdot, t, eig=eig)
        k2 = _rate(a + half * k1[0], f + half * k1[1], g_mid, gdot, t_mid)
        k3 = _rate(a + half * k2[0], f + half * k2[1], g_mid, gdot, t_mid)
        k4 = _rate(a + h * k3[0], f + h * k3[1], g_next, gdot, t_next)
        a = a + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        f = f + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
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
        fmat = _factor(a, f)
        eig = _umath_linalg.eigh_lo(fmat)
        f_min = float(eig[0][0])
        if not f_min >= 0.0:  # a NaN spectrum fails here too
            raise PositivityLost(
                f"factor F lost positive definiteness at t={t:.6f} (min eig {f_min:.3e})"
            )
        resid = factor_residual(a, fmat, g_now)
        trace[it - 1] = (it, t, resid, f_min, float(np.sum(a**2)))
    return a, f, trace
