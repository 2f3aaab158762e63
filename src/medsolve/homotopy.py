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

One function, ``_rate``, is the stage: from eigh(F) it solves the Lyapunov
equation and the Schur system and reads f' off F'.  For m <= 8 a stage costs
about as much as its numpy calls, so it is written to make few and cheap ones
without changing any floating-point operation or its order: 2-D products go
through ``ndarray.dot`` (the BLAS call of ``@`` with less dispatch), F is
gathered by one ``take`` through a per-m index table, the Lyapunov check
reads the extremes of a positive spectrum off the ends of the sorted
eigenvalues, and the 1-norms of the Schur matrix and its inverse come from
one reduction.  ``eigh`` and ``inv`` are the bare gufuncs
``linalg.lapack.eigh_lo`` and ``.inv``, under the contract stated in
``linalg``: NaN and an invalid flag where np.linalg raised, and the caller
owns the error state.  The stage runs under its caller's, and exactly two
callers enter ``np.errstate(invalid="ignore")``: ``_integrate`` once per
drag, around all its RK4 stages and step checks, and ``derivative`` around
its one stage.  The kernel's flag on a singular Schur
matrix then neither warns nor raises; the solve reads the singularity off the
NaN inverse the kernel returns (a NaN condition number fails the COND_MAX
check) and raises SingularJacobian.  A polished drag's corrector and its check
run after the loop, under the caller's state.  A non-finite F yields NaN
eigenvalues rather than an error, which the Lyapunov check and the positivity
check after each step reject.  The loop computes G(t) for a block of at most
64 steps and 2^16 entries (one step from m = 182 on) in one stacked expression
(1 - t) G_start + t G_end over the block's times, which rounds element by
element as the scalar expression at each time does.  The check after a step
is split by whether it can end the drag.  ``_check_step`` runs after every
step, before the next stage: the scale floor, F, built into its slot of a
per-block stack, and the positivity of F.  ``_trace_rows`` writes the
block's trace rows once, after its steps, from the stacks of the scales, of
F, of the minimum eigenvalues and of G(t): the HS residual is one stacked
``factor_residual``, rounded per matrix as the lone one is.  The polished last
step's row goes through it as a one-row stack.
The RK4 loop carries the state as one vector z = (a, f) in f's dtype, so
each stage argument and each update is one array expression; the imaginary
part of a complex z's scale entries stays exactly zero, and the scales
round as they would in a separate real array.  The stages take the scales as
z's view in z's own dtype, and ``_rate`` casts its real w_ij and a' to that
dtype once: numpy casts a real operand of a complex product the same way, so
a complex stage skips the cast of each mixed product with the same bits.

Hermiticity is preserved structurally: the state stores a_i and the strict
upper triangle of F, so a_i stays real and f_ji = conj(f_ij) exactly.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import ascent, linalg
from .certify import (RESIDUAL_GATE, Certificate, certify_gram, certify_povm, factor_residual,
                      hermitian_factor)
from .exceptions import NearLinearDependence, PositivityLost, ResidualTooLarge, SingularJacobian
from .gram import GramMatrix
from .linalg import polar_unitary, read_only
from .measurement import Povm

log = logging.getLogger(__name__)

#: condition-number ceiling for the tangent solve (the spread of the Lyapunov
#: spectrum lam_i + lam_j, and the Schur system for a'); beyond this the
#: implicit function theorem no longer vouches for the step (bifurcation or
#: near-dependence) and the run aborts
COND_MAX = 1e12

#: floor on the diagonal scales a_i; one of them tending to zero signals the
#: boundary of the admissible Gram region
EPS_A = 1e-6

#: the RK4 loop stacks G(t) for at most this many steps at a time, and at most
#: _BLOCK_ENTRIES entries of G (1 MiB complex), and F of each step in half as many;
#: from m = 182 on a block is one step
_BLOCK_STEPS, _BLOCK_ENTRIES = 64, 2**16


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
        if a.ndim != 1:  # a saved state chained as ``initial=`` is outside input
            raise ValueError("a must be a 1-D array of the scales a_i")
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


def _rate(
    a: np.ndarray, f: np.ndarray, g: np.ndarray, gdot: np.ndarray, t: float,
    eig: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The stage: (a', f') at (a, f) on G(t) = g with dG/dt = gdot; ``eig`` is
    eigh(F) = (lam, V) when the caller already has it, and f is then not read.
    a' comes back in a's dtype: the drag passes a complex path's scales complex.

    Solves F'F + FF' - D'GD - DGD' = DG'D for (a', F').  The Lyapunov operator
    X -> XF + FX has the inverse L^-1(C) = V [(V^dag C V)_ij w_ij] V^dag with
    w_ij = 1/(lam_i + lam_j), so F' = L^-1(DG'D + D'GD + DGD') is linear in a'.
    The m conditions F'_nn = 2 a_n a'_n then form the real Schur system
    (2 diag(a) - M) a' = diag L^-1(DG'D), M_nk = diag L^-1(E_kk GD + DG E_kk)_n;
    both sides contract B_nij = V_ni conj(V_nj) w_ij.  f' is the strict upper
    triangle of F'.  Raises SingularJacobian when either operator is too
    ill-conditioned.  Runs under the caller's error state, which must ignore
    invalid operations for a singular Schur matrix to raise SingularJacobian
    without a warning: ``_integrate`` enters it once per drag, ``derivative``
    per call.
    """
    lam, v = linalg.lapack.eigh_lo(_factor(a, f)) if eig is None else eig
    rhs = a[:, None] * gdot * a
    m = a.shape[0]
    vc = v.conj()
    vh = vc.T
    s = lam[:, None] + lam
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
    # cast once where the products below are complex, as numpy would cast per product
    w = (1.0 / s).astype(v.dtype, copy=False)
    p = (g * a).dot(v)
    bnij = (v[:, :, None] * (vc[:, None, :] * w)).reshape(m, m * m)
    # M_nk = 2 Re sum_ij B_nij conj(V_ki) P_kj with P = G D V
    schur = -2.0 * bnij.dot((vc[:, :, None] * p[:, None, :]).reshape(m, m * m).T).real
    schur.ravel()[:: m + 1] += 2.0 * a.real  # a view: schur is contiguous
    y = vh.dot(rhs).dot(v)
    b = bnij.dot(y.ravel()).real
    # the kernel returns NaNs for a singular matrix and flags an invalid
    # operation, which the caller's error state ignores; cond is then NaN,
    # which fails the check below
    schur_inv = linalg.lapack.inv(schur)
    # the 1-norms of M and M^-1: column sums of |.|, both in one reduction
    pair = np.abs(np.concatenate((schur, schur_inv))).reshape(2, m, m)
    norms = np.maximum.reduce(np.add.reduce(pair, 1), 1)
    cond = norms[0] * norms[1]
    if not cond <= COND_MAX:
        raise SingularJacobian(
            f"Schur system condition number {np.inf if np.isnan(cond) else cond:.3e} exceeds "
            f"{COND_MAX:.0e} at t={t:.6f} (bifurcation or near-dependence)"
        )
    da = schur_inv.dot(b).astype(a.dtype, copy=False)
    # V^dag (D'GD + DGD') V = X + X^dag with X = V^dag D' P
    x = (vh * da).dot(p)
    return da, v.dot((y + x + x.conj().T) * w).dot(vh).take(_layout(m)[0])


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
    with np.errstate(invalid="ignore"):  # see _rate
        return _rate(state.a, state.f, trajectory(t), trajectory.tangent(), t)


def _correct(a: np.ndarray, f: np.ndarray, gram: GramMatrix) -> tuple:
    """Finish U = polar(G^{-1/2} D^{-1} F) of the drag's (a, f) at G = ``gram`` by
    ``ascent.finish``: (a, f, U) of F = D O, O = G^{1/2} U, with U's column
    phases fixed so that diag O >= 0, real when f is."""
    m = a.shape[0]
    r, r_inv = gram.scaled_states, gram.inv_sqrt()
    if not np.iscomplexobj(f):  # a real drag has a real optimum, as in search_optimum
        r, r_inv = r.real, r_inv.real
    u, stopped_at, newton, grad = ascent.finish(
        r, polar_unitary(r_inv.dot(_factor(a, f) / a[:, None])))
    log.debug("corrector: stopped at iteration %d, newton steps %d, gradient norm %.3e",
              stopped_at, newton, grad)
    o = r.dot(u)
    phases = o.diagonal().conj() / np.abs(o.diagonal())  # P ignores them: make diag O >= 0
    fmat = hermitian_factor(o * phases)
    return np.sqrt(fmat.diagonal().real), fmat.take(_layout(m)[0]), u * phases


def rk4_drag(
    trajectory: Trajectory,
    steps: int = 1000,
    h: float = 1e-3,
    polish: bool = False,
    initial: SolverState | None = None,
) -> RunReport:
    """Integrate the implicit system from t=0 to t=1 with fixed-step RK4.

    The start ``initial`` (default ``initial_state(m)``, the solution at I/m)
    must solve ``trajectory.g_start``, checked before the first step: a start
    of another dimension raises ValueError, and one whose HS norm of
    F^2 - D G D there exceeds RESIDUAL_GATE raises ResidualTooLarge, as an end
    that misses the gate does.  Passing an earlier run's ``final_state`` chains
    segments; by uniqueness of the optimum the result is independent of the
    path taken through admissible matrices.

    ``steps * h`` must equal 1 to within 1e-9 so the run covers the whole
    trajectory, as is checked before step 1, and a ``steps`` beyond the double
    range or whose trace cannot be allocated raises ValueError there too.  The
    stages of step k use G(t_k), G(t_k + h/2) and G(t_{k+1}), with t_k = k h
    and t_steps = 1, and name their own time when they fail; the step's trace
    row reuses G(t_{k+1}) to record the HS residual of F^2 - D G D, the minimum
    eigenvalue of F and the partial success probability.  ``polish`` (off by
    default, leaving the raw integrator behavior observable) changes only the
    last step: it takes the measurement U = G(1)^{-1/2} D^{-1} F of the drag's
    end, runs the fixed-point step U <- polar(G(1)^{1/2} diag(w)),
    w = diag(G(1)^{1/2} U), and where it crawls the guarded Newton step on U,
    until its gradient is down to rounding (``ascent.finish``), and keeps
    F = D O of O = G(1)^{1/2} U; NoConvergence if the ascent stops where the
    certificate's stationarity residual may exceed TOL_STAT / 2.

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
    near-dependence floor) raises ResidualTooLarge instead of returning.  A
    polished run certifies its corrected U itself with ``certify_povm``.
    """
    began = time.perf_counter()
    if steps < 1:
        raise ValueError("need at least one step")
    try:
        span = steps * h
    except OverflowError as exc:  # an int too large to convert to a double
        raise ValueError("steps is beyond the double range") from exc
    if not abs(span - 1.0) <= 1e-9:
        raise ValueError(f"steps*h must equal 1, got {steps} * {h} = {span}")
    m = trajectory.m
    start = initial_state(m) if initial is None else initial
    if start.m != m:
        raise ValueError(f"starting state has dimension {start.m}, g_start has {m}")
    resid = start.residual(trajectory.g_start)
    if not resid <= RESIDUAL_GATE:
        raise ResidualTooLarge(f"starting state is not a solution at g_start: F^2 - DGD has "
                               f"HS norm {resid:.3e} (gate {RESIDUAL_GATE:.1e})")
    a, f, trace, u = _integrate(trajectory, start.a, start.f, steps, h, polish)

    final = SolverState(t=1.0, a=a, f=f)
    if u is None:
        certificate, final_povm = certify_gram(trajectory.g_end, final.matrix)
    else:
        final_povm = Povm(u)
        certificate = certify_povm(trajectory.g_end, final_povm)
    log.info("drag: m=%d steps=%d polish=%s arithmetic=%s %.3f s", m, steps, polish,
             "complex" if np.iscomplexobj(f) else "real", time.perf_counter() - began)
    return RunReport(steps=steps, h=h, polish=polish, trace=read_only(trace), final_state=final,
                     final_povm=final_povm, certificate=certificate)


def _integrate(
    trajectory: Trajectory, a: np.ndarray, f: np.ndarray, steps: int, h: float, polish: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """The RK4 loop of ``rk4_drag`` from (a, f) at t = 0, unchecked: (a, f) at
    t = 1, the trace, and the corrected measurement U of a polished run (None
    otherwise).  f comes back real when the path and the start have no
    imaginary part, complex otherwise.  ValueError, before step 1, when the
    trace of ``steps`` rows cannot be allocated."""
    try:
        trace = np.empty((steps, 5))
    except MemoryError as exc:  # numpy's message names the bytes
        raise ValueError(f"steps={steps}: the trace does not fit in memory ({exc})") from exc
    g_start, g_end = trajectory.g_start.entries, trajectory.g_end.entries
    if not (g_start.imag.any() or g_end.imag.any() or f.imag.any()):
        # exact zeros only: the real parts are then the same path, so only rounding changes
        g_start, g_end, f = g_start.real, g_end.real, f.real
    gdot = g_end - g_start
    m = a.shape[0]
    block = max(1, min(_BLOCK_STEPS, _BLOCK_ENTRIES // (2 * m * m)))
    # (a, f) as one vector in f's dtype, one expression per RK4 combination; real
    # coefficients keep the scales' imaginary part 0 and round them as real arithmetic
    z = np.concatenate((a, f))
    t = 0.0
    g_now = (1.0 - t) * g_start + t * g_end  # Trajectory.__call__ in the dtype chosen above
    eig = None  # eigh(F) at (a, f), shared by the step check and the next k1
    half, sixth = 0.5 * h, h / 6.0  # 0.5 * h * k already rounds as (0.5 * h) * k
    # a, F and min eig F after each checked step of a block, for its trace rows
    scales, fmats, lows = np.empty((block, m)), np.empty((block, m, m), f.dtype), np.empty(block)
    with np.errstate(invalid="ignore"):  # see _rate; the corrector runs after it
        for first in range(1, steps + 1, block):
            its = range(first, min(first + block, steps + 1))
            # t_k + h/2 and t_{k+1} of each step; steps * h may miss 1 by up to 1e-9,
            # and the last step lands on t = 1 exactly
            times, t_k = [], t
            for it in its:
                t_next = 1.0 if it == steps else it * h
                times += (t_k + half, t_next)
                t_k = t_next
            tt = np.array(times)[:, None, None]
            # G(t) of every time at once, each rounded as the scalar (1 - t) G_start + t G_end
            gs = (1.0 - tt) * g_start + tt * g_end
            # k4, the trace row and the next k1 share G(t_next); the stages take the
            # scales in z's dtype (see the module docstring)
            checked = len(its) - (polish and its[-1] == steps)  # polish checks after the loop
            for j, (t_mid, t_next, g_mid, g_next) in enumerate(
                    zip(times[::2], times[1::2], gs[::2], gs[1::2])):
                k1 = np.concatenate(_rate(z[:m], z[m:], g_now, gdot, t, eig=eig))
                w = z + half * k1
                k2 = np.concatenate(_rate(w[:m], w[m:], g_mid, gdot, t_mid))
                w = z + half * k2
                k3 = np.concatenate(_rate(w[:m], w[m:], g_mid, gdot, t_mid))
                w = z + h * k3
                k4 = np.concatenate(_rate(w[:m], w[m:], g_next, gdot, t_next))
                z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t, g_now = t_next, g_next
                if j < checked:
                    a = z[:m].real
                    eig = _check_step(a, z[m:], t, fmats[j])
                    scales[j], lows[j] = a, eig[0][0]
            _trace_rows(trace, first, times[1::2], scales[:checked], fmats[:checked], gs[1::2],
                        lows[:checked])
    a, f, u = z[:m].real, z[m:], None
    if polish:  # the last step, corrected and checked under the caller's error state
        a, f, u = _correct(a, f, trajectory.g_end)
        lows[0] = _check_step(a, f, t, fmats[0])[0][0]
        _trace_rows(trace, steps, [t], a[None], fmats[:1], g_now[None], lows[:1])
    return a.copy(), f, trace, u  # a is a view of z, strided when z is complex


def _check_step(a: np.ndarray, f: np.ndarray, t: float, fmat: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The checks after the step that ended at t, each of which can end the drag
    and so runs before the next stage: the scale floor, then F, built into
    ``fmat`` (its slot in the block's stack), and its positivity.  Returns
    eigh(F), which the next step's k1 reuses; ``_trace_rows`` records the step."""
    # no admissibility check on G(t): its smallest eigenvalue is concave in t,
    # and GramMatrix already holds both endpoints above EPS_LI
    a_min = np.minimum.reduce(a)
    if a_min <= EPS_A:
        raise NearLinearDependence(
            f"scale a_{int(np.argmin(a))} fell to {a_min:.3e} at t={t:.6f}; "
            "target is too close to linear dependence"
        )
    fmat[...] = _factor(a, f)
    eig = linalg.lapack.eigh_lo(fmat)
    f_min = float(eig[0][0])
    if not f_min >= 0.0:  # a NaN spectrum fails here too
        raise PositivityLost(
            f"factor F lost positive definiteness at t={t:.6f} (min eig {f_min:.3e})"
        )
    return eig


def _trace_rows(trace: np.ndarray, first: int, t: list[float], a: np.ndarray,
                fmat: np.ndarray, g: np.ndarray, f_min: np.ndarray) -> None:
    """Write the trace rows of the checked steps first, first + 1, ... from
    stacks with one entry per step (``t`` and ``g`` may run on past the last):
    row it - 1 is (it, t, the HS residual of F^2 - D G D, the minimum eigenvalue
    of F, the partial success probability sum a_i^2).  None of it can raise,
    so it runs once per block, after the block's steps."""
    n = a.shape[0]
    rows = trace[first - 1:first - 1 + n]
    rows[:, 0] = np.arange(first, first + n)
    rows[:, 1] = t[:n]
    rows[:, 2] = factor_residual(a, fmat, g[:n])
    rows[:, 3] = f_min
    rows[:, 4] = np.add.reduce(a * a, axis=-1)
