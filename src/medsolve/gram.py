"""Ensembles of linearly independent pure states and their Gram matrices.

An ensemble is a set of m pure states |psi_i> in an m-dimensional complex
space together with prior probabilities p_i.  All of the solver machinery
works on the Gram matrix of the probability-scaled states

    |psi~_i> = sqrt(p_i) |psi_i>,      G_ij = <psi~_i | psi~_j>,

which is hermitian, has trace 1 (G_ii = p_i) and is positive definite
exactly when the states are linearly independent.  ``raw_gram`` returns it,
built once with the ensemble, in the ensemble's own order of states.
``reference_five_state_gram`` is the built-in problem of ``reproduce-fig1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import NearLinearDependence
from .linalg import haar_unitary, hermitian_eig, hermitize, read_only

# Smallest admissible eigenvalue of a Gram matrix.  Below this the ensemble
# is treated as linearly dependent: the continuation method needs headroom
# between the eigenvalue floor and the ~1e-16 local integration error.
EPS_LI = 1e-8

_ATOL_UNIT = 1e-12
_ATOL_HERM = 1e-12
_ATOL_TRACE = 1e-12


@dataclass(frozen=True)
class Ensemble:
    """m pure states (columns of ``states``) with prior probabilities ``probs``.

    Invariants enforced at construction: every state has unit norm, the
    probabilities are positive and sum to one, and the Gram matrix of the
    scaled states passes the checks of ``GramMatrix`` (trace one, smallest
    eigenvalue > EPS_LI).
    """

    states: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        states = np.array(self.states, dtype=complex)
        probs = np.array(self.probs, dtype=float)
        if states.ndim != 2 or states.shape[0] != states.shape[1]:
            raise ValueError("states must be a square matrix with one state per column")
        m = states.shape[0]
        if probs.shape != (m,):
            raise ValueError(f"probs must have length {m}")
        if not (np.isfinite(states).all() and np.isfinite(probs).all()):
            raise ValueError("states and probabilities must be finite")
        # np.linalg.norm(states, axis=0) written out as numpy computes it, and
        # ufunc reductions for np.max and np.sum: at m <= 8 the wrappers cost
        # more than the checks, here and in GramMatrix
        norms = np.sqrt(np.add.reduce((states.conj() * states).real, axis=0))
        if np.maximum.reduce(np.abs(norms - 1.0), axis=None) > _ATOL_UNIT:
            raise ValueError("every state must have unit norm")
        if (probs <= 0.0).any():
            raise ValueError("every probability must be positive")
        if abs(np.add.reduce(probs) - 1.0) > _ATOL_TRACE:
            raise ValueError("probabilities must sum to 1")
        # valid only if its Gram matrix is; kept for raw_gram, which every
        # solver route calls
        scaled = states * np.sqrt(probs)
        object.__setattr__(self, "_gram", GramMatrix(hermitize(scaled.conj().T @ scaled)))
        object.__setattr__(self, "states", read_only(states))
        object.__setattr__(self, "probs", read_only(probs))

    @property
    def m(self) -> int:
        return self.states.shape[0]

    @property
    def scaled_states(self) -> np.ndarray:
        """Columns sqrt(p_i) |psi_i>."""
        return self.states * np.sqrt(self.probs)


@dataclass(frozen=True)
class GramMatrix:
    """Trace-one positive definite hermitian matrix of scaled-state overlaps.

    Any matrix satisfying those three conditions is accepted, in whatever
    order and phases it comes, so solver routines run directly on
    user-supplied matrices.  Like an ``Ensemble`` it has ``m``, ``probs`` and
    ``scaled_states``, so the certifiers and the audit take either.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("gram matrix must be square")
        if not np.isfinite(entries).all():
            raise ValueError("gram matrix entries must be finite")
        if np.maximum.reduce(np.abs(entries - entries.conj().T), axis=None) > _ATOL_HERM:
            raise ValueError("gram matrix must be hermitian")
        if abs(entries.trace().real - 1.0) > _ATOL_TRACE:
            raise ValueError("gram matrix must have trace 1")
        min_eig = float(hermitian_eig(hermitize(entries))[0])
        if min_eig <= EPS_LI:
            raise NearLinearDependence(
                f"gram matrix is not positive definite enough (min eigenvalue {min_eig:.3e})"
            )
        object.__setattr__(self, "entries", read_only(entries))

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def probs(self) -> np.ndarray:
        """Diagonal of G, which equals the probability vector."""
        return self.entries.diagonal().real.copy()

    @cached_property
    def _roots(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (G^{1/2}, G^{-1/2}) from one hermitian eigendecomposition,
        eigenvalues clamped at EPS_LI so rounding-level values cannot leak in."""
        w, v = hermitian_eig(hermitize(self.entries), vectors=True)
        r = np.sqrt(np.maximum(w, EPS_LI))
        return read_only((v * r) @ v.conj().T), read_only((v / r) @ v.conj().T)

    def inv_sqrt(self) -> np.ndarray:
        return self._roots[1]

    @property
    def scaled_states(self) -> np.ndarray:
        """Columns of G^{1/2}, the principal (positive) square root: the
        canonical (FRAME_DUAL) realization's scaled states."""
        return self._roots[0]


def raw_gram(ensemble: Ensemble) -> GramMatrix:
    """Gram matrix G_ij = sqrt(p_i p_j) <psi_i|psi_j> in the ensemble's own indexing,
    the one validated when the ensemble was built."""
    return ensemble._gram


def ensemble_from_gram(gram: GramMatrix) -> Ensemble:
    """The canonical realization as an ``Ensemble``: states G^{1/2} / sqrt(p_i),
    whose scaled states are G^{1/2} to a rounding or two per entry; the
    certifiers and the audit read G^{1/2} exactly off the ``GramMatrix``."""
    scaled, probs = gram.scaled_states, gram.probs
    return Ensemble(scaled / np.sqrt(probs), probs)


def random_ensemble(
    m: int, seed: int, spread: float, real: bool = False
) -> Ensemble:
    """Reproducible random ensemble interpolating away from the orthogonal one.

    States are the normalized columns of (1-spread)*I + spread*Q with Q a
    Haar-random unitary (orthogonal when ``real``), and the probabilities
    are a spread-scaled perturbation of the uniform vector.  As spread -> 0
    the Gram matrix approaches I/m.  Deterministic in ``seed``.
    """
    if m < 2:
        raise ValueError("need at least two states")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 < spread <= 1.0:
        raise ValueError("spread must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        q = haar_unitary(rng, m, real=real)
        mix = (1.0 - spread) * np.eye(m) + spread * q
        norms = np.linalg.norm(mix, axis=0)
        if np.any(norms < 1e-8):
            continue
        states = mix / norms
        probs = 1.0 / m + spread * rng.uniform(-1.0, 1.0, m) / (2.0 * m)
        probs = probs / probs.sum()
        try:
            return Ensemble(states, probs)
        except NearLinearDependence:
            continue
    raise NearLinearDependence(
        f"could not draw a linearly independent ensemble (m={m}, seed={seed}, spread={spread})"
    )


def reference_five_state_gram() -> GramMatrix:
    """The five-state reference Gram matrix used by ``reproduce-fig1``.

    A complex trace-one positive definite matrix with priors
    (0.3, 0.2, 0.2, 0.15, 0.15); off-diagonal entries are the stated raw
    overlaps scaled by sqrt(p_i p_j).  The matrix is defined by its upper
    triangle and completed hermitian.
    """
    s06 = np.sqrt(0.06)
    s045 = np.sqrt(0.045)
    s03 = np.sqrt(0.03)
    upper = np.array(
        [
            [0.3, s06 * (0.2 + 0.1j), s06 * 0.1, s045 * 0.1, s045 * 0.1],
            [0.0, 0.2, 0.06, s03 * (0.2 + 0.2j), s03 * 0.1],
            [0.0, 0.0, 0.2, s03 * (0.2 + 0.05j), s03 * (0.3 + 0.2j)],
            [0.0, 0.0, 0.0, 0.15, 0.15 * (0.2 + 0.3j)],
            [0.0, 0.0, 0.0, 0.0, 0.15],
        ],
        dtype=complex,
    )
    strict = np.triu(upper, 1)
    entries = np.diag(np.diagonal(upper).real).astype(complex) + strict + strict.conj().T
    return GramMatrix(entries)
