"""Ensembles of linearly independent pure states and their Gram matrices.

An ensemble is a set of m pure states |psi_i> in an m-dimensional complex
space together with prior probabilities p_i.  All of the solver machinery
works on the Gram matrix of the probability-scaled states

    |psi~_i> = sqrt(p_i) |psi_i>,      G_ij = <psi~_i | psi~_j>,

which is hermitian, has trace 1 (G_ii = p_i) and is positive definite
exactly when the states are linearly independent.  Two Gram matrices that
differ only by a simultaneous reindexing of the states and by per-state
phases describe the same physical ensemble; ``canonicalize`` picks a unique
representative of that equivalence class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NearLinearDependence
from .linalg import haar_unitary, hermitize, invsqrtm_psd, read_only, sqrtm_psd

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
    probabilities are positive and sum to one, and the scaled states are
    linearly independent (smallest Gram eigenvalue > EPS_LI).
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
        norms = np.linalg.norm(states, axis=0)
        if np.max(np.abs(norms - 1.0)) > _ATOL_UNIT:
            raise ValueError("every state must have unit norm")
        if np.any(probs <= 0.0):
            raise ValueError("every probability must be positive")
        if abs(probs.sum() - 1.0) > _ATOL_TRACE:
            raise ValueError("probabilities must sum to 1")
        scaled = states * np.sqrt(probs)
        min_eig = float(np.linalg.eigvalsh(hermitize(scaled.conj().T @ scaled))[0])
        if min_eig <= EPS_LI:
            raise NearLinearDependence(
                f"states are nearly linearly dependent (min Gram eigenvalue {min_eig:.3e})"
            )
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

    Any matrix satisfying those three conditions is accepted; being in
    canonical (ordering + phase) form is not required here, so solver
    routines can run directly on user-supplied matrices.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("gram matrix must be square")
        if np.max(np.abs(entries - entries.conj().T)) > _ATOL_HERM:
            raise ValueError("gram matrix must be hermitian")
        if abs(np.trace(entries).real - 1.0) > _ATOL_TRACE:
            raise ValueError("gram matrix must have trace 1")
        min_eig = float(np.linalg.eigvalsh(hermitize(entries))[0])
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
        return np.diagonal(self.entries).real.copy()

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def sqrt(self) -> np.ndarray:
        """Principal (positive) square root via hermitian eigendecomposition."""
        return sqrtm_psd(self.entries, floor=EPS_LI)

    def inv_sqrt(self) -> np.ndarray:
        return invsqrtm_psd(self.entries, floor=EPS_LI)

    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.entries)

    @property
    def is_canonical(self) -> bool:
        """Non-increasing diagonal and real non-negative superdiagonal."""
        g = self.entries
        d = np.diagonal(g).real
        if np.any(np.diff(d) > _ATOL_TRACE):
            return False
        sup = np.diagonal(g, 1)
        return bool(np.all(np.abs(sup.imag) <= _ATOL_HERM) and np.all(sup.real >= -_ATOL_HERM))


@dataclass(frozen=True)
class DualBasis:
    """Vectors |u_j> biorthogonal to the scaled states: <psi~_i|u_j> = delta_ij."""

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", read_only(np.array(self.vectors, dtype=complex)))

    @property
    def m(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class CanonicalizedGram:
    """A canonical Gram matrix together with the mapping back to raw indexing.

    ``gram`` is the canonical representative; ``raw`` is the matrix actually
    computed from the input.  They are related by

        gram = diag(e^{-i phases}) . raw[perm, perm] . diag(e^{i phases})

    so results computed against ``gram`` can be mapped back: outcome i of a
    canonical-frame measurement corresponds to input index permutation[i].
    """

    gram: GramMatrix
    permutation: np.ndarray
    phases: np.ndarray
    raw: GramMatrix = field(repr=False)

    def to_raw_entries(self) -> np.ndarray:
        """Reconstruct the raw matrix from the canonical one (inverse map)."""
        phase = np.exp(1j * self.phases)
        undone = (phase[:, None] * self.gram.entries) * phase.conj()[None, :]
        inv = np.argsort(self.permutation)
        return undone[np.ix_(inv, inv)]


def _tie_blocks(diag: np.ndarray, order: np.ndarray) -> list[list[int]]:
    """Group consecutive sorted positions whose diagonal values tie."""
    blocks = [[0]]
    for k in range(1, len(order)):
        if abs(diag[order[k]] - diag[order[k - 1]]) <= _ATOL_TRACE:
            blocks[-1].append(k)
        else:
            blocks.append([k])
    return blocks


def _canonical_key(g: np.ndarray) -> tuple:
    """Ordering key: superdiagonal magnitudes first, then the remaining
    upper triangle row-major.  Larger keys are preferred."""
    m = g.shape[0]
    sup = tuple(np.round(np.abs(np.diagonal(g, 1)), 12))
    rest = tuple(
        np.round(abs(g[i, j]), 12) for i in range(m) for j in range(i + 2, m)
    )
    return sup + rest


def canonicalize(entries: np.ndarray | GramMatrix) -> CanonicalizedGram:
    """Bring a valid Gram matrix into canonical form.

    Ordering convention: diagonal entries non-increasing; ties broken by
    preferring larger superdiagonal magnitudes, then lexicographically on
    the remaining off-diagonal magnitudes.  Phase convention: conjugation
    by a diagonal unitary makes every superdiagonal entry real non-negative.
    The applied permutation and phases are returned so that results can be
    mapped back to the original indexing.
    """
    raw = entries if isinstance(entries, GramMatrix) else GramMatrix(entries)
    g = raw.entries
    m = raw.m
    diag = np.diagonal(g).real

    base = np.argsort(-diag, kind="stable")
    blocks = _tie_blocks(diag, base)
    best_perm, best_key = None, None
    # Ties are rare and blocks small, so brute-force the block permutations.
    for combo in itertools.product(*(itertools.permutations(b) for b in blocks)):
        positions = [p for blk in combo for p in blk]
        perm = base[list(positions)]
        key = _canonical_key(g[np.ix_(perm, perm)])
        if best_key is None or key > best_key:
            best_perm, best_key = perm, key
    perm = np.asarray(best_perm)
    gp = g[np.ix_(perm, perm)]

    # Chain of phases making the superdiagonal real non-negative.
    theta = np.zeros(m)
    for i in range(m - 1):
        entry = gp[i, i + 1]
        theta[i + 1] = theta[i] - (np.angle(entry) if abs(entry) > 1e-15 else 0.0)
    phase = np.exp(1j * theta)
    gc = (phase.conj()[:, None] * gp) * phase[None, :]
    gc = hermitize(gc)
    for i in range(m - 1):
        val = abs(gp[i, i + 1])
        gc[i, i + 1] = val
        gc[i + 1, i] = val
    return CanonicalizedGram(
        gram=GramMatrix(gc), permutation=perm, phases=theta, raw=raw
    )


def raw_gram(ensemble: Ensemble) -> GramMatrix:
    """Gram matrix G_ij = sqrt(p_i p_j) <psi_i|psi_j> in the ensemble's own indexing."""
    scaled = ensemble.scaled_states
    return GramMatrix(hermitize(scaled.conj().T @ scaled))


def gram_from_ensemble(ensemble: Ensemble) -> CanonicalizedGram:
    """Gram matrix of the scaled states, in canonical form.

    The raw matrix (``raw_gram``) is kept alongside the canonical
    representative together with the permutation and phases that relate
    the two.
    """
    return canonicalize(raw_gram(ensemble))


def dual_basis(ensemble: Ensemble) -> DualBasis:
    """The unique set {|u_j>} with <psi~_i|u_j> = delta_ij.

    The columns of the inverse conjugate-transposed scaled-state matrix.
    Its Gram matrix equals G^{-1}.
    """
    scaled = ensemble.scaled_states
    vectors = np.linalg.inv(scaled.conj().T)
    resid = np.max(np.abs(scaled.conj().T @ vectors - np.eye(ensemble.m)))
    if resid > 1e-10:
        raise NearLinearDependence(
            f"dual basis ill-conditioned (biorthogonality residual {resid:.3e})"
        )
    return DualBasis(vectors)


def ensemble_from_gram(gram: GramMatrix) -> Ensemble:
    """Any ensemble realizing the given Gram matrix.

    The columns of the principal square root G^{1/2} serve as the scaled
    states (G^{1/2} being hermitian, their overlap matrix is exactly G);
    probabilities are read off the diagonal.
    """
    scaled = gram.sqrt()
    probs = gram.probs
    states = scaled / np.sqrt(probs)
    return Ensemble(states, probs)


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
