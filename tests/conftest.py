"""Shared helpers for the test suite."""

import numpy as np

import medsolve as ms


def identity_gram(m: int) -> ms.GramMatrix:
    return ms.GramMatrix(np.eye(m) / m)


def random_gram(m: int, seed: int, spread: float = 0.6, real: bool = False) -> ms.GramMatrix:
    """Gram matrix of a seeded random ensemble, in the ensemble's own order."""
    ensemble = ms.random_ensemble(m, seed, spread, real=real)
    return ms.raw_gram(ensemble)


def solve_direct(gram: ms.GramMatrix, steps: int = 500, h: float = 2e-3, **kwargs) -> ms.RunReport:
    """Drag from the orthogonal ensemble straight to ``gram``."""
    return ms.rk4_drag(ms.Trajectory(identity_gram(gram.m), gram), steps=steps, h=h, **kwargs)


def seeded_grams(
    m: int,
    count: int,
    base_seed: int,
    real: bool = False,
    spread_min: float = 0.3,
    spread_step: float = 0.02,
    min_eig: float = 0.01,
) -> list[ms.GramMatrix]:
    """Deterministic family of well-conditioned Gram matrices.

    Draws skip ensembles whose smallest eigenvalue falls below ``min_eig``:
    the fixed-step solver's accuracy guarantees hold away from the
    near-dependent boundary (the polish option covers the rest)."""
    grams: list[ms.GramMatrix] = []
    probe = 0
    while len(grams) < count:
        spread = min(spread_min + spread_step * probe, 0.95)
        gram = random_gram(m, base_seed + probe, spread=spread, real=real)
        probe += 1
        if np.linalg.eigvalsh(gram.entries)[0] > min_eig:
            grams.append(gram)
    return grams


def helstrom_angle_scan(
    p1: float, p2: float, overlap: complex, n_points: int = 1_000_000
) -> float:
    """Reference for ``ms.helstrom``: the brute-force two-state optimum by
    scanning rank-one projective measurements in the real span of the pair.

    The overlap phase can be absorbed into one state, and for a real pair
    the optimal basis is real, so a dense scan of the rotation angle is an
    exhaustive and entirely independent check of the closed form.
    """
    c = abs(complex(overlap))
    s = np.sqrt(1.0 - c * c)
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    # basis v1 = (cos, sin), v2 = (-sin, cos); states (1,0) and (c, s)
    ps = p1 * np.cos(theta) ** 2 + p2 * (s * np.cos(theta) - c * np.sin(theta)) ** 2
    return float(np.max(ps))


def overlap_gram_m3(c: float, probs=(0.4, 0.35, 0.25)) -> ms.GramMatrix:
    """Three real states with a strongly overlapping pair; steep ensembles
    for integration-order measurements (min Gram eigenvalue shrinks with c)."""
    psi1 = np.array([1.0, 0.0, 0.0])
    psi2 = np.array([c, np.sqrt(1.0 - c * c), 0.0])
    psi3 = np.array([0.3, 0.25, np.sqrt(1.0 - 0.3**2 - 0.25**2)])
    states = np.stack([psi1, psi2, psi3], axis=1)
    scaled = states * np.sqrt(np.asarray(probs))
    return ms.GramMatrix(scaled.T @ scaled)
