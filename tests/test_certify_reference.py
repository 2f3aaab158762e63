"""The certificate against a plain operator-level reference.

``_reference_certificate`` builds every field the straightforward way: the
stationarity residual as the HS norm of Pi_j (p_j rho_j - p_k rho_k) Pi_k over
all outcome pairs, Z as the sum of m operator products, and the global
condition from one eigendecomposition per weighted state.  The library reads
the same quantities off the overlap matrix O = S^dag V, which reorders
roundoff only: every field must agree to 1e-14, and the fields the library
computes exactly as the reference does (the factor F and the success
probability) bit for bit.  The last test holds ``classify_landscape``, which
certifies each root's factor through ``certify_gram``, to the former root
route: U = G^{-1/2} M D certified against the ``ensemble_from_gram``
realization.  The tests after it hold ``certify_gram`` to ``certify_povm`` of
the measurement it returns, field by field, at drag optima, perturbed
factors and every real landscape root: within a derived bound against the
explicit ``ensemble_from_gram`` ensemble, and exactly against the
``GramMatrix`` itself, whose scaled states are the same G^{1/2}.
"""

import numpy as np
import pytest

import medsolve as ms
from conftest import random_gram, solve_direct
from medsolve.certify import z_operator
from medsolve.linalg import haar_unitary, hermitize, hs_norm, polar_unitary, unitarity_residual

ATOL = 1e-14


def _anti_hermitian_norm(mat):
    return float(np.linalg.norm(0.5 * (mat - mat.conj().T)))


def _reference_z(ensemble, povm):
    scaled = ensemble.scaled_states
    v = povm.vectors
    z = np.zeros((ensemble.m, ensemble.m), dtype=complex)
    for i in range(ensemble.m):
        rho_w = np.outer(scaled[:, i], scaled[:, i].conj())
        z += rho_w @ np.outer(v[:, i], v[:, i].conj())
    return hermitize(z), _anti_hermitian_norm(z)


def _reference_stationarity(ensemble, povm):
    m = ensemble.m
    scaled = ensemble.scaled_states
    v = povm.vectors
    projs = [np.outer(v[:, i], v[:, i].conj()) for i in range(m)]
    weighted = [np.outer(scaled[:, i], scaled[:, i].conj()) for i in range(m)]
    resid = 0.0
    for j in range(m):
        for i in range(m):
            block = projs[j] @ (weighted[j] - weighted[i]) @ projs[i]
            resid = max(resid, hs_norm(block))
    return resid


def _reference_global_min_eig(ensemble, z):
    scaled = ensemble.scaled_states
    worst = np.inf
    for i in range(ensemble.m):
        gap = z - np.outer(scaled[:, i], scaled[:, i].conj())
        worst = min(worst, float(np.linalg.eigvalsh(hermitize(gap))[0]))
    return worst


def _reference_factor(overlaps):
    diag = np.diagonal(overlaps).copy()
    diag[np.abs(diag) < 1e-15] = 1.0
    phases = diag / np.abs(diag)
    w = overlaps * phases.conj()[None, :]
    d = np.diagonal(w).real
    return hermitize(np.diag(d) @ w)


def _reference_certificate(ensemble, povm):
    z, _anti = _reference_z(ensemble, povm)
    o = ensemble.scaled_states.conj().T @ povm.vectors
    f_eigs = np.linalg.eigvalsh(_reference_factor(o))
    return ms.Certificate(
        stationarity_residual=_reference_stationarity(ensemble, povm),
        global_min_eig=_reference_global_min_eig(ensemble, z),
        f_min_eig=float(f_eigs[0]),
        p_success=float(np.sum(np.abs(np.diagonal(o)) ** 2)),
        tr_z=float(np.trace(z).real),
    )


def _cases(m, real):
    """(label, ensemble, povm) in both frames at the optimum, the point with
    outcomes 0 and 1 swapped, and a Haar-random basis."""
    seed = 900 + 10 * m + real
    ambient = ms.random_ensemble(m, seed, 0.6, real=real)
    gram = ms.raw_gram(ambient)
    u_opt = solve_direct(gram).final_povm.vectors
    swap = np.arange(m)
    swap[[0, 1]] = [1, 0]
    points = {
        "optimum": u_opt,
        "swapped": u_opt[:, swap],
        "random": haar_unitary(np.random.default_rng(seed), m, real=real),
    }
    dual = ms.ensemble_from_gram(gram)
    for label, u in points.items():
        yield f"{label}/dual", dual, ms.Povm(u, frame=ms.FRAME_DUAL)
        yield f"{label}/ambient", ambient, ms.povm_from_unitary(gram, u, ensemble=ambient)


def _assert_matches(cert, ref, label):
    for field in ("stationarity_residual", "global_min_eig", "tr_z"):
        got, want = getattr(cert, field), getattr(ref, field)
        assert abs(got - want) <= ATOL, f"{label}: {field} {got!r} vs {want!r}"
    for field in ("f_min_eig", "f_positive", "p_success"):
        assert getattr(cert, field) == getattr(ref, field), f"{label}: {field}"
    assert cert.status == ref.status, label


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_certify_povm_matches_reference(m, real):
    statuses = set()
    for label, ensemble, povm in _cases(m, real):
        cert = ms.certify_povm(ensemble, povm)
        _assert_matches(cert, _reference_certificate(ensemble, povm), label)
        z_ref, anti_ref = _reference_z(ensemble, povm)
        assert np.max(np.abs(z_operator(ensemble, povm) - z_ref)) <= ATOL, label
        # Z - Z^dag is the sum of the HS-orthogonal blocks Pi_j (p_j rho_j - p_k rho_k) Pi_k:
        # the residual is the largest block norm, twice the anti-hermitian norm their root
        # sum of squares
        resid = cert.stationarity_residual
        assert resid - ATOL <= 2.0 * anti_ref <= np.sqrt(m * (m - 1)) * resid + ATOL, label
        statuses.add(cert.status)
    # the inputs reach every branch of the status logic that m allows
    assert statuses == ({"optimal", "stationary", "nonstationary"} if m == 2
                        else {"optimal", "nonstationary"})


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_certify_gram_matches_reference_route(m):
    # the operator-level route: the polar-snapped U as a dual-frame Povm,
    # certified against the realization built by ensemble_from_gram
    gram = random_gram(m, seed=950 + m)
    state = solve_direct(gram).final_state
    cert, _ = ms.certify_gram(gram, state.matrix)
    f = state.matrix
    d = np.diag(np.sqrt(np.diagonal(f).real))
    u = polar_unitary(gram.inv_sqrt() @ np.linalg.solve(d, f))
    ref = _reference_certificate(ms.ensemble_from_gram(gram), ms.Povm(u, frame=ms.FRAME_DUAL))
    for field in ("stationarity_residual", "global_min_eig", "f_min_eig", "p_success", "tr_z"):
        assert abs(getattr(cert, field) - getattr(ref, field)) <= ATOL, field
    assert cert.status == ref.status == "optimal"


def _reference_root_certificate(gram, root):
    # the former root route: U = G^{-1/2} M D, polar-snapped above 1e-10,
    # certified as a dual-frame Povm against the ensemble_from_gram realization
    d = np.diag(1.0 / np.sqrt(root.d_inv_sq))
    u = gram.inv_sqrt() @ (root.symmetric_matrix.real @ d)
    resid = unitarity_residual(u)
    assert resid <= 1e-6
    if resid > 1e-10:
        u = polar_unitary(u)
    return ms.certify_povm(ms.ensemble_from_gram(gram), ms.Povm(u, frame=ms.FRAME_DUAL))


@pytest.mark.parametrize("spread", [0.3, 0.9])
def test_landscape_certificates_match_reference_root_route(spread):
    fields = ("stationarity_residual", "global_min_eig", "f_min_eig", "p_success", "tr_z")
    statuses = set()
    for seed in range(30):
        gram = random_gram(3, seed, spread=spread, real=True)
        landscape = ms.classify_landscape(gram)
        for root, cert in zip(landscape.roots, landscape.certificates):
            if not root.is_real:
                assert cert is None
                continue
            ref = _reference_root_certificate(gram, root)
            label = f"seed {seed}: root {root.values.real}"
            for field in fields:
                got, want = getattr(cert, field), getattr(ref, field)
                assert abs(got - want) <= ATOL, f"{label}: {field} {got!r} vs {want!r}"
            assert cert.f_positive == ref.f_positive == root.is_positive_definite, label
            assert cert.status == ref.status, label
            statuses.add(cert.status)
    assert statuses == {"optimal", "stationary"}


def _two_route_bound(m: int) -> float:
    """How far ``certify_gram`` and ``certify_povm`` of the explicit
    ``ensemble_from_gram`` ensemble may disagree on one U.

    ``certify_gram`` certifies U against G^{1/2}; ``certify_povm`` handed that
    ensemble reads its scaled states, G^{1/2} divided and multiplied back by
    sqrt(p_i), which moves each entry by two roundings, at most eps |R_ai|.
    (Handed the ``GramMatrix`` itself it reads G^{1/2} and agrees exactly.)
    Each route forms O = S^dag U by m-term sums, off by at most m u sqrt(p_i)
    per entry (columns of G^{1/2} have norm sqrt(p_i), those of U norm 1), so
    the two overlap matrices differ by at most (m + 1) eps sqrt(p_i) in row i.
    With sum_i p_i = 1 every field moves by at most 4 times that: p_success
    and Tr Z sum |O_ii|^2 (|O_ii| <= sqrt(p_i)), the stationarity residual is
    a difference of products of two overlaps, and global_min_eig and f_min_eig
    are eigenvalues of matrices that move as much in Frobenius norm (Weyl),
    plus eigvalsh's own backward error of order m eps.
    """
    return 4.0 * (m + 1) * np.finfo(float).eps


def _assert_certifies_its_measurement(gram, f, label):
    cert, povm = ms.certify_gram(gram, f)
    ref = ms.certify_povm(ms.ensemble_from_gram(gram), povm)
    bound = _two_route_bound(gram.m)
    for field in ("stationarity_residual", "global_min_eig", "f_min_eig", "p_success", "tr_z"):
        got, want = getattr(cert, field), getattr(ref, field)
        assert abs(got - want) <= bound, f"{label}: {field} {got!r} vs {want!r}"
    assert cert.f_positive == ref.f_positive and cert.status == ref.status, label
    return cert.status


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("m", range(2, 9))
def test_certify_gram_is_certify_povm_of_its_measurement(m, real):
    gram = random_gram(m, seed=1300 + 10 * m + real, spread=0.6, real=real)
    rng = np.random.default_rng(1400 + 10 * m + real)
    for polish in (False, True):
        f = solve_direct(gram, steps=100, h=1e-2, polish=polish).final_state.matrix
        assert _assert_certifies_its_measurement(gram, f, f"polish={polish}") == "optimal"
        for scale in (1e-11, 1e-9):
            noise = rng.normal(size=(m, m)) + (0.0 if real else 1j) * rng.normal(size=(m, m))
            _assert_certifies_its_measurement(gram, f + scale * (noise + noise.conj().T),
                                              f"polish={polish} scale={scale}")


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("m", range(2, 9))
def test_certify_povm_of_the_gram_is_certify_gram(m, real):
    # one realization: both certifiers read U against gram.scaled_states, the
    # columns of G^{1/2}, so every field agrees exactly, not to a bound
    gram = random_gram(m, seed=1300 + 10 * m + real, spread=0.6, real=real)
    rng = np.random.default_rng(1400 + 10 * m + real)
    for polish in (False, True):
        f = solve_direct(gram, steps=100, h=1e-2, polish=polish).final_state.matrix
        noise = rng.normal(size=(m, m)) + (0.0 if real else 1j) * rng.normal(size=(m, m))
        for factor in (f, f + 1e-9 * (noise + noise.conj().T)):
            cert, povm = ms.certify_gram(gram, factor)
            assert ms.certify_povm(gram, povm) == cert, f"polish={polish}"


@pytest.mark.parametrize("seed", range(3))
def test_landscape_roots_certify_their_measurements(seed):
    gram = random_gram(3, seed=1500 + seed, spread=0.9, real=True)
    statuses = [_assert_certifies_its_measurement(gram, root.factor, f"root {root.values}")
                for root in ms.classify_landscape(gram).roots if root.is_real]
    assert statuses.count("optimal") == 1 and "stationary" in statuses
