"""Byte-identity guard for rewrites of the certificate layer.

The functions below are verbatim copies of ``certify_gram``,
``_hermitian_factor``, ``_certify``, ``certificate_to_dict`` and
``audit_to_dict`` as they stood when ``certify_gram`` built the diagonal
scale matrix D = diag(sqrt(F_ii)) with ``np.diag``, wrote its own F^2 - DGD
residual and LU-solved D X = F; when ``_hermitian_factor`` multiplied by
``np.diag(d)``; when ``Certificate`` stored ``f_positive``; and when the
serializers listed every field by hand.  Scaling rows by a vector performs
the same floating-point operations as those dense products and that solve,
so the live code must reproduce these copies bit for bit: the gate's
residual, every certificate field, the returned U, the ``json.dumps`` text
and the errors with their messages.  The one exception is the sign of a zero imaginary part in the
factor of ``_hermitian_factor``, which the matrix product's accumulation of
exact zeros set and the row scaling does not; the values are equal, and so
is the spectrum (checked bitwise through ``f_min_eig``).  A later rewrite
that reorders roundoff has to say so here.

``certify_gram`` has since stopped taking ``p_success`` (sum a^2) and the
factor (hermitize(F)) from the F it is given: it reads them off the overlap
matrix of the measurement it returns, as ``certify_povm`` does.  That
changes those two fields (and ``f_positive`` with ``f_min_eig``) by the
difference between F and the factor of the snapped U.  They are compared
bitwise with the frozen ``_certify`` fed the frozen ``certify_povm``'s
overlap, factor and success probability at the frozen copy's U and
G^{1/2}; every other field, U, the gate and its errors still match the
frozen ``certify_gram`` bit for bit.
"""

import json
import types

import numpy as np
import pytest

import medsolve as ms
from conftest import random_gram, solve_direct
from medsolve import certify, serialize
from medsolve.certify import RESIDUAL_GATE, _global_min_eig, _raw_z, _stationarity_residual
from medsolve.exceptions import ResidualTooLarge
from medsolve.linalg import haar_unitary, hermitize, hs_norm, polar_unitary

# ---------------------------------------------------------------- frozen copies


def _hermitian_factor(overlaps: np.ndarray) -> np.ndarray:
    """Candidate factor F = D W from the overlap matrix, with per-outcome
    phases fixed so the diagonal of W is real non-negative."""
    diag = np.diagonal(overlaps).copy()
    diag[np.abs(diag) < 1e-15] = 1.0
    phases = diag / np.abs(diag)
    w = overlaps * phases.conj()[None, :]
    d = np.diagonal(w).real
    return hermitize(np.diag(d) @ w)


def _certify(
    scaled: np.ndarray, vectors: np.ndarray, o: np.ndarray, f: np.ndarray, p_success: float
) -> dict:
    """The stored fields of the former ``Certificate``, f_positive included."""
    z = hermitize(_raw_z(scaled, vectors, o))
    f_min = float(np.linalg.eigvalsh(f)[0])
    return dict(
        stationarity_residual=_stationarity_residual(o),
        global_min_eig=_global_min_eig(scaled, z),
        f_min_eig=f_min,
        f_positive=f_min > 0.0,
        p_success=p_success,
        tr_z=float(np.trace(z).real),
    )


def certify_gram(gram: ms.GramMatrix, f: np.ndarray) -> tuple[dict, np.ndarray]:
    f = np.asarray(f, dtype=complex)
    if not np.all(np.isfinite(f)):  # first, so None (a 0-d NaN here) reads as non-finite
        raise ValueError("factor F must be finite")
    if f.shape != gram.entries.shape:
        raise ValueError(f"factor F has shape {f.shape}, the Gram matrix has {gram.entries.shape}")
    if np.max(np.abs(f - f.conj().T)) > 1e-10:
        raise ValueError("factor F must be hermitian")
    a_sq = np.diagonal(f).real
    if np.any(a_sq <= 0.0):
        raise ValueError("factor F must have positive diagonal")
    d = np.diag(np.sqrt(a_sq))
    resid = hs_norm(f @ f - d @ gram.entries @ d)
    if resid > RESIDUAL_GATE:
        raise ResidualTooLarge(
            f"F^2 - DGD has HS norm {resid:.3e} (gate {RESIDUAL_GATE:.1e})"
        )
    u = polar_unitary(gram.inv_sqrt() @ np.linalg.solve(d, f))
    r = gram.sqrt()
    cert = _certify(r, u, r.conj().T @ u, hermitize(f), float(np.sum(a_sq)))
    return cert, u


def certificate_to_dict(cert) -> dict:
    return {
        "stationarity_residual": cert.stationarity_residual,
        "global_min_eig": cert.global_min_eig,
        "f_min_eig": cert.f_min_eig,
        "f_positive": cert.f_positive,
        "p_success": cert.p_success,
        "tr_z": cert.tr_z,
        "tol_stat": cert.tol_stat,
        "tol_glb": cert.tol_glb,
        "status": cert.status,
    }


def audit_to_dict(report) -> dict:
    return {
        "k0": report.k0,
        "residuals": dict(sorted(report.residuals.items())),
        "strict_margins": dict(sorted(report.strict_margins.items())),
        "tol": report.tol,
        "passed": report.passed,
    }


# ---------------------------------------------------------------- comparisons


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _same_array(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _assert_same_certificate(cert: ms.Certificate, frozen: dict, label: str) -> None:
    """Every field bit for bit (repr of a float is exact, -0.0 and NaN included),
    and the serialized text of the two."""
    for name, want in frozen.items():
        got = getattr(cert, name)
        assert type(got) is type(want) and repr(got) == repr(want), f"{label}: {name}"
    old = types.SimpleNamespace(**frozen, tol_stat=cert.tol_stat, tol_glb=cert.tol_glb,
                                status=cert.status)
    assert _dumps(serialize.certificate_to_dict(cert)) == _dumps(certificate_to_dict(old)), label


def _outcome(certifier, gram, f):
    try:
        return certifier(gram, f)
    except (ValueError, ResidualTooLarge) as exc:
        return exc


def _assert_same_certify_gram(gram: ms.GramMatrix, f: np.ndarray, label: str) -> str:
    """Live and frozen ``certify_gram`` agree on (f, gram); the status, or the error class."""
    got, want = _outcome(ms.certify_gram, gram, f), _outcome(certify_gram, gram, f)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), label
        return type(want).__name__
    (cert, povm), (frozen, u) = got, want
    # p_success and the factor fields are those of the measurement U at G^{1/2}
    r = gram.sqrt()
    o = r.conj().T @ u
    attained = _certify(r, u, o, _hermitian_factor(o), float(np.sum(np.abs(np.diagonal(o)) ** 2)))
    for name in ("p_success", "f_min_eig", "f_positive"):
        frozen[name] = attained[name]
    _assert_same_certificate(cert, frozen, label)
    assert _same_array(povm.vectors, u), label
    return cert.status


def _drag_optimum(m: int, real: bool) -> tuple[ms.GramMatrix, ms.RunReport]:
    gram = random_gram(m, seed=980 + 10 * m + real, spread=0.6, real=real)
    return gram, solve_direct(gram, steps=100, h=1e-2, polish=True)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("m", range(2, 9))
def test_certify_gram_is_byte_identical(m, real):
    gram, report = _drag_optimum(m, real)
    f = report.final_state.matrix
    rng = np.random.default_rng(990 + 10 * m + real)
    outcomes = []
    for scale in (0.0, 1e-13, 1e-11, 1e-6):
        noise = rng.normal(size=(m, m)) + (0.0 if real else 1j) * rng.normal(size=(m, m))
        factor = f + scale * (noise + noise.conj().T)
        # the gate's residual, also in the digits its message does not print
        fc = factor.astype(complex)
        a = np.sqrt(np.diagonal(fc).real)
        d = np.diag(a)
        want = hs_norm(fc @ fc - d @ gram.entries @ d)
        assert repr(certify.factor_residual(a, fc, gram.entries)) == repr(want)
        outcomes.append(_assert_same_certify_gram(gram, factor, f"m={m} scale={scale}"))
    # the drag's optimum certifies; the largest perturbation fails the gate
    assert outcomes[0] == "optimal" and outcomes[-1] == "ResidualTooLarge"


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("m", range(2, 9))
def test_hermitian_factor_and_certify_povm_are_byte_identical(m, real):
    gram, report = _drag_optimum(m, real)
    ensemble = ms.ensemble_from_gram(gram)
    rng = np.random.default_rng(1000 + 10 * m + real)
    bases = [report.final_povm.vectors] + [haar_unitary(rng, m, real=real) for _ in range(4)]
    for k, u in enumerate(bases):
        povm = ms.Povm(u, frame=ms.FRAME_DUAL)
        o = ensemble.scaled_states.conj().T @ povm.vectors
        factor = _hermitian_factor(o)
        live = certify._hermitian_factor(o)
        assert live.dtype == factor.dtype and np.array_equal(live, factor), f"basis {k}"
        p_success = float(np.sum(np.abs(np.diagonal(o)) ** 2))
        frozen = _certify(ensemble.scaled_states, povm.vectors, o, factor, p_success)
        _assert_same_certificate(ms.certify_povm(ensemble, povm), frozen, f"basis {k}")


@pytest.mark.parametrize("seed", range(4))
def test_landscape_roots_certify_byte_identically(seed):
    gram = random_gram(3, seed=1100 + seed, spread=0.9, real=True)
    landscape = ms.classify_landscape(gram)
    statuses = []
    for root in landscape.roots:
        if root.is_real:
            statuses.append(_assert_same_certify_gram(gram, root.factor, f"root {root.values}"))
    assert "optimal" in statuses and len(statuses) >= 2
    payload = serialize.landscape_to_dict(landscape)
    for entry, cert in zip(payload["roots"], landscape.certificates):
        if cert is None:
            assert entry["certificate"] is None
        else:
            assert _dumps(entry["certificate"]) == _dumps(certificate_to_dict(cert))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_audit_json_is_byte_identical(real):
    gram, report = _drag_optimum(3, real)
    ensemble = ms.ensemble_from_gram(gram)
    u = report.final_povm.vectors
    rng = np.random.default_rng(1200 + real)
    passed = set()
    for vectors in (u, u[:, [1, 2, 0]], haar_unitary(rng, 3, real=real)):
        audit = ms.geometric_audit(ensemble, ms.Povm(vectors, frame=ms.FRAME_DUAL))
        assert _dumps(serialize.audit_to_dict(audit)) == _dumps(audit_to_dict(audit))
        passed.add(audit.passed)
    assert passed == {True, False}
