"""Reference: geometrically uniform ensembles, whose optimum has a closed form.

Equal priors and a hermitian circulant Gram matrix G_jk = c_{(k-j) mod m} with
c_0 = 1/m make a geometrically uniform (GU) ensemble: one unitary maps each
state to the next.  With w = exp(2 pi i / m) the eigenvalues of G are
mu_k = sum_l c_l w^{lk}, and when they are all positive the pretty-good
measurement (PGM, U = I in the dual frame) is optimal, with success
probability P = (sum_k sqrt(mu_k))^2 / m (Ban, Kurokawa, Momose & Hirota,
Int. J. Theor. Phys. 36, 1269 (1997); Eldar & Forney, IEEE TIT 47, 858
(2001)).  The references below come from discrete Fourier transforms alone,
so they share no code with the drag or with the certifier's square roots.
"""

import numpy as np
import pytest

import medsolve as ms
from conftest import solve_direct

CASES = [5, 16, pytest.param(32, marks=pytest.mark.slow)]


def _circulant(c: np.ndarray) -> np.ndarray:
    """The matrix with entries c_{(k-j) mod m} at (j, k)."""
    m = c.shape[0]
    return c[(np.arange(m)[None, :] - np.arange(m)[:, None]) % m]


def _first_row(mu: np.ndarray, real: bool) -> np.ndarray:
    """c_l = (1/m) sum_k mu_k w^{-lk}, made exactly hermitian (c_{m-l} = conj c_l),
    and exactly real and symmetric when ``real``."""
    m = mu.shape[0]
    c = np.fft.fft(mu) / m
    if real:
        c = c.real
    for lag in range(1, (m + 1) // 2):
        c[m - lag] = np.conj(c[lag])
    if m % 2 == 0:
        c[m // 2] = c[m // 2].real
    return c


def _gu_problem(m: int, real: bool, low: float = 0.5) -> tuple[np.ndarray, np.ndarray, float]:
    """First rows of G and of G^{1/2}, and the optimum P, for eigenvalues drawn
    from [low, 1] and normalized to trace 1."""
    rng = np.random.default_rng(1000 + 2 * m + real)
    mu = rng.uniform(low, 1.0, m)
    if real:  # mu_k = mu_{m-k} makes c real
        mu = 0.5 * (mu + np.roll(mu[::-1], 1))
    mu = mu / mu.sum()
    c = _first_row(mu, real)
    c[0] = 1.0 / m
    mu = (m * np.fft.ifft(c)).real  # the eigenvalues of the G actually built
    assert mu.min() > 0.0
    return c, _first_row(np.sqrt(mu), real), float(np.sum(np.sqrt(mu)) ** 2 / m)


def _drag(m: int, real: bool, low: float = 0.5) -> tuple[ms.Certificate, float]:
    """The plain 200-step drag's certificate at the GU matrix, and P."""
    c, _, p = _gu_problem(m, real, low)
    gram = ms.GramMatrix(_circulant(c))
    assert np.array_equal(np.diagonal(gram.entries), np.full(m, 1.0 / m))
    assert gram.entries.imag.any() != real  # exact zeros: the drag runs in real arithmetic
    return solve_direct(gram, steps=200, h=5e-3).certificate, p


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("m", CASES)
def test_drag_reaches_the_closed_form(m, real):
    cert, p = _drag(m, real)
    assert cert.is_optimal
    assert abs(cert.tr_z - p) <= 1e-12
    assert abs(cert.p_success - p) <= 1e-12


@pytest.mark.parametrize("m", [5, 16])
def test_attained_value_on_a_wide_spectrum(m):
    # eigenvalues from [0.1, 1]: the measurement's value tr_z stays at rounding level
    cert, p = _drag(m, real=False, low=0.1)
    assert cert.is_optimal
    assert abs(cert.tr_z - p) <= 1e-12


@pytest.mark.parametrize("m", [5, 16])
def test_reported_p_success_on_a_wide_spectrum(m):
    # the reported value is the written measurement's, not the drag's sum a^2,
    # which carries the integration error (2e-12 at m = 5)
    cert, p = _drag(m, real=False, low=0.1)
    assert abs(cert.p_success - p) <= 1e-12


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("m", CASES)
def test_pretty_good_measurement_is_certified_optimal(m, real):
    # the canonical realization: the scaled states are the columns of G^{1/2}
    _, root, p = _gu_problem(m, real)
    ensemble = ms.Ensemble(np.sqrt(m) * _circulant(root), np.full(m, 1.0 / m))
    cert = ms.certify_povm(ensemble, ms.Povm(np.eye(m), frame=ms.FRAME_DUAL))
    assert cert.is_optimal
    assert abs(cert.p_success - p) <= 1e-12
    assert abs(cert.tr_z - p) <= 1e-12
