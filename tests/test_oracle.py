"""Independent ground-truth solvers."""

import numpy as np
import pytest

import medsolve as ms
from medsolve import ascent
from conftest import helstrom_angle_scan, identity_gram, random_gram


class TestHelstrom:
    def test_orthogonal_pair_is_perfect(self):
        assert ms.helstrom(0.5, 0.5, 0.0).p_success == pytest.approx(1.0, abs=1e-15)

    def test_equiprobable_overlap_06(self):
        result = ms.helstrom(0.5, 0.5, 0.6)
        assert result.p_success == pytest.approx(0.9, abs=1e-12)

    def test_skewed_priors_value(self):
        result = ms.helstrom(0.9, 0.1, 0.5)
        assert result.p_success == pytest.approx(0.5 * (1.0 + np.sqrt(0.91)), abs=1e-12)

    def test_complex_overlap_uses_modulus(self):
        a = ms.helstrom(0.7, 0.3, 0.4 * np.exp(1j * 1.1))
        b = ms.helstrom(0.7, 0.3, 0.4)
        assert a.p_success == pytest.approx(b.p_success, abs=1e-14)

    def test_measurement_achieves_the_value_and_certifies(self):
        for p1, c in ((0.5, 0.6), (0.9, 0.5), (0.35, 0.25 + 0.3j)):
            result = ms.helstrom(p1, 1.0 - p1, c)
            psi1 = np.array([1.0, 0.0], dtype=complex)
            psi2 = np.array([c, np.sqrt(1.0 - abs(c) ** 2)], dtype=complex)
            ens = ms.Ensemble(np.stack([psi1, psi2], axis=1), np.array([p1, 1.0 - p1]))
            cert = ms.certify_povm(ens, result.povm)
            assert abs(cert.p_success - result.p_success) < 1e-12
            assert cert.stationarity_residual < 1e-6
            assert cert.global_min_eig > -1e-6

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            ms.helstrom(0.6, 0.5, 0.1)
        with pytest.raises(ValueError):
            ms.helstrom(0.5, 0.5, 1.0)

    @pytest.mark.parametrize("p1, p2", [(np.nan, 0.5), (0.5, np.nan), (np.nan, np.nan)])
    def test_rejects_nan_priors(self, p1, p2):
        with pytest.raises(ValueError, match="priors"):
            ms.helstrom(p1, p2, 0.3)

    @pytest.mark.parametrize("overlap", [complex("nan"), np.nan, complex(0.3, np.nan)])
    def test_rejects_nan_overlap(self, overlap):
        with pytest.raises(ValueError, match="overlap"):
            ms.helstrom(0.5, 0.5, overlap)


class TestAngleScan:
    def test_closed_form_pre_verification(self):
        # brute force over rank-one projective measurements in the real span
        cases = [(0.5, 0.5, 0.6), (0.9, 0.1, 0.5), (0.65, 0.35, 0.3 + 0.4j)]
        for p1, p2, c in cases:
            scan = helstrom_angle_scan(p1, p2, c, n_points=1_000_000)
            closed = ms.helstrom(p1, p2, c).p_success
            assert abs(scan - closed) < 1e-6
            assert scan <= closed + 1e-12


class TestSearchOptimum:
    def test_orthogonal_case(self):
        result = ms.search_optimum(identity_gram(3), seed=0)
        assert result.p_success == pytest.approx(1.0, abs=1e-9)
        assert result.convergence.grad_norm < 1e-7

    def test_cost_guard(self):
        with pytest.raises(ValueError):
            ms.search_optimum(identity_gram(5), seed=0)

    def test_deterministic_in_seed(self):
        g = random_gram(3, seed=600)
        a = ms.search_optimum(g, seed=42)
        b = ms.search_optimum(g, seed=42)
        assert a.p_success == b.p_success
        assert np.array_equal(a.povm.vectors, b.povm.vectors)

    def test_matches_helstrom_across_seeds(self):
        for seed in range(50):
            ens = ms.random_ensemble(2, seed=seed, spread=0.25 + 0.014 * seed)
            gram = ms.raw_gram(ens)
            overlap = np.vdot(ens.states[:, 0], ens.states[:, 1])
            closed = ms.helstrom(ens.probs[0], ens.probs[1], overlap).p_success
            searched = ms.search_optimum(gram, seed=seed).p_success
            assert abs(closed - searched) < 1e-7, f"seed {seed}"

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(ascent, "MAX_ITER", 1)
        with pytest.raises(ms.NoConvergence, match="^corrector stopped at iteration 1 "):
            ms.search_optimum(random_gram(3, seed=620), seed=0)

    def test_output_is_always_stationary(self):
        for seed in range(5):
            gram = random_gram(3, seed + 610)
            result = ms.search_optimum(gram, seed=seed)
            realization = ms.ensemble_from_gram(gram)
            assert ms.certify_povm(realization, result.povm).stationarity_residual < 1e-6
