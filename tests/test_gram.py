"""Ensemble and Gram-matrix data model."""

import numpy as np
import pytest

import medsolve as ms
from conftest import identity_gram, random_gram


def orthogonal_ensemble(m, probs=None):
    probs = np.full(m, 1.0 / m) if probs is None else np.asarray(probs)
    return ms.Ensemble(np.eye(m), probs)


class TestGramFromEnsemble:
    def test_orthogonal_pair_gives_diagonal(self):
        ens = orthogonal_ensemble(2)
        assert np.allclose(ms.raw_gram(ens).entries, np.diag([0.5, 0.5]), atol=1e-14)

    def test_reference_five_state_matrix_reproduced_verbatim(self):
        gram = ms.reference_five_state_gram()
        assert abs(np.trace(gram.entries).real - 1.0) < 1e-14
        ens = ms.ensemble_from_gram(gram)
        assert np.max(np.abs(ms.raw_gram(ens).entries - gram.entries)) < 1e-12

    def test_real_three_state_arithmetic(self):
        # states with pairwise overlap 0.2, priors (1/2, 1/4, 1/4)
        overlap = np.full((3, 3), 0.2) + 0.8 * np.eye(3)
        states = np.linalg.cholesky(overlap).T.conj()
        probs = np.array([0.5, 0.25, 0.25])
        ens = ms.Ensemble(states, probs)
        g = ms.raw_gram(ens).entries
        assert np.allclose(np.diagonal(g).real, [0.5, 0.25, 0.25], atol=1e-12)
        assert abs(g[0, 1] - np.sqrt(1 / 8) * 0.2) < 1e-12
        # brute-force inner products reproduce every entry
        scaled = ens.scaled_states
        for i in range(3):
            for j in range(3):
                acc = sum(np.conj(scaled[k, i]) * scaled[k, j] for k in range(3))
                assert abs(g[i, j] - acc) < 1e-12

    def test_rejects_near_dependence(self):
        states = np.eye(3)
        states[:, 2] = states[:, 0] + 1e-9 * states[:, 2]
        states[:, 2] /= np.linalg.norm(states[:, 2])
        with pytest.raises(ms.NearLinearDependence):
            ms.Ensemble(states, np.full(3, 1 / 3))

    def test_one_ensemble_validates_one_gram_matrix(self, monkeypatch):
        calls = []
        check = ms.GramMatrix.__post_init__

        def counted(self):
            calls.append(1)
            check(self)

        monkeypatch.setattr(ms.GramMatrix, "__post_init__", counted)
        ens = ms.random_ensemble(5, seed=4, spread=0.7)
        assert ms.raw_gram(ens) is ms.raw_gram(ens)
        assert len(calls) == 1

    def test_diagonal_is_probability_vector(self):
        ens = ms.random_ensemble(4, seed=3, spread=0.7)
        assert np.allclose(ms.raw_gram(ens).probs, ens.probs, atol=1e-14)


class TestEnsembleFromGram:
    def test_identity_over_m(self):
        ens = ms.ensemble_from_gram(identity_gram(4))
        assert np.allclose(ens.probs, 0.25, atol=1e-14)
        overlaps = ens.states.conj().T @ ens.states
        assert np.max(np.abs(overlaps - np.eye(4))) < 1e-12

    def test_reference_round_trip(self):
        gram = ms.reference_five_state_gram()
        back = ms.raw_gram(ms.ensemble_from_gram(gram))
        assert np.linalg.norm(back.entries - gram.entries) < 1e-10

    def test_probability_readoff(self):
        gram = random_gram(3, seed=9)
        ens = ms.ensemble_from_gram(gram)
        assert np.allclose(ens.probs, gram.probs, atol=1e-14)

    def test_round_trip_property(self):
        for seed in range(8):
            gram = random_gram(3 + seed % 3, seed + 40, spread=0.5 + 0.05 * seed)
            back = ms.raw_gram(ms.ensemble_from_gram(gram))
            assert np.linalg.norm(back.entries - gram.entries) < 1e-10


class TestRandomEnsemble:
    def test_deterministic_in_seed(self):
        a = ms.random_ensemble(3, seed=7, spread=0.5)
        b = ms.random_ensemble(3, seed=7, spread=0.5)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.probs, b.probs)

    def test_small_spread_approaches_orthogonal(self):
        for seed in (0, 1, 2):
            ens = ms.random_ensemble(2, seed=seed, spread=1e-6)
            g = ms.raw_gram(ens).entries
            assert np.max(np.abs(g - np.eye(2) / 2)) < 1e-5

    def test_large_spread_stays_independent(self):
        g = ms.raw_gram(ms.random_ensemble(5, seed=1, spread=0.9))
        assert np.linalg.eigvalsh(g.entries)[0] > ms.EPS_LI

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ms.random_ensemble(1, seed=0, spread=0.5)
        with pytest.raises(ValueError):
            ms.random_ensemble(3, seed=0, spread=0.0)


class TestValidation:
    def test_gram_must_be_hermitian(self):
        bad = np.eye(3) / 3
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            ms.GramMatrix(bad)

    def test_gram_must_have_unit_trace(self):
        with pytest.raises(ValueError):
            ms.GramMatrix(np.eye(3))

    def test_gram_must_be_positive_definite(self):
        entries = np.diag([0.6, 0.4, 0.0])
        with pytest.raises(ms.NearLinearDependence):
            ms.GramMatrix(entries + 0j)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ms.Ensemble(np.eye(2), np.array([0.6, 0.6]))

    def test_states_must_be_normalized(self):
        states = np.eye(2) * 1.5
        with pytest.raises(ValueError):
            ms.Ensemble(states, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_are_rejected(self, value):
        entries = np.eye(2) / 2
        entries[0, 1] = entries[1, 0] = value
        with pytest.raises(ValueError, match="finite"):
            ms.GramMatrix(entries)
        with pytest.raises(ValueError, match="finite"):
            ms.Ensemble(np.eye(2), np.array([value, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            ms.Ensemble(np.array([[1.0, value], [0.0, 1.0]]), np.array([0.5, 0.5]))

    def test_arrays_are_immutable(self):
        gram = identity_gram(3)
        with pytest.raises(ValueError):
            gram.entries[0, 0] = 1.0
