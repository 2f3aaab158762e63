"""Measurement construction and its success probability."""

import numpy as np
import pytest

import medsolve as ms
from conftest import identity_gram, random_gram
from medsolve.linalg import haar_unitary, unitarity_residual


def circulant_gram_m3(off=0.08):
    row = np.array([1 / 3, off, off])
    entries = np.stack([np.roll(row, k) for k in range(3)])
    return ms.GramMatrix(entries + 0j)


def p_success(g, u):
    """Success probability of the measurement U, from its certificate."""
    return ms.certify_povm(ms.ensemble_from_gram(g), ms.povm_from_unitary(g, u)).p_success


class TestPovmFromUnitary:
    def test_orthogonal_case_returns_the_states(self):
        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        povm = ms.povm_from_unitary(identity_gram(3), np.eye(3), ensemble=ens)
        assert np.max(np.abs(povm.vectors - ens.states)) < 1e-12
        assert povm.frame == ms.FRAME_AMBIENT

    def test_ambient_basis_is_the_dual_basis_times_sqrt_g_u(self):
        ens = ms.random_ensemble(4, seed=22, spread=0.6)
        g = ms.raw_gram(ens)
        u = haar_unitary(np.random.default_rng(3), 4)
        povm = ms.povm_from_unitary(g, u, ensemble=ens)
        # the dual basis {|u_j>}, <psi~_i|u_j> = delta_ij: the inverse of S^dag
        dual = np.linalg.inv(ens.scaled_states.conj().T)
        assert np.max(np.abs(povm.vectors - dual @ g.sqrt() @ u)) < 1e-13

    def test_near_dependent_ambient_basis_stays_orthonormal(self):
        # min eig G 2.0e-8: the dual basis times G^{1/2} U is off by 2.8e-9
        theta = 3.1e-4
        ens = ms.Ensemble(np.array([[1.0, np.cos(theta)], [0.0, np.sin(theta)]]),
                          np.array([0.3, 0.7]))
        povm = ms.povm_from_unitary(ms.raw_gram(ens), np.eye(2), ensemble=ens)
        assert unitarity_residual(povm.vectors) < 1e-14

    def test_orthonormality_residual(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            g = random_gram(4, seed + 100)
            u = haar_unitary(rng, 4)
            povm = ms.povm_from_unitary(g, u)
            overlaps = povm.vectors.conj().T @ povm.vectors
            assert np.max(np.abs(overlaps - np.eye(4))) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ms.NotUnitary):
            ms.povm_from_unitary(identity_gram(3), np.eye(3) * 1.01)

    @pytest.mark.parametrize("vectors", [np.eye(3)[:, :2], np.ones(3), np.ones((1, 2, 2))],
                             ids=["3x2", "1-d", "3-d"])
    def test_povm_basis_must_be_square(self, vectors):
        with pytest.raises(ValueError, match="^measurement basis must be a square matrix$"):
            ms.Povm(vectors)

    def test_povm_frame_must_be_known(self):
        with pytest.raises(ValueError, match="^unknown frame 'bogus'$"):
            ms.Povm(np.eye(2), frame="bogus")

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (9,)])
    def test_rejects_a_unitary_of_another_shape(self, shape):
        with pytest.raises(ValueError, match="^unitary must be 3x3$"):
            ms.povm_from_unitary(identity_gram(3), np.ones(shape))

    def test_rejects_a_gram_matrix_of_another_ensemble(self):
        ens = ms.random_ensemble(3, seed=22, spread=0.6)
        with pytest.raises(ValueError, match=r"^gram matrix does not match the ensemble \(max"):
            ms.povm_from_unitary(identity_gram(3), np.eye(3), ensemble=ens)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        with pytest.raises(ms.NotUnitary):
            ms.Povm(np.full((3, 3), value))
        with pytest.raises(ms.NotUnitary):
            ms.povm_from_unitary(identity_gram(3), np.full((3, 3), value))

    def test_phase_freedom_leaves_success_unchanged(self):
        g = random_gram(3, seed=4)
        rng = np.random.default_rng(1)
        u = haar_unitary(rng, 3)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        assert abs(p_success(g, u) - p_success(g, u @ np.diag(phases))) < 1e-12

    def test_definition_consistency(self):
        # recomputing <psi~_i|v_j> must give back (G^{1/2} U)_{ij}
        g = random_gram(4, seed=21)
        ens = ms.ensemble_from_gram(g)
        rng = np.random.default_rng(2)
        u = haar_unitary(rng, 4)
        povm = ms.povm_from_unitary(g, u, ensemble=ens)
        overlaps = ens.scaled_states.conj().T @ povm.vectors
        assert np.max(np.abs(overlaps - g.sqrt() @ u)) < 1e-10


class TestPgm:
    def test_orthogonal_ensemble_is_perfect(self):
        assert abs(p_success(identity_gram(4), np.eye(4)) - 1.0) < 1e-12

    def test_equiprobable_pair_matches_closed_form(self):
        # for two equiprobable states the square-root measurement is optimal
        for overlap in (0.2, 0.5, 0.8):
            entries = 0.5 * np.array([[1.0, overlap], [overlap, 1.0]])
            g = ms.GramMatrix(entries + 0j)
            pgm_ps = p_success(g, np.eye(2))
            expected = ms.helstrom(0.5, 0.5, overlap).p_success
            assert abs(pgm_ps - expected) < 1e-12

    def test_circulant_gram_pgm_is_globally_optimal(self):
        g = circulant_gram_m3()
        ens = ms.ensemble_from_gram(g)
        povm = ms.povm_from_unitary(g, np.eye(3))
        cert = ms.certify_povm(ens, povm)
        assert cert.is_optimal, cert


class TestSuccessProbability:
    def test_trivial(self):
        assert p_success(identity_gram(5), np.eye(5)) == pytest.approx(1.0)

    def test_equiprobable_overlap_06(self):
        entries = 0.5 * np.array([[1.0, 0.6], [0.6, 1.0]])
        g = ms.GramMatrix(entries + 0j)
        assert abs(p_success(g, np.eye(2)) - 0.9) < 1e-12

    def test_povm_route_agrees_with_gram_route(self):
        # the ambient-frame measurement on the ensemble attains sum_i |(G^{1/2} U)_ii|^2
        g = random_gram(3, seed=60)
        ens = ms.ensemble_from_gram(g)
        rng = np.random.default_rng(4)
        u = haar_unitary(rng, 3)
        direct = float(np.sum(np.abs(np.diagonal(g.sqrt() @ u)) ** 2))
        via_povm = ms.certify_povm(ens, ms.povm_from_unitary(g, u, ensemble=ens)).p_success
        assert abs(direct - via_povm) < 1e-10
