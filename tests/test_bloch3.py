"""Qutrit Bloch coordinates and the geometric audit."""

import numpy as np
import pytest

import medsolve as ms
from medsolve import serialize
from conftest import random_gram, seeded_grams, solve_direct
from medsolve.bloch3 import boundary_form, d_tensor, gell_mann, star, to_bloch
from medsolve.linalg import haar_unitary


def random_pure_qutrit(seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def to_density(n):
    """Inverse of ``to_bloch``: rho = (I + sqrt(3) n.lambda)/3."""
    return (np.eye(3) + np.sqrt(3.0) * np.tensordot(n, gell_mann(), axes=1)) / 3.0


class TestBasis:
    def test_gell_mann_normalization(self):
        lam = gell_mann()
        for j in range(8):
            assert abs(np.trace(lam[j]).real) < 1e-14
            for k in range(8):
                assert abs(np.trace(lam[j] @ lam[k]).real - 2.0 * (j == k)) < 1e-13

    def test_d_tensor_is_totally_symmetric(self):
        d = d_tensor()
        assert np.max(np.abs(d - d.transpose(1, 0, 2))) < 1e-14
        assert np.max(np.abs(d - d.transpose(0, 2, 1))) < 1e-14


class TestBlochMap:
    def test_maximally_mixed_maps_to_zero(self):
        assert np.max(np.abs(to_bloch(np.eye(3) / 3))) < 1e-14

    def test_basis_state_saturates_both_constraints(self):
        n = to_bloch(np.diag([1.0, 0.0, 0.0]).astype(complex))
        assert abs(n @ n - 1.0) < 1e-12
        assert abs(boundary_form(n) - 1.0) < 1e-12

    def test_random_pure_states_saturate_both_constraints(self):
        for seed in range(10):
            n = to_bloch(random_pure_qutrit(seed))
            assert abs(n @ n - 1.0) < 1e-10
            assert abs(boundary_form(n) - 1.0) < 1e-10

    def test_round_trip(self):
        for seed in range(5):
            rho = random_pure_qutrit(seed)
            mixed = 0.6 * rho + 0.4 * np.eye(3) / 3
            assert np.max(np.abs(to_density(to_bloch(mixed)) - mixed)) < 1e-12

    def test_rejects_bad_input(self):
        for rho, message in [
            (np.eye(3), "expected trace 1"),
            (np.eye(2) / 2, "expected a 3x3 matrix"),
            (np.triu(np.ones((3, 3))) / 3, "expected a hermitian matrix"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                to_bloch(rho)

    def test_orthonormal_basis_vectors_sum_to_zero(self):
        # the projectors sum to I, and I/3 maps to 0
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = haar_unitary(rng, 3)
            total = sum(to_bloch(np.outer(v[:, i], v[:, i].conj())) for i in range(3))
            assert np.max(np.abs(total)) < 1e-14


class TestStarProduct:
    def test_zero_annihilates(self):
        n = to_bloch(random_pure_qutrit(0))
        assert np.max(np.abs(star(n, np.zeros(8)))) < 1e-15

    def test_bilinear_and_symmetric(self):
        rng = np.random.default_rng(9)
        x, y, z = rng.normal(size=(3, 8))
        assert np.max(np.abs(star(x, y) - star(y, x))) < 1e-12
        lhs = star(x, 2.0 * y + z)
        rhs = 2.0 * star(x, y) + star(x, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_pure_state_cubic_identity(self):
        for seed in range(5):
            n = to_bloch(random_pure_qutrit(seed + 20))
            assert abs((3.0 * n - 2.0 * star(n, n)) @ n - 1.0) < 1e-10


class TestGeometricAudit:
    def test_orthogonal_equiprobable_case(self):
        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        povm = ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT)
        report = ms.geometric_audit(ens, povm)
        assert report.passed
        assert report.k0 == pytest.approx(1.0, abs=1e-12)
        # Z = I/3, so sigma_i = (I - rho_i)/2 has s_i = -n_i/2 and k = 0
        margins = report.strict_margins
        assert margins["sigma_norm_interior"] == pytest.approx(0.75, abs=1e-12)
        assert margins["dual_weight_lower"] == pytest.approx(2 / 3 + report.tol, abs=1e-12)
        assert margins["dual_norm_interior"] == pytest.approx(1.0, abs=1e-12)
        assert margins["dual_boundary"] == pytest.approx(1.0 + report.tol, abs=1e-12)

    def test_reports_exactly_the_conditions_that_can_fail(self):
        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        report = ms.geometric_audit(ens, ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))
        assert set(report.residuals) == {"sigma_boundary", "orthogonality"}
        assert set(report.strict_margins) == {
            "sigma_norm_interior", "dual_weight_lower", "dual_norm_interior", "dual_boundary",
        }

    @pytest.mark.parametrize("real", [True, False])
    def test_only_the_optimum_passes(self, real):
        rng = np.random.default_rng(12)
        for gram in seeded_grams(3, 12, 1300 if real else 1400, real=real):
            realization = ms.ensemble_from_gram(gram)
            v = solve_direct(gram, steps=100, h=1e-2, polish=True).final_povm.vectors
            assert ms.geometric_audit(realization, ms.Povm(v)).passed
            assert not ms.geometric_audit(realization, ms.Povm(v[:, [1, 2, 0]])).passed
            haar = ms.Povm(haar_unitary(rng, 3, real=real))
            assert not ms.geometric_audit(realization, haar).passed

    def test_solver_output_passes(self):
        for seed, real in ((0, True), (1, False), (2, True)):
            gram = random_gram(3, seed + 500, real=real)
            report = solve_direct(gram)
            realization = ms.ensemble_from_gram(gram)
            audit = ms.geometric_audit(realization, report.final_povm)
            assert audit.passed
            assert max(audit.residuals.values()) < 1e-8

    def test_rank_two_complements_sit_on_boundary_strictly_inside_ball(self):
        gram = random_gram(3, seed=503)
        report = solve_direct(gram)
        realization = ms.ensemble_from_gram(gram)
        audit = ms.geometric_audit(realization, report.final_povm)
        assert audit.residuals["sigma_boundary"] < 1e-8
        assert audit.strict_margins["sigma_norm_interior"] > 0.01

    def test_perturbed_measurement_fails_loudly(self):
        gram = random_gram(3, seed=504)
        report = solve_direct(gram)
        realization = ms.ensemble_from_gram(gram)
        rng = np.random.default_rng(10)
        k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        k = 0.5 * (k - k.conj().T)
        w, v = np.linalg.eigh(1j * k)
        q = (v * np.exp(-1j * 1e-3 * w)) @ v.conj().T
        bent = ms.Povm(q @ report.final_povm.vectors, frame=ms.FRAME_DUAL)
        audit = ms.geometric_audit(realization, bent)
        assert not audit.passed
        assert audit.residuals["orthogonality"] > 1e-4

    def test_verdict_cannot_be_edited(self):
        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        report = ms.geometric_audit(ens, ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))
        assert report.passed
        with pytest.raises(TypeError):
            report.residuals["orthogonality"] = 1.0
        with pytest.raises(TypeError):
            report.strict_margins["dual_boundary"] = -1.0
        payload = serialize.audit_to_dict(report)
        payload["residuals"]["orthogonality"] = 1.0
        payload["strict_margins"]["dual_boundary"] = -1.0
        assert report.passed and report.residuals["orthogonality"] < 1e-12

    def test_keeps_a_copy_of_its_mappings(self):
        residuals = {"orthogonality": 0.0}
        report = ms.AuditReport(k0=1.0, residuals=residuals, strict_margins={}, tol=1e-8)
        residuals["orthogonality"] = 1.0
        assert report.passed

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-8])
    def test_rejects_bad_tolerance(self, tol):
        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        povm = ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT)
        with pytest.raises(ValueError, match="tol"):
            ms.geometric_audit(ens, povm, tol=tol)

    def test_requires_three_states(self):
        ens = ms.Ensemble(np.eye(2), np.array([0.5, 0.5]))
        povm = ms.Povm(np.eye(2), frame=ms.FRAME_AMBIENT)
        with pytest.raises(ValueError):
            ms.geometric_audit(ens, povm)
