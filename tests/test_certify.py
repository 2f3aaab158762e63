"""Stationarity and global-optimality certification."""

import dataclasses
import re

import numpy as np
import pytest

import medsolve as ms
from conftest import identity_gram, random_gram, solve_direct
from medsolve.certify import z_operator
from medsolve.linalg import haar_unitary


def orthogonal_setup(m=3):
    ens = ms.Ensemble(np.eye(m), np.full(m, 1.0 / m))
    povm = ms.Povm(np.eye(m), frame=ms.FRAME_AMBIENT)
    return ens, povm


def helstrom_setup(p1=0.6, overlap=0.45):
    result = ms.helstrom(p1, 1.0 - p1, overlap)
    psi1 = np.array([1.0, 0.0], dtype=complex)
    psi2 = np.array([overlap, np.sqrt(1.0 - abs(overlap) ** 2)], dtype=complex)
    ens = ms.Ensemble(np.stack([psi1, psi2], axis=1), np.array([p1, 1.0 - p1]))
    return ens, result


class TestZOperator:
    def test_orthogonal_ensemble(self):
        ens, povm = orthogonal_setup()
        z = z_operator(ens, povm)
        assert np.max(np.abs(z - np.eye(3) / 3)) < 1e-14
        assert abs(np.trace(z).real - 1.0) < 1e-14

    def test_two_state_optimum_has_no_duality_gap(self):
        ens, result = helstrom_setup()
        z = z_operator(ens, result.povm)
        assert abs(np.trace(z).real - result.p_success) < 1e-10

    def test_random_basis_is_not_stationary(self):
        ens = ms.ensemble_from_gram(random_gram(3, seed=70))
        u = haar_unitary(np.random.default_rng(5), 3)
        povm = ms.Povm(u, frame=ms.FRAME_DUAL)
        cert = ms.certify_povm(ens, povm)
        assert abs(np.trace(z_operator(ens, povm)).real - cert.p_success) < 1e-12
        assert cert.stationarity_residual > 1e-9


class TestStationarityCheck:
    def test_orthogonal_case_is_exact(self):
        ens, povm = orthogonal_setup()
        assert ms.certify_povm(ens, povm).stationarity_residual < 1e-14

    def test_solver_output_on_reference_case(self):
        gram = ms.reference_five_state_gram()
        report = solve_direct(gram, steps=1000, h=1e-3)
        realization = ms.ensemble_from_gram(gram)
        resid = ms.certify_povm(realization, report.final_povm).stationarity_residual
        assert resid < 1e-10

    def test_rotation_grows_residual_linearly(self):
        gram = random_gram(3, seed=71)
        report = solve_direct(gram)
        realization = ms.ensemble_from_gram(gram)
        rng = np.random.default_rng(6)
        k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        k = 0.5 * (k - k.conj().T)

        def rotated_residual(eps):
            w, v = np.linalg.eigh(1j * k)
            q = (v * np.exp(-1j * eps * w)) @ v.conj().T
            bent = ms.Povm(q @ report.final_povm.vectors, frame=ms.FRAME_DUAL)
            return ms.certify_povm(realization, bent).stationarity_residual

        r1, r2 = rotated_residual(1e-4), rotated_residual(2e-4)
        assert r1 > 1e-7
        assert r2 / r1 == pytest.approx(2.0, rel=0.05)


class TestGlobalCheck:
    def test_orthogonal_case_sits_on_boundary(self):
        ens, povm = orthogonal_setup()
        cert = ms.certify_povm(ens, povm)
        assert abs(cert.global_min_eig) < 1e-12
        assert cert.status == "optimal"

    def test_two_state_optimum_certifies(self):
        ens, result = helstrom_setup()
        cert = ms.certify_povm(ens, result.povm)
        assert cert.global_min_eig >= -1e-10
        assert cert.status == "optimal"

    def test_rejects_a_measurement_of_another_dimension(self):
        ens, _ = orthogonal_setup(3)
        with pytest.raises(ValueError, match="^ensemble and measurement dimensions differ$"):
            ms.certify_povm(ens, ms.Povm(np.eye(2), frame=ms.FRAME_AMBIENT))

    def test_swapped_two_state_point_is_stationary_but_not_global(self):
        ens, result = helstrom_setup()
        swapped = ms.Povm(result.povm.vectors[:, ::-1], frame=ms.FRAME_AMBIENT)
        cert = ms.certify_povm(ens, swapped)
        assert cert.stationarity_residual < 1e-10
        assert cert.global_min_eig < -1e-3
        assert cert.status == "stationary"


class TestCertifyGram:
    def test_trivial_factor(self):
        cert, _ = ms.certify_gram(identity_gram(4), np.eye(4) / 4)
        assert cert.is_optimal
        assert cert.p_success == pytest.approx(1.0, abs=1e-12)
        assert cert.f_positive

    def test_reference_final_factor(self):
        gram = ms.reference_five_state_gram()
        report = solve_direct(gram, steps=1000, h=1e-3)
        cert, _ = ms.certify_gram(gram, report.final_state.matrix)
        assert cert.is_optimal
        assert cert.f_positive
        assert report.final_state.residual(gram) < 1e-14

    def test_swapped_factor_is_rejected_as_non_global(self):
        # the index-swapped two-state stationary point has a hermitian
        # factor with one negative eigenvalue: stationary, not optimal
        ens, result = helstrom_setup()
        gram = ms.raw_gram(ens)
        swapped = ms.Povm(result.povm.vectors[:, ::-1], frame=ms.FRAME_AMBIENT)
        overlaps = ens.scaled_states.conj().T @ swapped.vectors
        diag = np.diagonal(overlaps)
        w = overlaps * (diag / np.abs(diag)).conj()[None, :]
        factor = np.diag(np.diagonal(w).real) @ w
        assert np.max(np.abs(factor - factor.conj().T)) < 1e-10
        cert, _ = ms.certify_gram(gram, factor)
        assert cert.is_stationary
        assert not cert.f_positive
        assert not cert.is_optimal
        assert cert.status == "stationary"

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_factor(self, value):
        f = np.eye(3) / 3
        f[0, 1] = f[1, 0] = value
        with pytest.raises(ValueError, match="finite"):
            ms.certify_gram(identity_gram(3), f)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (1, 3, 3), ()])
    def test_rejects_factor_of_another_shape(self, shape):
        f = np.full(shape, 1.0 / 3)
        pattern = re.escape(f"factor F has shape {shape}, the Gram matrix has (3, 3)")
        with pytest.raises(ValueError, match=f"^{pattern}$"):
            ms.certify_gram(identity_gram(3), f)

    @pytest.mark.parametrize("f, message", [
        (np.eye(3) / 3 + np.triu(np.full((3, 3), 0.01), 1), "factor F must be hermitian"),
        (np.diag([0.5, 0.5, 0.0]), "factor F must have positive diagonal"),
        (np.diag([0.5, 0.6, -0.1]), "factor F must have positive diagonal"),
    ], ids=["upper-triangular", "zero-diagonal", "negative-diagonal"])
    def test_rejects_a_factor_that_is_not_a_candidate(self, f, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ms.certify_gram(identity_gram(3), f)

    def test_rejects_large_residual(self):
        with pytest.raises(ms.ResidualTooLarge):
            ms.certify_gram(random_gram(3, seed=73), np.eye(3) / 3)


class TestTolerances:
    """The tolerances belong to the Certificate: set at construction, or
    through dataclasses.replace to judge the same measurement at others."""

    @pytest.mark.parametrize("name", ["tol_stat", "tol_glb"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1e-9])
    def test_every_certifying_route_rejects_a_bad_tolerance(self, name, value):
        ens, povm = orthogonal_setup()
        cert = ms.certify_povm(ens, povm)
        fields = {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}
        match = f"{name} must be finite and >= 0"
        with pytest.raises(ValueError, match=match):
            ms.Certificate(**dict(fields, **{name: value}))
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(cert, **{name: value})

    def test_zero_is_a_tolerance(self):
        ens, povm = orthogonal_setup()
        cert = dataclasses.replace(ms.certify_povm(ens, povm), tol_stat=0.0, tol_glb=0.0)
        assert (cert.tol_stat, cert.tol_glb) == (0.0, 0.0)

    def test_replaced_tolerances_change_only_the_status(self):
        cert = solve_direct(random_gram(3, seed=83)).certificate
        assert cert.status == "optimal" and 0.0 < cert.stationarity_residual
        assert cert.global_min_eig < 0.0  # the optimum's minimum sits at rounding level
        tight_stat = dataclasses.replace(cert, tol_stat=0.0)
        tight_glb = dataclasses.replace(cert, tol_glb=0.0)
        assert tight_stat.status == "nonstationary"
        assert tight_glb.status == "stationary"
        assert dataclasses.replace(tight_stat, tol_stat=ms.TOL_STAT) == cert


class TestCertificateConsistency:
    def test_values_agree_at_optimum(self):
        for seed in range(3):
            gram = random_gram(3, seed + 80)
            report = solve_direct(gram)
            cert = report.certificate
            realization = ms.ensemble_from_gram(gram)
            ps_report = ms.certify_povm(realization, report.final_povm).p_success
            assert abs(cert.p_success - cert.tr_z) < 1e-9
            assert abs(cert.p_success - ps_report) < 1e-9
            assert abs(cert.p_success - np.sum(report.final_state.a**2)) < 1e-12

    def test_certified_optima_are_unique_up_to_phase(self):
        gram = random_gram(3, seed=81, real=True)
        povm_a = solve_direct(gram).final_povm
        landscape = ms.classify_landscape(gram)
        root = landscape.roots[landscape.global_index]
        _, povm_b = ms.certify_gram(gram, root.factor)
        overlaps = np.abs(povm_a.vectors.conj().T @ povm_b.vectors)
        assert np.max(np.abs(np.diagonal(overlaps) - 1.0)) < 1e-8
