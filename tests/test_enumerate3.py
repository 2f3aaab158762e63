"""Stationary-point enumeration for three real states."""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import medsolve as ms
from conftest import identity_gram, random_gram, solve_direct
from medsolve import enumerate3


def sorted_real_roots(roots):
    vals = [np.round(r.values.real, 6) for r in roots if r.is_real]
    return sorted(tuple(v) for v in vals)


class TestSolveStationary:
    def test_symmetric_case_has_the_five_known_roots(self):
        with pytest.warns(ms.RootCountAnomaly):
            roots = ms.solve_stationary(identity_gram(3))
        found = sorted_real_roots(roots)
        expected = sorted(
            [(0.0, 0.0, 0.0), (-2.0, -2.0, -2.0), (-2.0, 2.0, 2.0), (2.0, -2.0, 2.0), (2.0, 2.0, -2.0)]
        )
        assert found == expected
        # each root satisfies the reduced symmetric system 2a + bc = 0 cyclically
        for root in roots:
            al, be, ga = root.values
            assert abs(2 * al + be * ga) < 1e-8
            assert abs(2 * be + al * ga) < 1e-8
            assert abs(2 * ga + al * be) < 1e-8

    def test_symmetric_case_selection(self):
        with pytest.warns(ms.RootCountAnomaly):
            roots = ms.solve_stationary(identity_gram(3))
        pd = [r for r in roots if r.is_positive_definite]
        assert len(pd) == 1
        root = pd[0]
        assert np.max(np.abs(root.values)) < 1e-8
        assert np.allclose(root.d_inv_sq, 3.0, atol=1e-8)
        assert root.p_success == pytest.approx(1.0, abs=1e-10)

    def test_residuals_are_tight(self):
        for seed in range(3):
            gram = random_gram(3, seed + 200, real=True)
            for root in ms.solve_stationary(gram):
                assert root.residual < 1e-9

    def test_complex_roots_are_flagged_and_excluded(self):
        # scan seeds until an ensemble with complex roots shows up; they
        # must be flagged non-real and carry no success probability
        for seed in range(30):
            roots = ms.solve_stationary(random_gram(3, seed + 300, real=True))
            complex_roots = [r for r in roots if not r.is_real]
            if complex_roots:
                for root in complex_roots:
                    assert root.p_success is None and root.d_inv_sq is None
                    assert not root.is_positive_definite
                    assert root.factor is None
                    with pytest.raises(ValueError, match="factor F must be finite"):
                        ms.certify_gram(random_gram(3, seed + 300, real=True), root.factor)
                return
        pytest.fail("no ensemble with complex stationary roots found in the scan")

    def test_requires_real_m3(self):
        with pytest.raises(ValueError):
            ms.solve_stationary(random_gram(4, seed=1, real=True))
        with pytest.raises(ValueError):
            ms.solve_stationary(random_gram(3, seed=1, real=False))

    def test_all_eight_roots_on_generic_problems(self):
        grams = [random_gram(3, seed, spread=0.3, real=True) for seed in range(30)]
        grams.append(random_gram(3, 6, spread=0.9, real=True))
        for k, gram in enumerate(grams):
            assert len(ms.solve_stationary(gram)) == enumerate3.DEGREE_BOUND, f"problem {k}"

    # Without the first-correction guard and without re-tracking, one path of
    # this problem jumps onto a neighbour's nonsingular root and 7 roots remain.
    JUMPY = dict(seed=5312, spread=0.4964, real=True)

    def test_guard_alone_keeps_the_path(self, monkeypatch):
        monkeypatch.setattr(enumerate3, "_RETRACKS", 0)
        assert len(ms.solve_stationary(random_gram(3, **self.JUMPY))) == 8
        monkeypatch.setattr(enumerate3, "_GUARD", np.inf)
        with pytest.warns(ms.RootCountAnomaly):
            assert len(ms.solve_stationary(random_gram(3, **self.JUMPY))) == 7

    def test_retracking_alone_recovers_the_jumped_path(self, monkeypatch, caplog):
        monkeypatch.setattr(enumerate3, "_GUARD", np.inf)
        caplog.set_level(logging.DEBUG, logger="medsolve.enumerate3")
        assert len(ms.solve_stationary(random_gram(3, **self.JUMPY))) == 8
        assert caplog.records[-1].getMessage().endswith(", 2 re-tracked, 0 at infinity")

    @pytest.mark.xfail(strict=True, reason="a finite root at c = -8.27e7 lies beyond the path "
                                           "cutoff _CUTOFF = 1e7 and is counted as at infinity")
    def test_a_root_beyond_the_path_cutoff_is_found(self):
        # pyproject ignores RootCountAnomaly suite-wide, so record it here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            roots = ms.solve_stationary(random_gram(3, 474, spread=0.77, real=True))
        anomalies = [w for w in caught if issubclass(w.category, ms.RootCountAnomaly)]
        assert (len(roots), anomalies) == (8, [])

    def test_debug_log_reports_the_paths(self, caplog):
        caplog.set_level(logging.DEBUG, logger="medsolve.enumerate3")
        with pytest.warns(ms.RootCountAnomaly):
            ms.solve_stationary(identity_gram(3))
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith("homotopy: 8 paths, steps per path [")
        assert message.endswith("], 0 re-tracked, 3 at infinity")

    def test_exactly_singular_lane_solves_to_nan(self):
        a = np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)]).astype(complex)
        y = enumerate3._solve(a, np.ones((3, 3, 1), dtype=complex))
        assert np.all(np.isnan(y[1]))
        assert np.allclose(y[0], 1.0) and np.allclose(y[2], 0.5)


class TestRootToPovm:
    def test_trivial_root_gives_standard_basis(self):
        with pytest.warns(ms.RootCountAnomaly):
            roots = ms.solve_stationary(identity_gram(3))
        root = [r for r in roots if r.is_positive_definite][0]
        _, povm = ms.certify_gram(identity_gram(3), root.factor)
        assert np.max(np.abs(np.abs(povm.vectors) - np.eye(3))) < 1e-8

    def test_selected_root_is_certified_optimal(self):
        gram = random_gram(3, seed=201, real=True)
        landscape = ms.classify_landscape(gram)
        cert = landscape.certificates[landscape.global_index]
        assert cert.is_optimal
        assert cert.stationarity_residual < 1e-9

    def test_non_pd_roots_are_stationary_but_not_global(self):
        gram = random_gram(3, seed=202, real=True)
        realization = ms.ensemble_from_gram(gram)
        found_non_global = False
        for root in ms.solve_stationary(gram):
            if not root.is_real or root.is_positive_definite:
                continue
            _, povm = ms.certify_gram(gram, root.factor)
            cert = ms.certify_povm(realization, povm)
            assert cert.stationarity_residual < 1e-8
            assert cert.global_min_eig < -1e-6
            assert cert.status == "stationary"
            found_non_global = True
        assert found_non_global


class TestRootTampering:
    def test_perturbed_root_loses_unitarity(self):
        import dataclasses

        gram = random_gram(3, seed=203, real=True)
        root = [r for r in ms.solve_stationary(gram) if r.is_positive_definite][0]
        bad = dataclasses.replace(root, values=root.values + [0.05, 0.0, 0.0])
        assert bad.symmetric_matrix[0, 1] == bad.symmetric_matrix[1, 0] == bad.values[0].real
        with pytest.raises(ms.ResidualTooLarge):
            ms.certify_gram(gram, bad.factor)


class TestClassifyLandscape:
    def test_symmetric_case(self):
        with pytest.warns(ms.RootCountAnomaly):
            landscape = ms.classify_landscape(identity_gram(3))
        assert landscape.labels.count(ms.enumerate3.LABEL_GLOBAL) == 1
        best = landscape.roots[landscape.global_index]
        assert best.p_success == pytest.approx(1.0, abs=1e-10)
        others = [r.p_success for r, lbl in zip(landscape.roots, landscape.labels)
                  if lbl == ms.enumerate3.LABEL_STATIONARY]
        assert all(ps < 1.0 - 1e-6 for ps in others)

    def test_embedded_two_state_landscape(self):
        # third state orthogonal to an overlapping pair: the landscape
        # contains the two-state pair of stationary points in the block
        c = 0.5
        states = np.array(
            [[1.0, c, 0.0], [0.0, np.sqrt(1 - c * c), 0.0], [0.0, 0.0, 1.0]]
        )
        ens = ms.Ensemble(states, np.array([0.4, 0.4, 0.2]))
        gram = ms.raw_gram(ens)
        landscape = ms.classify_landscape(gram)
        real_ps = sorted(r.p_success for r in landscape.roots if r.is_real)
        helstrom = ms.helstrom(0.5, 0.5, c).p_success
        expected_best = 0.8 * helstrom + 0.2
        expected_swapped = 0.8 * (1.0 - helstrom) + 0.2
        assert abs(real_ps[-1] - expected_best) < 1e-9
        assert any(abs(ps - expected_swapped) < 1e-9 for ps in real_ps)

    def test_exactly_one_positive_definite_root_across_seeds(self):
        for seed in range(100):
            gram = random_gram(3, seed + 400, real=True, spread=0.4 + 0.005 * seed)
            roots = ms.solve_stationary(gram, seed=seed)
            pd = [r for r in roots if r.is_positive_definite]
            assert len(pd) == 1, f"seed {seed}: {len(pd)} positive definite roots"
            real_ps = [r.p_success for r in roots if r.is_real]
            assert pd[0].p_success == pytest.approx(max(real_ps), abs=1e-9)

    def test_agrees_with_continuation_solver(self):
        for seed in range(3):
            gram = random_gram(3, seed + 210, real=True)
            landscape = ms.classify_landscape(gram)
            best = landscape.roots[landscape.global_index]
            hom = solve_direct(gram)
            assert abs(best.p_success - hom.certificate.p_success) < 1e-8


@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000), st.floats(0.1, 0.9), st.permutations(range(3)))
def test_relabelling_keeps_the_landscape(seed, spread, perm):
    gram = random_gram(3, seed, spread=spread, real=True)
    relabelled = ms.GramMatrix(gram.entries[np.ix_(perm, perm)])
    original, permuted = ms.classify_landscape(gram), ms.classify_landscape(relabelled)
    assert len(permuted.roots) == len(original.roots)
    values = [sorted(r.p_success for r in ls.roots if r.is_real) for ls in (original, permuted)]
    np.testing.assert_allclose(values[1], values[0], rtol=0, atol=1e-10)
    best = [ls.roots[ls.global_index].p_success for ls in (original, permuted)]
    assert best[1] == pytest.approx(best[0], abs=1e-10)
