"""Stationary-point enumeration for three real states."""

import json
import logging
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import medsolve as ms
from conftest import identity_gram, random_gram, solve_direct
from medsolve import enumerate3, serialize
from medsolve.cli import main
from medsolve.linalg import haar_unitary, hermitize

DATA = Path(__file__).parent / "data"


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

    # two of this problem's roots lie 0.025 apart, near a nearly dependent Gram matrix
    JUMPY = dict(seed=5312, spread=0.4964, real=True)

    def test_all_eight_roots_on_generic_problems(self):
        grams = [random_gram(3, seed, spread=0.3, real=True) for seed in range(30)]
        grams.append(random_gram(3, 6, spread=0.9, real=True))
        grams.append(random_gram(3, **self.JUMPY))
        for k, gram in enumerate(grams):
            assert len(ms.solve_stationary(gram)) == enumerate3.DEGREE_BOUND, f"problem {k}"

    def test_a_root_beyond_the_path_cutoff_is_found(self):
        # a real root at c = -8.27e7; pyproject ignores RootCountAnomaly
        # suite-wide, so record it here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            roots = ms.solve_stationary(random_gram(3, 474, spread=0.77, real=True))
        anomalies = [w for w in caught if issubclass(w.category, ms.RootCountAnomaly)]
        assert (len(roots), anomalies) == (8, [])
        assert min(r.values[2].real for r in roots) == pytest.approx(-8.27e7, rel=1e-3)

    def test_a_root_at_infinity_is_refined_before_it_is_told_apart(self, caplog):
        # with H_02 = 0 one root lies at infinity in the direction of b; read
        # straight from its eigenvector it has |z0|/|z| = 5.8e-13, above the
        # bound of 3.8e-13, and after Newton 6.7e-16
        h = np.array([[1.0, -1.5701, 0.0], [-1.5701, 8.6885, 2.6671], [0.0, 2.6671, 3.5115]])
        g = np.linalg.inv(h)
        caplog.set_level(logging.DEBUG, logger="medsolve.enumerate3")
        with pytest.warns(ms.RootCountAnomaly):
            roots = ms.solve_stationary(ms.GramMatrix(g / np.trace(g)))
        assert len(roots) == 7
        assert caplog.records[-1].getMessage().startswith(
            "macaulay attempt 0 (seed 8128): 8 eigenvectors, 1 at infinity,")

    def test_debug_log_reports_the_eigenvectors(self, caplog):
        caplog.set_level(logging.DEBUG, logger="medsolve.enumerate3")
        with pytest.warns(ms.RootCountAnomaly):
            ms.solve_stationary(identity_gram(3))
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        head, gap = record.getMessage().split(" = ")
        assert head == ("macaulay attempt 0 (seed 8128): 8 eigenvectors, 3 at infinity, "
                        "null-space gap sigma_27/sigma_28")
        assert float(gap) > 1e12

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
        # each problem through the pencil of its own linear forms, without the retry
        for seed in range(100):
            gram = random_gram(3, seed + 400, real=True, spread=0.4 + 0.005 * seed)
            roots, _, _ = enumerate3._find_roots(enumerate3._check_real_m3(gram), seed)
            pd = [r for r in roots if r.is_positive_definite]
            assert len(pd) == 1, f"seed {seed}: {len(pd)} positive definite roots"
            gates = [enumerate3._gate(gram, root) for root in roots]
            assert enumerate3._rejection(roots, gates) is None, f"seed {seed}"
            real_ps = [r.p_success for r in roots if r.is_real]
            assert pd[0].p_success == pytest.approx(max(real_ps), abs=1e-9)

    def test_agrees_with_continuation_solver(self):
        for seed in range(3):
            gram = random_gram(3, seed + 210, real=True)
            landscape = ms.classify_landscape(gram)
            best = landscape.roots[landscape.global_index]
            hom = solve_direct(gram)
            assert abs(best.p_success - hom.certificate.p_success) < 1e-8


def _merged(z: np.ndarray, best: np.ndarray) -> np.ndarray:
    """z with the root nearest ``best`` and that root's nearest neighbour
    replaced by one complex-conjugate pair at their midpoint, as a pencil
    whose two near-coincident eigenvectors rounding mixed returns them."""
    x = z[:, 1:] / z[:, :1]
    r = int(np.argmin(np.max(np.abs(x - best), axis=1)))
    gaps = np.max(np.abs(x - x[r]), axis=1)
    gaps[r] = np.inf
    s = int(np.argmin(gaps))
    mid, half = 0.5 * (x[r] + x[s]), 0.5 * np.abs(x[r] - x[s])
    z = z.astype(complex)
    z[r], z[s] = np.concatenate(([1.0], mid + 1j * half)), np.concatenate(([1.0], mid - 1j * half))
    return z


class TestRetry:
    GRAM = dict(m=3, seed=201, real=True)

    def _merging(self, monkeypatch, calls: int) -> list[int]:
        """Merge the global root with its neighbour in the first ``calls``
        pencils; returns the list that records each pencil's seed."""
        best = ms.solve_stationary(random_gram(**self.GRAM))[0].values
        finder, seeds = enumerate3._projective_roots, []

        def merging(q, seed):
            seeds.append(seed)
            z, at_inf, gap = finder(q, seed)
            return (_merged(z, best) if len(seeds) <= calls else z), at_inf, gap

        monkeypatch.setattr(enumerate3, "_projective_roots", merging)
        return seeds

    def test_a_pencil_that_loses_the_global_root_is_retried(self, monkeypatch, caplog):
        gram = random_gram(**self.GRAM)
        expected = ms.solve_stationary(gram)
        seeds = self._merging(monkeypatch, calls=1)
        caplog.set_level(logging.DEBUG, logger="medsolve.enumerate3")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ms.RootCountAnomaly)
            roots = ms.solve_stationary(gram)
        assert seeds == [8128, 8129]
        assert "macaulay attempt 0 rejected: 0 positive definite roots, not 1" in caplog.messages
        assert caplog.messages[-1].startswith("macaulay attempt 1 (seed 8129): 8 eigenvectors,")
        assert len(roots) == len(expected) == enumerate3.DEGREE_BOUND
        assert [r.is_positive_definite for r in roots].count(True) == 1
        np.testing.assert_allclose([r.values for r in roots], [r.values for r in expected],
                                   rtol=0, atol=1e-9)

    def test_an_exhausted_budget_returns_the_last_pencil(self, monkeypatch):
        gram = random_gram(**self.GRAM)
        seeds = self._merging(monkeypatch, calls=enumerate3._ATTEMPTS)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            roots = ms.solve_stationary(gram)
        assert seeds == [8128, 8129, 8130, 8131]
        assert [w.category for w in caught] == [ms.RootCountAnomaly]
        assert len(roots) == 6
        assert not any(root.is_positive_definite for root in roots)

    def test_a_landscape_without_its_global_root_is_not_written(self, monkeypatch, tmp_path,
                                                                 capsys):
        gram = random_gram(**self.GRAM)
        self._merging(monkeypatch, calls=2 * enumerate3._ATTEMPTS)  # two enumerations
        with pytest.raises(ms.NoConvergence, match="none of 4 pencils held one positive "
                           "definite root: the last had 0 positive definite roots, not 1"):
            ms.classify_landscape(gram)
        path = tmp_path / "merged.json"
        serialize.write_json(path, serialize.gram_to_dict(gram))
        capsys.readouterr()
        assert main(["enumerate", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("enumeration failed: none of 4 pencils")
        assert not (tmp_path / "merged-landscape.json").exists()

    @pytest.mark.parametrize("name", ["nd150", "nd361"])
    def test_near_dependent_landscape_has_its_global_root(self, tmp_path, name):
        # at the first linear forms nd150 loses its global root (6 roots, no
        # global label) and a factor of nd361 misses the gate (exit 3)
        path = DATA / f"near-dependent-m3-{name}-gram.json"
        assert main(["enumerate", str(path), "--out", str(tmp_path)]) == 0
        roots = json.loads((tmp_path / f"{path.stem}-landscape.json").read_text())["roots"]
        [best] = [r for r in roots if r["label"] == enumerate3.LABEL_GLOBAL]
        assert best["certificate"]["status"] == "optimal"
        gram = serialize.load_gram_or_ensemble(serialize.read_json(path))
        drag = solve_direct(gram, steps=200, h=5e-3, polish=True)
        assert abs(best["p_success"] - drag.certificate.p_success) <= 1e-9
        # the program picks its own linear forms
        assert main(["enumerate", str(path), "--seed", "1", "--out", str(tmp_path)]) == 64


@pytest.mark.slow
def test_near_floor_probe_enumerates_one_certified_global_root():
    # real m = 3 with lambda_min(G) = 10^-k, k uniform in [7, 7.95]
    rng = np.random.default_rng(2026)
    kept = 0
    for draw in range(300):
        k = rng.uniform(7.0, 7.95)
        lam = rng.uniform(0.1, 1.0, 3)
        lam[0] = 10.0 ** -k
        lam[1:] *= (1.0 - lam[0]) / lam[1:].sum()
        v = haar_unitary(rng, 3, real=True)
        g = hermitize((v * lam) @ v.T)
        try:
            gram = ms.GramMatrix(g / np.trace(g))
        except (ms.MedError, ValueError):
            continue
        kept += 1
        landscape = ms.classify_landscape(gram)
        assert landscape.labels.count(enumerate3.LABEL_GLOBAL) == 1, f"draw {draw}"
        assert landscape.certificates[landscape.global_index].status == "optimal", f"draw {draw}"
    assert kept > 0


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
