"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

import medsolve as ms
from conftest import helstrom_angle_scan, overlap_gram_m3, random_gram, seeded_grams, solve_direct
from medsolve.cli import main


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_reference_error_trace(tmp_path):
    """Five-state reference drag: residual bands and runtime."""
    start = time.perf_counter()
    code = main(["reproduce-fig1", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = (tmp_path / "fig1-trace.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 1000
    logs = np.array([float(r.split(",")[2]) for r in rows])
    head, tail = logs[:10], logs[979:]
    assert np.all(head >= -17.3) and np.all(head <= -16.3), head
    assert np.all(tail >= -16.2) and np.all(tail <= -15.2), tail
    assert elapsed < 10.0
    report(
        f"PASS 1: head log10 residual [{head.min():.2f}, {head.max():.2f}] in [-17.3, -16.3]; "
        f"tail [{tail.min():.2f}, {tail.max():.2f}] in [-16.2, -15.2]; runtime {elapsed:.2f}s < 10s"
    )


@pytest.mark.slow
def test_criterion_2_two_state_closed_form_agreement():
    """50 seeded pairs: continuation matches the closed form to 1e-9,
    itself pre-verified against a 1e6-point brute-force scan to 1e-6."""
    scan_cases = [(0.5, 0.5, 0.6), (0.9, 0.1, 0.5), (0.65, 0.35, 0.3 + 0.4j)]
    for p1, p2, c in scan_cases:
        scan = helstrom_angle_scan(p1, p2, c, n_points=1_000_000)
        closed = ms.helstrom(p1, p2, c).p_success
        assert abs(scan - closed) < 1e-6
    worst = 0.0
    for seed in range(50):
        ens = ms.random_ensemble(2, seed=seed, spread=0.2 + 0.015 * seed)
        gram = ms.raw_gram(ens)
        overlap = np.vdot(ens.states[:, 0], ens.states[:, 1])
        closed = ms.helstrom(ens.probs[0], ens.probs[1], overlap).p_success
        solved = solve_direct(gram, steps=500, h=2e-3).certificate.p_success
        worst = max(worst, abs(solved - closed))
        assert abs(solved - closed) < 1e-9, f"seed {seed}"
    report(f"PASS 2: 50/50 two-state drags within 1e-9 of the closed form (worst {worst:.2e}); "
           "closed form verified against the angle scan to 1e-6")


@pytest.mark.slow
def test_criterion_3_three_way_agreement_m3():
    """25 seeded real three-state ensembles: continuation, enumeration and
    direct search agree (deterministic pair to 1e-8, search to 1e-6)."""
    worst_det, worst_search = 0.0, 0.0
    for seed, gram in enumerate(seeded_grams(3, 25, base_seed=1000, real=True, spread_min=0.35)):
        ps_hom = solve_direct(gram).certificate.p_success
        roots = ms.solve_stationary(gram)
        pd = [r for r in roots if r.is_positive_definite]
        assert len(pd) == 1, f"seed {seed}: {len(pd)} positive definite roots"
        ps_enum = pd[0].p_success
        ps_search = ms.search_optimum(gram, seed=seed).p_success
        worst_det = max(worst_det, abs(ps_hom - ps_enum))
        worst_search = max(worst_search, abs(ps_hom - ps_search), abs(ps_enum - ps_search))
        assert abs(ps_hom - ps_enum) < 1e-8, f"seed {seed}"
        assert abs(ps_hom - ps_search) < 1e-6, f"seed {seed}"
        assert abs(ps_enum - ps_search) < 1e-6, f"seed {seed}"
    report(f"PASS 3: 25/25 three-way agreements (deterministic worst {worst_det:.2e} < 1e-8, "
           f"search worst {worst_search:.2e} < 1e-6)")


@pytest.mark.slow
def test_criterion_4_certificate_soundness():
    """Solver outputs certify; outcome-permuted measurements at
    non-symmetric optima are rejected with exit 2 or 3."""
    checked = 0
    for m, seed in [(2, 1), (2, 2), (3, 3), (3, 4), (3, 5), (4, 6), (4, 7)]:
        gram = random_gram(m, seed + 2000, spread=0.5 + 0.04 * seed)
        rep = solve_direct(gram)
        cert = rep.certificate
        assert cert.stationarity_residual < 1e-9
        assert cert.global_min_eig > -1e-9
        realization = ms.ensemble_from_gram(gram)
        perm = list(range(m))
        perm[0], perm[1] = perm[1], perm[0]
        permuted = ms.Povm(rep.final_povm.vectors[:, perm], frame=ms.FRAME_DUAL)
        perm_cert = ms.certify_povm(realization, permuted)
        assert perm_cert.status in ("stationary", "nonstationary"), f"m={m} seed={seed}"
        checked += 1
    report(f"PASS 4: {checked}/{checked} solver outputs certified optimal and every "
           "outcome-permuted copy was rejected (stationary or nonstationary)")


@pytest.mark.slow
def test_criterion_5_rk4_order():
    """Residual accumulation scales like a fourth-order method: halving h
    changes the accumulated residual by a factor in [8, 32]."""
    ratios = []
    for c in (0.9, 0.95):
        gram = overlap_gram_m3(c)
        r_coarse = solve_direct(gram, steps=500, h=2e-3).trace[-1, 2]
        r_fine = solve_direct(gram, steps=1000, h=1e-3).trace[-1, 2]
        assert r_fine > 1e-15  # accumulation well above the rounding floor
        ratio = r_coarse / r_fine
        assert 8.0 <= ratio <= 32.0, f"overlap {c}: ratio {ratio}"
        ratios.append(ratio)
    report(f"PASS 5: accumulation ratios {[f'{r:.1f}' for r in ratios]} within [8, 32]")


@pytest.mark.slow
def test_criterion_6_geometric_audit():
    """25 seeded three-state ensembles (real and complex): every
    geometric identity holds at 1e-8 on the certified optimum."""
    worst = 0.0
    real_grams = seeded_grams(3, 13, base_seed=3000, real=True)
    complex_grams = seeded_grams(3, 12, base_seed=3100, real=False)
    for seed, gram in enumerate(real_grams + complex_grams):
        rep = solve_direct(gram)
        realization = ms.ensemble_from_gram(gram)
        audit = ms.geometric_audit(realization, rep.final_povm)
        assert audit.tol == 1e-8 and audit.passed
        worst = max(worst, max(audit.residuals.values()))
    report(f"PASS 6: 25/25 audits passed, worst identity residual {worst:.2e} < 1e-8")


def test_criterion_7_two_state_rate_forms():
    """The general tangent assembler zeroes the hand-coded two-state rate
    equations at 10 random states to 1e-12."""
    from medsolve.homotopy import _rate

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10):
        a = rng.uniform(0.35, 1.2, 2)
        f12 = rng.normal() + 1j * rng.normal()
        g01 = rng.normal() + 1j * rng.normal()
        g = np.array([[rng.uniform(0.2, 0.9), g01], [np.conj(g01), rng.uniform(0.2, 0.9)]])
        gd01 = rng.normal() + 1j * rng.normal()
        gdot = np.array([[rng.normal(), gd01], [np.conj(gd01), rng.normal()]])
        da, df = _rate(a, np.array([f12]), g, gdot, 0.0)
        f21, df12, df21 = np.conj(f12), df[0], np.conj(df[0])
        zetas = [
            4 * a[0] ** 3 * da[0] + f12 * df21 + f21 * df12
            - 2 * a[0] * g[0, 0] * da[0] - a[0] ** 2 * gdot[0, 0],
            (a[0] ** 2 + a[1] ** 2) * df12
            + (2 * a[0] * f12 - a[1] * g[0, 1]) * da[0]
            + (2 * a[1] * f12 - a[0] * g[0, 1]) * da[1]
            - a[0] * a[1] * gdot[0, 1],
            (a[0] ** 2 + a[1] ** 2) * df21
            + (2 * a[0] * f21 - a[1] * g[1, 0]) * da[0]
            + (2 * a[1] * f21 - a[0] * g[1, 0]) * da[1]
            - a[0] * a[1] * gdot[1, 0],
            4 * a[1] ** 3 * da[1] + f12 * df21 + f21 * df12
            - 2 * a[1] * g[1, 1] * da[1] - a[1] ** 2 * gdot[1, 1],
        ]
        worst = max(worst, max(abs(z) for z in zetas))
    assert worst < 1e-12
    report(f"PASS 7: 10/10 states zero the hand-coded rate forms (worst |zeta| {worst:.2e} < 1e-12)")


@pytest.mark.slow
def test_criterion_8_path_independence():
    """Chained drags agree with the direct drag to 1e-8 in the optimum."""
    worst = 0.0
    for m, s_a, s_b in [(3, 4000, 4001), (4, 4002, 4003)]:
        g_a = random_gram(m, s_a, spread=0.45)
        g_b = random_gram(m, s_b, spread=0.75)
        leg1 = solve_direct(g_a)
        chained = ms.rk4_drag(ms.Trajectory(g_a, g_b), steps=500, h=2e-3,
                              initial=leg1.final_state)
        direct = solve_direct(g_b)
        gap = abs(chained.certificate.p_success - direct.certificate.p_success)
        worst = max(worst, gap)
        assert gap < 1e-8, f"m={m}: gap {gap}"
    report(f"PASS 8: chained and direct drags agree (worst gap {worst:.2e} < 1e-8)")
