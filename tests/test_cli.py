"""Command-line surface: exit codes, files, pipelines."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import medsolve as ms
from conftest import random_gram, solve_direct
from medsolve import cli, homotopy, serialize
from medsolve.cli import main
from medsolve.homotopy import _rate
from medsolve.linalg import haar_unitary

DATA = Path(__file__).parent / "data"
SRC = str(Path(ms.__file__).resolve().parents[1])


def run_python(*args):
    """Run a fresh interpreter on the package under test, as a user would."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)


def write_gram(path, gram):
    serialize.write_json(path, serialize.gram_to_dict(gram))
    return str(path)


def write_scaled_ensemble(path, ensemble, scale):
    """An ensemble file whose states are all multiplied by ``scale``."""
    states = (ensemble.states * scale).T
    serialize.write_json(path, {"m": ensemble.m, "probs": ensemble.probs.tolist(),
                                "states_re": states.real.tolist(),
                                "states_im": states.imag.tolist()})
    return str(path)


def certify_payload(path, ensemble, povm):
    serialize.write_json(
        path,
        {"ensemble": serialize.ensemble_to_dict(ensemble), "povm": serialize.povm_to_dict(povm)},
    )
    return str(path)


class TestSolve:
    def test_reference_matrix_defaults(self, tmp_path):
        inp = write_gram(tmp_path / "ref5.json", ms.reference_five_state_gram())
        code = main(["solve", inp, "--out", str(tmp_path)])
        assert code == 0
        trace = (tmp_path / "ref5-trace.csv").read_text().strip().splitlines()
        assert len(trace) == 1001
        logs = np.array([float(line.split(",")[2]) for line in trace[1:]])
        assert np.all(logs > -17.5) and np.all(logs < -15.0)
        report = json.loads((tmp_path / "ref5-report.json").read_text())
        assert report["certificate"]["status"] == "optimal"

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 2, "gram_re": [[0.5, 0], [0, 0.5]]}')
        code = main(["solve", str(bad), "--out", str(tmp_path)])
        assert code == 64
        assert "gram_im" in capsys.readouterr().err

    def test_near_dependent_input_is_invalid_data(self, tmp_path, capsys):
        entries = np.array([[0.5, 0.5 - 5e-11], [0.5 - 5e-11, 0.5]])
        payload = {"m": 2, "gram_re": entries.tolist(), "gram_im": np.zeros((2, 2)).tolist()}
        path = tmp_path / "dep.json"
        serialize.write_json(path, payload)
        code = main(["solve", str(path), "--out", str(tmp_path)])
        assert code == 65
        assert "positive definite" in capsys.readouterr().err

    def test_ensemble_without_a_unit_trace_gram_is_invalid_data(self, tmp_path, capsys):
        # norms off by 0.9e-12 pass the unit-norm check, the Gram trace 1 + 1.8e-12 does not
        ens = ms.random_ensemble(3, seed=802, spread=0.6)
        path = write_scaled_ensemble(tmp_path / "ens.json", ens, 1.0 + 0.9e-12)
        via = write_gram(tmp_path / "via.json", random_gram(3, seed=803))
        for extra in ([], ["--from", path]):
            assert main(["solve", via if extra else path, "--out", str(tmp_path)] + extra) == 65
            [line] = capsys.readouterr().err.splitlines()
            assert line == f"{path}: gram matrix must have trace 1"

    def test_steps_h_mismatch_is_usage_error(self, tmp_path):
        inp = write_gram(tmp_path / "g.json", random_gram(3, seed=800))
        code = main(["solve", inp, "--out", str(tmp_path), "--steps", "100", "--h", "1e-3"])
        assert code == 64

    def test_ensemble_input_gets_ambient_povm(self, tmp_path):
        ens = ms.random_ensemble(3, seed=801, spread=0.6)
        path = tmp_path / "ens.json"
        serialize.write_json(path, serialize.ensemble_to_dict(ens))
        code = main(["solve", str(path), "--out", str(tmp_path), "--steps", "250", "--h", "4e-3"])
        assert code == 0
        report = json.loads((tmp_path / "ens-report.json").read_text())
        assert report["final_povm"]["frame"] == "ambient"

    def test_route_through_intermediate_gram(self, tmp_path):
        g_a = random_gram(3, seed=802, spread=0.4)
        g_b = random_gram(3, seed=803, spread=0.7)
        via = write_gram(tmp_path / "via.json", g_a)
        inp = write_gram(tmp_path / "target.json", g_b)
        code = main(["solve", inp, "--from", via, "--out", str(tmp_path),
                     "--steps", "250", "--h", "4e-3"])
        assert code == 0
        report = json.loads((tmp_path / "target-report.json").read_text())
        direct = solve_direct(g_b)
        assert report["certificate"]["p_success"] == pytest.approx(
            direct.certificate.p_success, abs=1e-8
        )

    def test_large_ensemble_measurement_is_snapped_to_unitary(self, tmp_path, capsys):
        # the drag ends off unitarity by ~6e-9 here; written measurements must
        # use the polar-snapped U instead of failing the 1e-10 unitarity gate
        ens = ms.random_ensemble(10, seed=5, spread=0.6)
        path = tmp_path / "ens10.json"
        serialize.write_json(path, serialize.ensemble_to_dict(ens))
        code = main(["solve", str(path), "--out", str(tmp_path), "--steps", "200", "--h", "5e-3"])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "ens10-report.json").read_text())
        povm = serialize.povm_from_dict(report["final_povm"])
        assert ms.certify_povm(ens, povm).is_optimal

    def test_polished_near_dependent_gram_reports_the_attained_value(self, tmp_path):
        # min eig 2.1e-4: one correction at t = 1 left Tr F 1.3e-8 above the
        # success probability of the written measurement
        path = DATA / "near-dependent-m8-gram.json"
        code = main(["solve", str(path), "--out", str(tmp_path), "--steps", "200", "--h", "5e-3",
                     "--polish"])
        assert code == 0
        report = json.loads((tmp_path / "near-dependent-m8-gram-report.json").read_text())
        gram = serialize.load_gram_or_ensemble(serialize.read_json(path))
        again = ms.certify_povm(ms.ensemble_from_gram(gram),
                                serialize.povm_from_dict(report["final_povm"]))
        assert report["certificate"]["status"] == "optimal" and again.is_optimal
        assert abs(again.p_success - report["certificate"]["p_success"]) <= 1e-12

    def test_polished_near_dependent_pair_matches_helstrom(self, tmp_path):
        # min eig G 2.5e-6: the 200-step drag ends at HS residual 2.5e-3, 2.5e5
        # times the certificate's gate; the finish needs 18 Newton iterations
        path = DATA / "near-dependent-m2-ensemble.json"
        code = main(["solve", str(path), "--out", str(tmp_path), "--steps", "200", "--h", "5e-3",
                     "--polish"])
        assert code == 0
        report = json.loads((tmp_path / "near-dependent-m2-ensemble-report.json").read_text())
        ens = serialize.load_gram_or_ensemble(serialize.read_json(path))
        closed = ms.helstrom(*ens.probs, np.vdot(ens.states[:, 0], ens.states[:, 1])).p_success
        assert abs(report["certificate"]["p_success"] - closed) <= 1e-12

    def test_near_dependent_ensemble_writes_an_orthonormal_ambient_basis(self, tmp_path):
        # min eig G 2.0e-8, just above EPS_LI: the ambient basis formed through
        # the dual basis was off orthonormality by 2.8e-9 and solve exited 3
        theta = 3.1e-4
        ens = ms.Ensemble(np.array([[1.0, np.cos(theta)], [0.0, np.sin(theta)]]),
                          np.array([0.3, 0.7]))
        assert 1e-8 < np.linalg.eigvalsh(ms.raw_gram(ens).entries)[0] < 3e-8
        path = tmp_path / "pair.json"
        serialize.write_json(path, serialize.ensemble_to_dict(ens))
        code = main(["solve", str(path), "--out", str(tmp_path), "--steps", "200", "--h", "5e-3",
                     "--polish"])
        assert code == 0
        report = json.loads((tmp_path / "pair-report.json").read_text())
        povm = serialize.povm_from_dict(report["final_povm"])
        assert povm.frame == ms.FRAME_AMBIENT
        assert ms.certify_povm(ens, povm).is_optimal

    def test_debug_log_names_the_newton_finish(self, tmp_path, monkeypatch):
        inp = write_gram(tmp_path / "g.json", random_gram(3, seed=823, spread=0.8))
        solve = ["-m", "medsolve.cli", "solve", inp, "--steps", "100", "--h", "1e-2",
                 "--out", str(tmp_path)]
        names = ("g-report.json", "g-trace.csv")
        quiet = run_python(*solve, "--polish")
        files = [(tmp_path / name).read_bytes() for name in names]
        monkeypatch.setenv("MED_LOG", "info")
        info = run_python(*solve, "--polish")
        assert files == [(tmp_path / name).read_bytes() for name in names]
        monkeypatch.setenv("MED_LOG", "debug")
        loud = run_python(*solve, "--polish")
        assert (quiet.returncode, info.returncode, loud.returncode) == (0, 0, 0)
        assert (quiet.stdout, quiet.stderr) == (loud.stdout, "")
        assert info.stdout == quiet.stdout
        drag = r"INFO drag: m=3 steps=100 polish=True arithmetic=complex \d+\.\d{3} s"
        [line] = info.stderr.splitlines()
        assert re.fullmatch(drag, line)
        finish, line = loud.stderr.splitlines()
        assert re.fullmatch(r"DEBUG newton finish: \d+ iterations, \d+ halvings, "
                            r"\|Phi\| \S+ -> \S+", finish)
        assert re.fullmatch(drag, line)
        assert files == [(tmp_path / name).read_bytes() for name in names]
        [line] = run_python(*solve).stderr.splitlines()
        assert re.fullmatch(drag.replace("polish=True", "polish=False"), line)

    def test_repeated_ensemble_solve_is_byte_identical(self, tmp_path):
        ens = ms.random_ensemble(4, seed=811, spread=0.6)
        path = tmp_path / "ens.json"
        serialize.write_json(path, serialize.ensemble_to_dict(ens))
        for name in ("a", "b"):
            main(["solve", str(path), "--out", str(tmp_path / name), "--steps", "250", "--h", "4e-3"])
        for suffix in ("report.json", "trace.csv"):
            a = (tmp_path / "a" / f"ens-{suffix}").read_bytes()
            assert a == (tmp_path / "b" / f"ens-{suffix}").read_bytes()

    def test_ensemble_gram_is_inner_products_in_input_order(self):
        # tied priors: no reordering of the states may creep in
        states = ms.random_ensemble(5, seed=812, spread=0.7).states
        ens = ms.Ensemble(states, np.full(5, 0.2))
        gram = cli._as_gram(ens)
        for i in range(5):
            for j in range(5):
                expected = np.sqrt(0.2 * 0.2) * np.vdot(states[:, i], states[:, j])
                assert abs(gram.entries[i, j] - expected) < 1e-14

    def test_escaping_toolkit_error_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ms.NotUnitary("matrix is not unitary (residual 1.0e-03)")

        monkeypatch.setattr(cli, "povm_from_unitary", broken)
        ens = ms.random_ensemble(3, seed=813, spread=0.5)
        path = tmp_path / "ens.json"
        serialize.write_json(path, serialize.ensemble_to_dict(ens))
        code = main(["solve", str(path), "--out", str(tmp_path), "--steps", "100", "--h", "1e-2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "NotUnitary" in err and "Traceback" not in err

    def test_batch_mode(self, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_gram(batch / "a.json", random_gram(2, seed=804))
        write_gram(batch / "b.json", random_gram(3, seed=805))
        out = tmp_path / "out"
        code = main(["solve", "--batch", str(batch), "--out", str(out),
                     "--steps", "250", "--h", "4e-3"])
        assert code == 0
        assert (out / "a-report.json").exists()
        assert (out / "b-trace.csv").exists()

    def test_input_and_batch_together_is_usage_error(self, tmp_path, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_gram(batch / "a.json", random_gram(2, seed=804))
        inp = write_gram(tmp_path / "g.json", random_gram(2, seed=805))
        out = tmp_path / "out"
        assert main(["solve", inp, "--batch", str(batch), "--out", str(out)]) == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line == "medsolve solve: argument --batch: not allowed with argument input"
        assert not out.exists()

    def test_empty_batch_directory_is_usage_error(self, tmp_path, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        assert main(["solve", "--batch", str(batch), "--out", str(tmp_path / "out")]) == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"no .json inputs in {batch}"

    def test_bad_tolerance_fails_before_the_drag(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _rate(*args, **kwargs)

        monkeypatch.setattr(homotopy, "_rate", counted)
        inp = write_gram(tmp_path / "g.json", random_gram(3, seed=806))
        assert main(["solve", inp, "--out", str(tmp_path), "--tol-stat", "nan"]) == 64
        assert calls == []

    def test_batch_mode_continues_past_bad_inputs(self, tmp_path, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "broken.json").write_text("{not json")
        write_gram(batch / "good.json", random_gram(2, seed=810))
        out = tmp_path / "out"
        code = main(["solve", "--batch", str(batch), "--out", str(out),
                     "--steps", "250", "--h", "4e-3"])
        assert code == 64  # worst per-file code wins
        assert (out / "good-report.json").exists()
        assert "broken: failed (64)" in capsys.readouterr().out

    @staticmethod
    def _svd_fails_at(monkeypatch, m):
        """Make the SVD of every m x m matrix (the polar snap of certify_gram) fail."""
        svd = np.linalg.svd

        def failing(mat, *args, **kwargs):
            if mat.shape[0] == m:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)

    def test_linalg_error_is_a_solver_failure(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, which --steps/--h rejections raise
        self._svd_fails_at(monkeypatch, 3)
        inp = write_gram(tmp_path / "g.json", random_gram(3, seed=814))
        code = main(["solve", inp, "--out", str(tmp_path), "--steps", "100", "--h", "1e-2"])
        assert code == 3
        assert capsys.readouterr().err == "solver failed: SVD did not converge\n"
        assert not (tmp_path / "g-report.json").exists()

    def test_batch_goes_on_past_a_linalg_error(self, tmp_path, capsys, monkeypatch):
        self._svd_fails_at(monkeypatch, 3)
        batch = tmp_path / "batch"
        batch.mkdir()
        write_gram(batch / "a.json", random_gram(3, seed=815))
        write_gram(batch / "b.json", random_gram(2, seed=816))
        out = tmp_path / "out"
        code = main(["solve", "--batch", str(batch), "--out", str(out),
                     "--steps", "100", "--h", "1e-2"])
        assert code == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "a: failed (3)" and lines[1].startswith("b: optimal")
        assert (out / "b-report.json").exists() and not (out / "a-report.json").exists()

    @staticmethod
    def _batch_via(tmp_path, monkeypatch, drag, sizes=(2, 2, 2)):
        """Run ``solve --batch --from`` over inputs a, b, c of the given sizes
        and a 2-state --from matrix; returns the exit code and the end matrix
        and start of every drag, in call order (start None: from I/m)."""
        batch = tmp_path / "batch"
        batch.mkdir()
        for name, m, seed in zip("abc", sizes, (820, 821, 822)):
            write_gram(batch / f"{name}.json", random_gram(m, seed=seed))
        via = write_gram(tmp_path / "via.json", random_gram(2, seed=823, spread=0.3))
        calls = []

        def counted(trajectory, **kwargs):
            calls.append((trajectory.g_end.m, kwargs.get("initial")))
            return drag(trajectory, **kwargs)

        monkeypatch.setattr(cli, "rk4_drag", counted)
        code = main(["solve", "--batch", str(batch), "--from", via, "--out", str(tmp_path / "out"),
                     "--steps", "100", "--h", "1e-2"])
        return code, calls

    def test_batch_drags_the_via_leg_once(self, tmp_path, monkeypatch, capsys):
        code, calls = self._batch_via(tmp_path, monkeypatch, cli.rk4_drag)
        legs = sum(start is None for _, start in calls)
        assert (code, legs, len(calls)) == (0, 1, 4)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["a", "b", "c"]
        assert all(": optimal p_success=" in line for line in lines)

    def test_batch_drags_only_inputs_of_the_via_size(self, tmp_path, monkeypatch, capsys):
        code, calls = self._batch_via(tmp_path, monkeypatch, cli.rk4_drag, sizes=(3, 2, 3))
        assert code == 64
        # b is the one input of the --from size: the leg, then b's segment
        assert [(m, start is None) for m, start in calls] == [(2, True), (2, False)]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "a: failed (64)" and lines[2] == "c: failed (64)"
        assert lines[1].startswith("b: optimal p_success=")

    def test_failed_via_leg_fails_every_input(self, tmp_path, monkeypatch, capsys, caplog):
        def failing(*args, **kwargs):
            raise ms.PositivityLost("factor F lost positive definiteness at t=0.5")

        code, calls = self._batch_via(tmp_path, monkeypatch, failing)
        assert (code, len(calls)) == (3, 1)
        assert capsys.readouterr().out.splitlines() == [
            "a: failed (3)", "b: failed (3)", "c: failed (3)"]
        assert caplog.text.count("solver failed: factor F lost positive definiteness") == 3


class TestCertify:
    def test_orthogonal_projectors_certify(self, tmp_path):
        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        povm = ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT)
        inp = certify_payload(tmp_path / "ok.json", ens, povm)
        assert main(["certify", inp, "--out", str(tmp_path)]) == 0
        cert = json.loads((tmp_path / "ok-certificate.json").read_text())
        assert cert["status"] == "optimal"

    def test_swapped_two_state_point_exits_2(self, tmp_path):
        result = ms.helstrom(0.6, 0.4, 0.5)
        psi1 = np.array([1.0, 0.0], dtype=complex)
        psi2 = np.array([0.5, np.sqrt(0.75)], dtype=complex)
        ens = ms.Ensemble(np.stack([psi1, psi2], axis=1), np.array([0.6, 0.4]))
        swapped = ms.Povm(result.povm.vectors[:, ::-1], frame=ms.FRAME_AMBIENT)
        inp = certify_payload(tmp_path / "swap.json", ens, swapped)
        assert main(["certify", inp, "--out", str(tmp_path)]) == 2

    def test_random_basis_exits_3(self, tmp_path):
        ens = ms.random_ensemble(3, seed=806, spread=0.6)
        rng = np.random.default_rng(0)
        from medsolve.linalg import haar_unitary

        povm = ms.Povm(haar_unitary(rng, 3), frame=ms.FRAME_AMBIENT)
        inp = certify_payload(tmp_path / "rand.json", ens, povm)
        assert main(["certify", inp, "--out", str(tmp_path)]) == 3

    def test_frame_mismatch_is_usage_error(self, tmp_path):
        ens = ms.random_ensemble(2, seed=807, spread=0.5)
        povm = ms.Povm(np.eye(2), frame=ms.FRAME_DUAL)
        inp = certify_payload(tmp_path / "frame.json", ens, povm)
        assert main(["certify", inp, "--out", str(tmp_path)]) == 64

    @pytest.mark.parametrize("command", ["certify", "audit"])
    def test_measurement_of_another_size_is_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "sizes.json"
        serialize.write_json(path, {"ensemble": serialize.gram_to_dict(random_gram(3, seed=810)),
                                    "povm": serialize.povm_to_dict(ms.Povm(np.eye(2)))})
        assert main([command, str(path), "--out", str(tmp_path)]) == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"{path}: the ensemble has 3 states but the measurement 2 outcomes"

    @pytest.mark.parametrize("command", ["certify", "audit"])
    def test_unknown_frame_is_usage_error(self, tmp_path, capsys, command):
        ens = ms.random_ensemble(3, seed=808, spread=0.5)
        payload = {"ensemble": serialize.ensemble_to_dict(ens),
                   "povm": serialize.povm_to_dict(ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))}
        payload["povm"]["frame"] = "bogus"
        path = tmp_path / "frame.json"
        serialize.write_json(path, payload)
        assert main([command, str(path), "--out", str(tmp_path)]) == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"{path}:povm: field 'frame' must be 'dual' or 'ambient', got 'bogus'"

    @pytest.mark.parametrize("command", ["certify", "audit"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_basis_is_invalid_data(self, tmp_path, command, value):
        ens = ms.random_ensemble(3, seed=808, spread=0.5)
        payload = {"ensemble": serialize.ensemble_to_dict(ens),
                   "povm": serialize.povm_to_dict(ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))}
        payload["povm"]["basis_re"][0][1] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))  # json writes the NaN / Infinity tokens
        run = run_python("-m", "medsolve.cli", command, str(path), "--out", str(tmp_path))
        assert run.returncode == 65
        assert len(run.stderr.splitlines()) == 1
        assert "not orthonormal" in run.stderr

    def test_tolerance_flags_reach_the_certificate(self, tmp_path):
        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        inp = certify_payload(tmp_path / "ok.json", ens, ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))
        assert main(["certify", inp, "--out", str(tmp_path), "--tol-stat", "1e-3"]) == 0
        cert = json.loads((tmp_path / "ok-certificate.json").read_text())
        assert cert["tol_stat"] == 0.001


class TestEnumerate:
    def test_symmetric_case_reports_five_real_roots(self, tmp_path):
        inp = write_gram(tmp_path / "id3.json", ms.GramMatrix(np.eye(3) / 3))
        code = main(["enumerate", inp, "--out", str(tmp_path)])
        assert code == 0
        landscape = json.loads((tmp_path / "id3-landscape.json").read_text())
        real = [r for r in landscape["roots"] if r["is_real"]]
        assert len(real) == 5
        assert sum(r["is_positive_definite"] for r in real) == 1

    def test_ensemble_without_a_unit_trace_gram_is_invalid_data(self, tmp_path, capsys):
        ens = ms.random_ensemble(3, seed=804, spread=0.6, real=True)
        path = write_scaled_ensemble(tmp_path / "ens.json", ens, 1.0 + 0.9e-12)
        assert main(["enumerate", path, "--out", str(tmp_path)]) == 65
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"{path}: gram matrix must have trace 1"

    @pytest.mark.parametrize("gram, reason", [
        (random_gram(3, seed=6, spread=0.9), "requires a real Gram matrix"),
        (random_gram(2, seed=6, spread=0.9, real=True), "is implemented for m=3 only"),
    ], ids=["complex", "two-states"])
    def test_gram_outside_the_enumeration_is_invalid_data(self, tmp_path, capsys, gram, reason):
        inp = write_gram(tmp_path / "g.json", gram)
        assert main(["enumerate", inp, "--out", str(tmp_path)]) == 65
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"enumeration failed: stationary enumeration {reason}"

    def test_debug_log_is_one_line_and_outputs_repeat(self, tmp_path, monkeypatch):
        inp = write_gram(tmp_path / "g3.json", random_gram(3, seed=6, spread=0.9, real=True))
        monkeypatch.setenv("MED_LOG", "debug")
        for name in ("a", "b"):
            run = run_python("-m", "medsolve.cli", "enumerate", inp, "--out", str(tmp_path / name))
            assert run.returncode == 0
            [line] = run.stderr.splitlines()
            assert line.startswith("DEBUG homotopy: 8 paths, steps per path [")
            assert line.endswith("], 0 re-tracked, 0 at infinity")
        a = (tmp_path / "a" / "g3-landscape.json").read_bytes()
        assert a == (tmp_path / "b" / "g3-landscape.json").read_bytes()


class TestAudit:
    def test_solved_three_state_passes(self, tmp_path):
        gram = random_gram(3, seed=808)
        report = solve_direct(gram)
        serialize.write_json(
            tmp_path / "aud.json",
            {"ensemble": serialize.gram_to_dict(gram),
             "povm": serialize.povm_to_dict(report.final_povm)},
        )
        assert main(["audit", str(tmp_path / "aud.json"), "--out", str(tmp_path)]) == 0
        audit = json.loads((tmp_path / "aud-audit.json").read_text())
        assert audit["passed"] is True

    def test_perturbed_measurement_fails(self, tmp_path):
        gram = random_gram(3, seed=809)
        report = solve_direct(gram)
        realization = ms.ensemble_from_gram(gram)
        rng = np.random.default_rng(1)
        k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        k = 0.5 * (k - k.conj().T)
        w, v = np.linalg.eigh(1j * k)
        q = (v * np.exp(-1j * 2e-3 * w)) @ v.conj().T
        bent = ms.Povm(q @ report.final_povm.vectors, frame=ms.FRAME_AMBIENT)
        inp = certify_payload(tmp_path / "bent.json", realization, bent)
        assert main(["audit", inp, "--out", str(tmp_path)]) == 3

    def test_measurement_keeping_one_state_fails_with_finite_entries(self, tmp_path, capsys):
        # orthonormal states measured with outcomes 2 and 3 swapped: Z = p_1 rho_1,
        # so the first complement Z - p_1 rho_1 has no trace to normalize
        states = haar_unitary(np.random.default_rng(0), 3)
        ens = ms.Ensemble(states, np.array([0.5, 0.3, 0.2]))
        povm = ms.Povm(states[:, [0, 2, 1]], frame=ms.FRAME_AMBIENT)
        inp = certify_payload(tmp_path / "swap.json", ens, povm)
        assert main(["certify", inp, "--out", str(tmp_path)]) == 2
        assert main(["audit", inp, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().out.splitlines()[-1].startswith("swap: audit FAILED -> ")
        audit = json.loads((tmp_path / "swap-audit.json").read_text(),
                           parse_constant=lambda name: pytest.fail(f"audit JSON holds {name}"))
        assert audit["passed"] is False
        assert audit["residuals"]["sigma_boundary"] >= 1.0

    def test_two_states_are_invalid_data(self, tmp_path, capsys):
        ens = ms.Ensemble(np.eye(2), np.array([0.6, 0.4]))
        povm = ms.Povm(np.eye(2), frame=ms.FRAME_AMBIENT)
        inp = certify_payload(tmp_path / "pair.json", ens, povm)
        assert main(["audit", inp, "--out", str(tmp_path)]) == 65
        [line] = capsys.readouterr().err.splitlines()
        assert line == "audit failed to run: the geometric audit is defined for three states"


class TestPipeline:
    def test_generate_solve_certify(self, tmp_path):
        assert main(["generate", "--m", "3", "--seed", "1", "--spread", "0.6",
                     "--out", str(tmp_path)]) == 0
        ens_path = tmp_path / "ensemble-m3-seed1.json"
        assert ens_path.exists()
        assert main(["solve", str(ens_path), "--out", str(tmp_path),
                     "--steps", "250", "--h", "4e-3"]) == 0
        report = json.loads((tmp_path / "ensemble-m3-seed1-report.json").read_text())
        povm = report["final_povm"]
        ens = json.loads(ens_path.read_text())
        serialize.write_json(tmp_path / "check.json", {"ensemble": ens, "povm": povm})
        assert main(["certify", str(tmp_path / "check.json"), "--out", str(tmp_path)]) == 0

    def test_generate_is_deterministic(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["generate", "--m", "4", "--seed", "9", "--out", str(a_dir)])
        main(["generate", "--m", "4", "--seed", "9", "--out", str(b_dir)])
        a = (a_dir / "ensemble-m4-seed9.json").read_bytes()
        b = (b_dir / "ensemble-m4-seed9.json").read_bytes()
        assert a == b


class TestReproduceFig1:
    def test_emits_full_trace(self, tmp_path):
        code = main(["reproduce-fig1", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "fig1-trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1001  # header + one row per iteration


class TestUsage:
    def test_unknown_flag_exits_64(self, capsys):
        assert main(["solve", "--no-such-flag"]) == 64

    @pytest.mark.parametrize("flag", ["--tol-stat", "--tol-glb"])
    @pytest.mark.parametrize("argv", [["audit", "in.json"], ["generate", "--m", "2", "--seed", "1"]])
    def test_tolerance_flags_are_rejected_where_unused(self, tmp_path, capsys, argv, flag):
        assert main(argv + ["--out", str(tmp_path), flag, "1e-3"]) == 64
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_import_leaves_scipy_unloaded(self):
        run = run_python("-c", "import sys, medsolve.cli; print('scipy' in sys.modules)")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_missing_input_exits_64(self):
        assert main(["solve"]) == 64

    def test_unreadable_input_exits_64(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 64
        assert main(["certify", str(tmp_path), "--out", str(tmp_path)]) == 64
        assert "cannot read input" in capsys.readouterr().err

    def test_output_path_on_a_file_exits_64(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["generate", "--m", "2", "--seed", "1", "--out", str(blocker)]) == 64
        assert "cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--steps", "0", "--h", "inf"],
                                       ["--steps", "-1", "--h", "-1"],
                                       ["--h", "nan"],
                                       ["--steps", "100", "--h", "0.02"]])
    def test_degenerate_solver_flags_exit_64(self, tmp_path, capsys, flags):
        inp = write_gram(tmp_path / "g.json", random_gram(2, seed=821))
        assert main(["solve", inp, "--out", str(tmp_path)] + flags) == 64
        assert "invalid solver arguments" in capsys.readouterr().err

    def test_intermediate_gram_of_another_size_exits_64(self, tmp_path, monkeypatch, capsys):
        def no_drag(*args, **kwargs):
            raise AssertionError("a --from size mismatch must be caught before any drag")

        monkeypatch.setattr(cli, "rk4_drag", no_drag)
        via = write_gram(tmp_path / "via.json", random_gram(2, seed=823))
        inp = write_gram(tmp_path / "g.json", random_gram(3, seed=824))
        assert main(["solve", inp, "--from", via, "--out", str(tmp_path),
                     "--steps", "100", "--h", "1e-2"]) == 64
        assert "--from matrix has 2 states but the input has 3" in capsys.readouterr().err

    def test_undecodable_input_exits_64_like_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe\xfa")
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 64
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_numeric_probs_exit_64(self, tmp_path):
        path = tmp_path / "ens.json"
        serialize.write_json(path, {"m": 2, "probs": {"a": 1}, "states_re": [[1, 0], [0, 1]],
                                    "states_im": [[0, 0], [0, 0]]})
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 64


class TestRepeatedCalls:
    def test_each_call_sees_only_its_own_flags(self, tmp_path, capsys):
        gram = random_gram(2, seed=822)
        inp = write_gram(tmp_path / "g.json", gram)
        solve = ["solve", inp, "--steps", "100", "--h", "1e-2"]
        assert main(solve + ["--polish", "--out", str(tmp_path / "p")]) == 0
        assert main(solve + ["--out", str(tmp_path / "q")]) == 0
        polished = json.loads((tmp_path / "p" / "g-report.json").read_text())
        plain = json.loads((tmp_path / "q" / "g-report.json").read_text())
        assert (polished["polish"], plain["polish"]) == (True, False)
        assert polished["final_state"] != plain["final_state"]

        check = tmp_path / "check.json"
        serialize.write_json(check, {"ensemble": serialize.gram_to_dict(gram),
                                     "povm": plain["final_povm"]})
        assert main(["certify", str(check), "--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / "check-certificate.json").exists()
        assert main(["certify", str(check), "--steps", "100"]) == 64
        assert main(["generate", "--m", "2", "--seed", "3", "--out", str(tmp_path / "d")]) == 0
        assert "unrecognized arguments: --steps 100" in capsys.readouterr().err

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_tolerance_flags_do_not_carry_over(self, tmp_path):
        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        inp = certify_payload(tmp_path / "ok.json", ens, ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))
        cert_path = tmp_path / "ok-certificate.json"
        assert main(["certify", inp, "--tol-stat", "1e-3", "--out", str(tmp_path)]) == 0
        assert json.loads(cert_path.read_text())["tol_stat"] == 1e-3
        assert main(["certify", inp, "--out", str(tmp_path)]) == 0
        assert json.loads(cert_path.read_text())["tol_stat"] == ms.TOL_STAT

    @pytest.mark.parametrize("first, code", [(["--version"], 0), (["--help"], 0), (["solve"], 64)])
    def test_a_call_that_exits_early_leaves_the_next_one_intact(self, tmp_path, capsys,
                                                                first, code):
        assert main(first) == code
        assert main(["generate", "--m", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith(f"-> {tmp_path / 'ensemble-m2-seed3.json'}\n")

    def test_each_call_logs_at_its_own_level_to_its_own_stderr(self, tmp_path, monkeypatch):
        inp = write_gram(tmp_path / "g.json", random_gram(2, seed=824))
        solve = ["solve", inp, "--steps", "100", "--h", "1e-2", "--out", str(tmp_path)]
        first, second = io.StringIO(), io.StringIO()
        monkeypatch.delenv("MED_LOG", raising=False)
        with contextlib.redirect_stderr(first):
            assert main(solve) == 0
        monkeypatch.setenv("MED_LOG", "info")
        with contextlib.redirect_stderr(second):
            assert main(solve) == 0
        monkeypatch.delenv("MED_LOG")
        third = io.StringIO()
        with contextlib.redirect_stderr(third):
            assert main(solve) == 0
        assert first.getvalue() == third.getvalue() == ""
        [line] = second.getvalue().splitlines()
        assert line.startswith("INFO drag: m=2 steps=100 polish=False ")
