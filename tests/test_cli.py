"""Command-line surface: exit codes, files, pipelines."""

import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import medsolve as ms
from conftest import EIGEN, lapack_nan_from_call, random_gram, solve_direct
from medsolve import certify, cli, homotopy, serialize
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


BEYOND_DOUBLES = 10**400  # a JSON integer literal that no double holds


def set_entry(payload, keys, value):
    """``payload`` with the entry reached by ``keys`` set to ``value``."""
    *path, last = keys
    target = payload
    for key in path:
        target = target[key]
    target[last] = value
    return payload


def identity_gram_dict():
    return serialize.gram_to_dict(ms.GramMatrix(np.eye(3) / 3))


def orthogonal_ensemble_dict():
    return serialize.ensemble_to_dict(ms.Ensemble(np.eye(3), np.full(3, 1 / 3)))


def identity_certify_dict():
    return {"ensemble": identity_gram_dict(), "povm": serialize.povm_to_dict(ms.Povm(np.eye(3)))}


def _assert_nan_spectrum_exit_codes(monkeypatch, capsys, argv, path, failed):
    """Run ``argv`` with NaN from each eigen call in turn: the input check (the
    first call) exits 65 with numpy's message, every later call exits 3 with
    ``failed``.  Returns the ndim of each call's argument in a clean run."""
    calls = lapack_nan_from_call(monkeypatch, 10**6, *EIGEN)
    assert main(argv) == 0
    capsys.readouterr()
    for first in range(1, len(calls) + 1):
        lapack_nan_from_call(monkeypatch, first, *EIGEN)
        code, err = main(argv), capsys.readouterr().err
        if first == 1:
            assert (code, err) == (65, f"{path}: Eigenvalues did not converge\n")
        else:
            assert (code, err) == (3, f"{failed}: Eigenvalues did not converge\n"), first
    return calls


def _solved_m3_input(path, schema):
    """A certify or audit input at ``path``: the polished optimum of
    ``random_ensemble(3, 809, 0.5)``, with the ensemble or its Gram matrix."""
    ens = ms.random_ensemble(3, seed=809, spread=0.5)
    gram = ms.raw_gram(ens)
    u = solve_direct(gram, steps=100, h=1e-2, polish=True).final_povm.vectors
    if schema == "ensemble":
        problem = serialize.ensemble_to_dict(ens)
        povm = ms.povm_from_unitary(gram, u, ensemble=ens)
    else:
        problem, povm = serialize.gram_to_dict(gram), ms.Povm(u)
    serialize.write_json(path, {"ensemble": problem, "povm": serialize.povm_to_dict(povm)})
    return path


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
        assert main(["solve", path, "--out", str(tmp_path)]) == 65
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
        # times the certificate's gate, and the corrector starts far from the optimum
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

    @pytest.mark.slow
    def test_debug_log_names_the_corrector(self, tmp_path, monkeypatch):
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
        corrector, line = loud.stderr.splitlines()
        assert re.fullmatch(r"DEBUG corrector: stopped at iteration \d+, newton steps \d+, "
                            r"gradient norm \d\.\d{3}e[+-]\d\d", corrector)
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
        # the ensemble's re-expression runs inside the solve's failure mapping
        def broken(*args, **kwargs):
            raise ms.NotUnitary("matrix is not unitary (residual 1.0e-03)")

        monkeypatch.setattr(cli, "povm_from_unitary", broken)
        ens = ms.random_ensemble(3, seed=813, spread=0.5)
        path = tmp_path / "ens.json"
        serialize.write_json(path, serialize.ensemble_to_dict(ens))
        code = main(["solve", str(path), "--out", str(tmp_path), "--steps", "100", "--h", "1e-2"])
        assert code == 3
        assert capsys.readouterr().err == "solver failed: matrix is not unitary (residual 1.0e-03)\n"
        assert not (tmp_path / "ens-report.json").exists()

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
        # the counter sees every stage of a drag that does run
        assert main(["solve", inp, "--out", str(tmp_path), "--steps", "10", "--h", "0.1",
                     "--polish"]) == 0
        assert len(calls) == 4 * 10

    def test_memory_error_in_a_stage_is_a_solver_failure(self, tmp_path, capsys, monkeypatch):
        # not "invalid solver arguments": that is only a trace that cannot be allocated
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.98 GiB for an array with shape "
                              "(500, 400000) and data type complex128")

        monkeypatch.setattr(homotopy, "_rate", exhausted)
        inp = write_gram(tmp_path / "g.json", random_gram(3, seed=806))
        out = tmp_path / "out"
        assert main(["solve", inp, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "solver failed: Unable to allocate 2.98 GiB for an array with shape "
            "(500, 400000) and data type complex128\n")
        assert list(out.iterdir()) == []

    def test_batch_mode_continues_past_bad_inputs(self, tmp_path, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "broken.json").write_text("{not json")
        (batch / "deep.json").write_text("[" * 100_000)  # deeper than the decoder recurses
        # the first file of the batch: no double holds the integer
        serialize.write_json(batch / "a-huge.json", set_entry(
            identity_gram_dict(), ["gram_re", 0, 0], BEYOND_DOUBLES))
        write_gram(batch / "good.json", random_gram(2, seed=810))
        out = tmp_path / "out"
        code = main(["solve", "--batch", str(batch), "--out", str(out),
                     "--steps", "250", "--h", "4e-3"])
        assert code == 64  # worst per-file code wins
        assert (out / "good-report.json").exists()
        stdout = capsys.readouterr().out
        assert stdout.startswith("a-huge: failed (64)\n")
        assert "broken: failed (64)" in stdout and "deep: failed (64)" in stdout

    def test_batch_goes_on_past_a_boolean_among_numbers(self, tmp_path, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        serialize.write_json(batch / "a.json", {"m": 2, "gram_re": [[0.5, False], [False, 0.5]],
                                                "gram_im": [[0, 0], [0, 0]]})
        write_gram(batch / "b.json", random_gram(2, seed=810))
        out = tmp_path / "out"
        code = main(["solve", "--batch", str(batch), "--out", str(out),
                     "--steps", "250", "--h", "4e-3"])
        assert code == 64
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "a: failed (64)" and lines[1].startswith("b: optimal ")
        assert (out / "b-report.json").exists() and not (out / "a-report.json").exists()

    @pytest.mark.parametrize("out", ["d", "./d/", "link"])
    def test_batch_rerun_into_its_own_directory_skips_its_reports(self, tmp_path, capsys,
                                                                  monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--m", "3", "--seed", "1", "--out", "d"]) == 0
        Path("link").symlink_to("d")  # the same directory under another name
        argv = ["solve", "--batch", "d", "--out", out, "--steps", "100", "--h", "1e-2"]
        outputs = []
        for _ in range(2):
            capsys.readouterr()
            assert main(argv) == 0
            [line] = capsys.readouterr().out.splitlines()
            assert line.startswith("ensemble-m3-seed1: optimal ")
            outputs.append({p.name: p.read_bytes() for p in sorted(Path("d").iterdir())})
        assert outputs[0] == outputs[1]
        assert sorted(outputs[0]) == ["ensemble-m3-seed1-report.json",
                                      "ensemble-m3-seed1-trace.csv", "ensemble-m3-seed1.json"]

    def test_linalg_error_is_a_solver_failure(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, which --steps/--h rejections raise;
        # the solve's one SVD is the polar snap of certify_gram; the flag that
        # LAPACK raises stays out of stderr
        lapack_nan_from_call(monkeypatch, 1, "svd_f", flagged=True)
        inp = write_gram(tmp_path / "g.json", random_gram(3, seed=814))
        code = main(["solve", inp, "--out", str(tmp_path), "--steps", "100", "--h", "1e-2"])
        assert code == 3
        assert capsys.readouterr().err == "solver failed: SVD did not converge\n"
        assert not (tmp_path / "g-report.json").exists()

    def test_a_nan_spectrum_in_a_drag_stage_is_a_solver_failure(self, tmp_path, capsys,
                                                                monkeypatch):
        # the input checks call eigvalsh_lo; eigh_lo call 6 is k2 of the drag's step 2
        inp = write_gram(tmp_path / "g.json", random_gram(3, seed=96))
        lapack_nan_from_call(monkeypatch, 6, "eigh_lo")
        assert main(["solve", inp, "--out", str(tmp_path), "--steps", "10", "--h", "0.1"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "solver failed: Lyapunov spectrum ratio max|l_i+l_j|/min|l_i+l_j| = nan/nan exceeds "
            "1e+12 at t=0.150000 (bifurcation or near-dependence)"]

    def test_a_nan_spectrum_in_the_input_check_is_invalid_data(self, tmp_path, capsys,
                                                                 monkeypatch):
        # numpy's gufunc returns NaN where np.linalg.eigvalsh raised; the
        # input check still reports numpy's error as invalid data
        inp = write_gram(tmp_path / "g.json", random_gram(3, seed=817))
        lapack_nan_from_call(monkeypatch, 1, *EIGEN, flagged=True)
        assert main(["solve", inp, "--out", str(tmp_path)]) == 65
        assert capsys.readouterr().err == f"{inp}: Eigenvalues did not converge\n"
        assert not (tmp_path / "g-report.json").exists()

    def test_batch_goes_on_past_a_linalg_error(self, tmp_path, capsys, monkeypatch):
        lapack_nan_from_call(monkeypatch, 1, "svd_f", last=1)  # a's polar snap, not b's
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

    def test_batch_goes_on_past_a_failed_re_expression(self, tmp_path, capsys, monkeypatch):
        re_express = cli.povm_from_unitary
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ms.NotUnitary("basis is not orthonormal (residual 1.0e-03)")
            return re_express(*args, **kwargs)

        monkeypatch.setattr(cli, "povm_from_unitary", fails_once)
        batch = tmp_path / "batch"
        batch.mkdir()
        for name, seed in (("e1", 801), ("e2", 802)):
            serialize.write_json(batch / f"{name}.json",
                                 serialize.ensemble_to_dict(ms.random_ensemble(3, seed, 0.5)))
        out = tmp_path / "out"
        code = main(["solve", "--batch", str(batch), "--out", str(out),
                     "--steps", "100", "--h", "1e-2"])
        assert code == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "e1: failed (3)" and lines[1].startswith("e2: optimal")
        assert "solver failed: basis is not orthonormal" in captured.err
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in out.iterdir()) == ["e2-report.json", "e2-trace.csv"]

    def test_batch_goes_on_past_an_output_it_cannot_write(self, tmp_path, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_gram(batch / "a.json", random_gram(2, seed=815))
        write_gram(batch / "b.json", random_gram(2, seed=816))
        out = tmp_path / "out"
        (out / "a-trace.csv").mkdir(parents=True)
        code = main(["solve", "--batch", str(batch), "--out", str(out),
                     "--steps", "100", "--h", "1e-2"])
        assert code == 64
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "a: failed (64)" and lines[1].startswith("b: optimal")
        assert f"{out / 'a-trace.csv'}: cannot write output" in captured.err
        assert (out / "b-trace.csv").is_file()


class TestCertify:
    def test_orthogonal_projectors_certify(self, tmp_path):
        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        povm = ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT)
        inp = certify_payload(tmp_path / "ok.json", ens, povm)
        assert main(["certify", inp, "--out", str(tmp_path)]) == 0
        cert = json.loads((tmp_path / "ok-certificate.json").read_text())
        assert cert["status"] == "optimal"

    def test_escaping_toolkit_error_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        # raised after the certification's failure mapping: main's net catches it
        def broken(*args, **kwargs):
            raise ms.NotUnitary("basis is not orthonormal (residual 1.0e-03)")

        monkeypatch.setattr(cli, "certificate_to_dict", broken)
        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        inp = certify_payload(tmp_path / "ok.json", ens, ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))
        assert main(["certify", inp, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "medsolve: NotUnitary: basis is not orthonormal (residual 1.0e-03)\n"

    @staticmethod
    def _spectrum_fails_on_stacks(monkeypatch):
        """Make the spectrum of every stack of matrices (the complements
        Z - p_i rho_i of the certificate) fail."""
        spectrum = certify.hermitian_eig

        def failing(mat, *args, **kwargs):
            if mat.ndim == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return spectrum(mat, *args, **kwargs)

        monkeypatch.setattr(certify, "hermitian_eig", failing)

    def test_linalg_error_is_a_certification_failure(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, but it is a numerical failure, as in solve
        self._spectrum_fails_on_stacks(monkeypatch)
        ens = ms.random_ensemble(3, seed=806, spread=0.6)
        inp = certify_payload(tmp_path / "c.json", ens, ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))
        out = tmp_path / "out"
        assert main(["certify", inp, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "certification failed: Eigenvalues did not converge\n"
        assert not (out / "c-certificate.json").exists()

    def test_memory_error_is_a_certification_failure(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 122. MiB for an array with shape "
                              "(200, 200, 200) and data type complex128")

        monkeypatch.setattr(cli, "certify_povm", exhausted)
        ens = ms.random_ensemble(3, seed=806, spread=0.6)
        inp = certify_payload(tmp_path / "c.json", ens, ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))
        out = tmp_path / "out"
        assert main(["certify", inp, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "certification failed: Unable to allocate 122. MiB for an array with shape "
            "(200, 200, 200) and data type complex128\n")
        assert not (out / "c-certificate.json").exists()

    @pytest.mark.slow
    def test_large_m_certifies_in_a_bounded_address_space(self, tmp_path):
        # all m complements Z - p_i rho_i at once take m^3 entries, 122 MiB of
        # complex128 at m = 200; the child's address space may grow by half that
        m, seed = 200, 811
        rng = np.random.default_rng(seed)
        basis = haar_unitary(rng, m)
        ens = ms.Ensemble(basis, rng.dirichlet(np.full(m, 20.0)))
        big = certify_payload(tmp_path / "big.json", ens, ms.Povm(basis, frame=ms.FRAME_AMBIENT))
        small = certify_payload(tmp_path / "small.json", ms.random_ensemble(3, seed, 0.6),
                                ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))
        child = (
            "import resource, sys\n"
            "from medsolve.cli import main\n"
            "main(['certify', sys.argv[1], '--out', sys.argv[3]])  # numpy's and BLAS's buffers\n"
            "with open('/proc/self/status') as status:\n"
            "    kb = next(int(line.split()[1]) for line in status if line.startswith('VmSize:'))\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (kb * 1024 + 200**3 * 16 // 2, hard))\n"
            "sys.exit(main(['certify', sys.argv[2], '--out', sys.argv[3]]))\n"
        )
        run = subprocess.run([sys.executable, "-c", child, small, big, str(tmp_path)],
                             env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
                             capture_output=True, text=True, timeout=120)
        assert run.stderr == ""
        assert run.returncode == 0
        cert = json.loads((tmp_path / "big-certificate.json").read_text())
        assert cert["status"] == "optimal"

    @pytest.mark.parametrize("schema", ["ensemble", "gram"])
    def test_every_eigen_call_refuses_a_nan_spectrum(self, tmp_path, capsys, monkeypatch, schema):
        # numpy's gufunc returns NaN where its wrapper raised.  NaN from the
        # input check exits 65 with numpy's message; from any later call
        # (G^{1/2} of a Gram input, the complements, the factor) the
        # certificate fails with 3; no call ends in a traceback
        path = _solved_m3_input(tmp_path / "c.json", schema)
        argv = ["certify", str(path), "--out", str(tmp_path)]
        calls = _assert_nan_spectrum_exit_codes(monkeypatch, capsys, argv, path,
                                                "certification failed")
        assert calls == ([2, 3, 2] if schema == "ensemble" else [2, 2, 3, 2])

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


class TestEnumerate:
    def test_symmetric_case_reports_five_real_roots(self, tmp_path, capsys):
        # three roots are missing, and the RootCountAnomaly is one WARNING line,
        # also where the caller's filter would raise it out of main
        inp = write_gram(tmp_path / "id3.json", ms.GramMatrix(np.eye(3) / 3))
        for action in ("default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                code = main(["enumerate", inp, "--out", str(tmp_path)])
            assert code == 0
            assert capsys.readouterr().err.splitlines() == [
                "WARNING found 5 stationary roots; the degree bound allows 8: the others are "
                "at infinity, coincide at a singular root or were lost by the pencil"], action
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
        (ms.GramMatrix(np.array([[1, 3e-13j, 0], [-3e-13j, 1, 0], [0, 0, 1]]) / 3),
         "requires a real Gram matrix"),
        (random_gram(2, seed=6, spread=0.9, real=True), "is implemented for m=3 only"),
    ], ids=["complex", "imaginary-1e-13", "two-states"])
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
            assert line.startswith("DEBUG macaulay attempt 0 (seed 8128): 8 eigenvectors, "
                                   "0 at infinity, null-space gap sigma_27/sigma_28 = ")
        a = (tmp_path / "a" / "g3-landscape.json").read_bytes()
        assert a == (tmp_path / "b" / "g3-landscape.json").read_bytes()


    @pytest.mark.parametrize("schema", ["ensemble", "gram"])
    def test_every_eigen_call_refuses_a_nan_spectrum(self, tmp_path, capsys, monkeypatch, schema):
        # NaN from the input check exits 65 with numpy's message; from any later
        # call (each root's definiteness, G^{1/2}, then the complements and the
        # factor of each root's certificate) the enumeration fails with 3, as
        # solve and certify do; no call ends in a traceback
        ens = ms.random_ensemble(3, seed=807, spread=0.6, real=True)
        path = tmp_path / "e.json"
        serialize.write_json(path, serialize.ensemble_to_dict(ens) if schema == "ensemble"
                             else serialize.gram_to_dict(ms.raw_gram(ens)))
        argv = ["enumerate", str(path), "--out", str(tmp_path)]
        calls = _assert_nan_spectrum_exit_codes(monkeypatch, capsys, argv, path,
                                                "enumeration failed")
        assert calls == [2] + [2] * 8 + [2] + [3, 2] * 8


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


    @pytest.mark.parametrize("schema", ["ensemble", "gram"])
    def test_every_eigen_call_refuses_a_nan_spectrum(self, tmp_path, capsys, monkeypatch, schema):
        # NaN from the input check exits 65 with numpy's message; from the one
        # later call (G^{1/2} of a Gram input) the audit fails with 3, as solve
        # and certify do; no call ends in a traceback
        path = _solved_m3_input(tmp_path / "a.json", schema)
        argv = ["audit", str(path), "--out", str(tmp_path)]
        calls = _assert_nan_spectrum_exit_codes(monkeypatch, capsys, argv, path, "audit failed")
        assert calls == ([2] if schema == "ensemble" else [2, 2])


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

    # certified against ensemble_from_gram's states, G^{1/2} / sqrt(p_i) * sqrt(p_i),
    # these measurements read other last digits than solve's certificate (p_success
    # too at m = 3 and 5), so the test tells that realization from G^{1/2}
    @pytest.mark.parametrize("m, seed, real", [(3, 830, False), (5, 833, False), (8, 836, True)])
    def test_certify_of_a_solved_gram_reproduces_its_certificate(self, tmp_path, m, seed, real):
        gram = random_gram(m, seed=seed, spread=0.8, real=real)
        inp = write_gram(tmp_path / "g.json", gram)
        solved = main(["solve", inp, "--out", str(tmp_path), "--steps", "200", "--h", "5e-3",
                       "--polish"])
        assert solved == 0
        report = json.loads((tmp_path / "g-report.json").read_text())
        serialize.write_json(tmp_path / "check.json", {"ensemble": serialize.gram_to_dict(gram),
                                                       "povm": report["final_povm"]})
        assert main(["certify", str(tmp_path / "check.json"), "--out", str(tmp_path)]) == solved
        assert (json.loads((tmp_path / "check-certificate.json").read_text())
                == report["certificate"])

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

    @pytest.mark.parametrize("command, computation, stage", [
        ("solve", "rk4_drag", "solver"),
        ("certify", "certify_povm", "certification"),
        ("enumerate", "classify_landscape", "enumeration"),
        ("audit", "geometric_audit", "audit"),
    ])
    def test_factor_missing_the_gate_exits_3_from_every_command(self, tmp_path, capsys,
                                                                monkeypatch, command,
                                                                computation, stage):
        # one mapping for a numerical failure on a parsed input: exit 3, never
        # 65 (invalid data), and no output file
        def broken(*args, **kwargs):
            raise ms.ResidualTooLarge("F^2 - DGD has HS norm 2.011e-06 (gate 1.0e-08)")

        monkeypatch.setattr(cli, computation, broken)
        gram = random_gram(3, seed=6, spread=0.9, real=True)
        path = tmp_path / "in.json"
        serialize.write_json(path, serialize.gram_to_dict(gram) if command in ("solve", "enumerate")
                             else {"ensemble": serialize.gram_to_dict(gram),
                                   "povm": serialize.povm_to_dict(ms.Povm(np.eye(3)))})
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"{stage} failed: F^2 - DGD has HS norm 2.011e-06 (gate 1.0e-08)\n")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("flag", ["--tol-stat", "--tol-glb"])
    @pytest.mark.parametrize("argv", [["audit", "in.json"], ["generate", "--m", "2", "--seed", "1"],
                                      ["solve", "in.json"], ["certify", "in.json"],
                                      ["enumerate", "in.json"], ["reproduce-fig1"]])
    def test_tolerance_flags_are_rejected_where_unused(self, tmp_path, capsys, argv, flag):
        # every verdict is judged at TOL_STAT and TOL_GLB, so no subcommand takes them
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

    @pytest.mark.parametrize("command", ["solve", "certify", "enumerate", "audit"])
    def test_an_input_too_large_for_memory_exits_64(self, tmp_path, capsys, monkeypatch,
                                                    command):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(cli, "read_json", exhausted)
        path = str(tmp_path / "g.json")
        assert main([command, path, "--out", str(tmp_path)]) == 64
        assert capsys.readouterr().err == f"{path}: cannot read input (out of memory)\n"

    def test_a_batch_file_too_large_for_memory_fails_alone(self, tmp_path, capsys, monkeypatch):
        write_gram(tmp_path / "a.json", random_gram(2, 1))
        write_gram(tmp_path / "b.json", random_gram(2, 2))
        read_json = cli.read_json

        def exhausted(path):
            if Path(path).stem == "a":
                raise MemoryError
            return read_json(path)

        monkeypatch.setattr(cli, "read_json", exhausted)
        argv = ["solve", "--batch", str(tmp_path), "--out", str(tmp_path / "out")]
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "a: failed (64)"
        assert out.splitlines()[1].startswith("b: optimal")
        assert err == f"ERROR {tmp_path / 'a.json'}: cannot read input (out of memory)\n"

    def test_each_batch_error_names_its_input_once(self, tmp_path, capsys):
        # a schema failure at the read and a drag that misses the factor gate after it
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 2}))
        good = write_gram(tmp_path / "good.json", random_gram(2, 4))
        argv = ["solve", "--batch", str(tmp_path), "--out", str(tmp_path / "out"),
                "--steps", "1", "--h", "1"]
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "bad: failed (64)"
        assert out.splitlines()[1] == "good: failed (3)"
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0] == f"ERROR {bad}: need either field 'gram_re' or field 'states_re'"
        assert lines[1].startswith(f"ERROR {good}: solver failed: F^2 - DGD has HS norm ")
        for line, path in zip(lines, (bad, good)):
            assert line.count(str(path)) == 1

    def test_a_valid_input_too_large_for_the_address_space_exits_64(self, tmp_path):
        # 2,000,000 numbers in an extra field: the file is 10 MB, and json.loads
        # builds a float object for each, more than the child's 32 MiB of headroom
        small = write_gram(tmp_path / "small.json", random_gram(2, 3))
        big = tmp_path / "big.json"
        big.write_text(json.dumps(dict(json.loads(Path(small).read_text()),
                                       padding=[0.5] * 2_000_000)))
        argv = ["solve", str(big), "--out", str(tmp_path), "--steps", "100", "--h", "1e-2"]
        assert run_python("-m", "medsolve.cli", *argv).returncode == 0  # valid and readable
        child = (
            "import resource, sys\n"
            "from medsolve.cli import main\n"
            "main(['solve', sys.argv[1], '--out', sys.argv[2]])  # numpy's and BLAS's buffers\n"
            "with open('/proc/self/status') as status:\n"
            "    kb = next(int(line.split()[1]) for line in status if line.startswith('VmSize:'))\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (kb * 1024 + 32 * 2**20, hard))\n"
            "sys.exit(main(['solve', *sys.argv[3:]]))\n"
        )
        run = subprocess.run([sys.executable, "-c", child, small, str(tmp_path), *argv[1:]],
                             env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
                             capture_output=True, text=True, timeout=120)
        assert run.stderr == f"{big}: cannot read input (out of memory)\n"
        assert run.returncode == 64

    def test_output_path_on_a_file_exits_64(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["generate", "--m", "2", "--seed", "1", "--out", str(blocker)]) == 64
        assert "cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, blocked", [
        (["solve", "g.json"], "g-report.json"),
        (["solve", "g.json"], "g-trace.csv"),
        (["reproduce-fig1"], "fig1-trace.csv"),
        (["generate", "--m", "3", "--seed", "1"], "ensemble-m3-seed1.json"),
        (["certify", "pair.json"], "pair-certificate.json"),
        (["audit", "pair.json"], "pair-audit.json"),
        (["enumerate", "g.json"], "g-landscape.json"),
    ], ids=["solve-report", "solve-trace", "reproduce-fig1", "generate", "certify", "audit",
            "enumerate"])
    def test_output_file_that_cannot_be_written_exits_64(self, tmp_path, capsys, argv, blocked):
        gram = random_gram(3, seed=7, real=True)
        write_gram(tmp_path / "g.json", gram)
        serialize.write_json(tmp_path / "pair.json", {
            "ensemble": serialize.gram_to_dict(gram),
            "povm": serialize.povm_to_dict(solve_direct(gram, steps=100, h=1e-2).final_povm),
        })
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        solver = ["--steps", "100", "--h", "1e-2"] if argv[0] in ("solve", "reproduce-fig1") else []
        assert main(argv + solver + ["--out", str(out)]) == 64
        # an uncaught OSError would escape main here instead of returning 64
        assert capsys.readouterr().err.startswith(f"{out / blocked}: cannot write output (")

    @pytest.mark.parametrize("flags", [["--steps", "0", "--h", "inf"],
                                       ["--steps", "-1", "--h", "-1"],
                                       ["--h", "nan"],
                                       ["--steps", "100", "--h", "0.02"]])
    def test_degenerate_solver_flags_exit_64(self, tmp_path, capsys, flags):
        inp = write_gram(tmp_path / "g.json", random_gram(2, seed=821))
        assert main(["solve", inp, "--out", str(tmp_path)] + flags) == 64
        assert "invalid solver arguments" in capsys.readouterr().err

    def test_undecodable_input_exits_64_like_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe\xfa")
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 64
        assert "not valid JSON" in capsys.readouterr().err

    def test_an_integer_literal_past_the_digit_limit_exits_64(self, tmp_path, capsys):
        # json's int() refuses more than 4300 digits with a ValueError, which
        # is not a JSONDecodeError
        path = tmp_path / "long.json"
        path.write_text(json.dumps(identity_gram_dict()).replace("0.0", "1" + "0" * 5000, 1))
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{path}: not valid JSON (Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("command", ["solve", "certify", "enumerate", "audit"])
    @pytest.mark.parametrize("depth", [3000, 100_000])
    def test_deeply_nested_json_is_invalid_json(self, tmp_path, capsys, command, depth):
        # the decoder's RecursionError, not a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * depth)
        assert main([command, str(path), "--out", str(tmp_path)]) == 64
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{path}: not valid JSON (maximum recursion depth exceeded")

    @pytest.mark.parametrize("data, reason", [
        ({"m": 2, "probs": [0.5, 0.5], "states_re": [[1e300, 0.0], [0.0, 1.0]],
          "states_im": [[0.0, 0.0], [0.0, 0.0]]}, "every state must have unit norm"),
        ({"m": 2, "probs": [1e308, 1e308], "states_re": [[1.0, 0.0], [0.0, 1.0]],
          "states_im": [[0.0, 0.0], [0.0, 0.0]]}, "probabilities must sum to 1"),
        ({"m": 2, "gram_re": [[1e308, 0.0], [0.0, 1e308]], "gram_im": [[0.0, 0.0], [0.0, 0.0]]},
         "gram matrix must have trace 1"),
        ({"m": 2, "gram_re": [[0.5, 1e308], [-1e308, 0.5]], "gram_im": [[0.0, 0.0], [0.0, 0.0]]},
         "gram matrix must be hermitian"),
    ], ids=["state-1e300", "probs-1e308", "gram-diagonal-1e308", "antisymmetric-1e308"])
    def test_huge_finite_values_are_invalid_data_without_a_warning(self, tmp_path, capsys, data,
                                                                   reason):
        # the checks overflow; under error::RuntimeWarning a numpy warning escapes main
        path = tmp_path / "huge.json"
        serialize.write_json(path, data)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 65
        assert capsys.readouterr().err.splitlines() == [f"{path}: {reason}"]

    @pytest.mark.parametrize("command, payload, keys, value, where", [
        ("solve", identity_gram_dict, ["gram_re", 0, 0], BEYOND_DOUBLES, ": field 'gram_re'"),
        ("enumerate", identity_gram_dict, ["gram_re", 0, 0], BEYOND_DOUBLES, ": field 'gram_re'"),
        ("solve", orthogonal_ensemble_dict, ["probs", 0], BEYOND_DOUBLES, ": field 'probs'"),
        ("certify", identity_certify_dict, ["povm", "basis_re", 0, 0], BEYOND_DOUBLES,
         ":povm: field 'basis_re'"),
        ("audit", identity_certify_dict, ["povm", "basis_re", 0, 0], BEYOND_DOUBLES,
         ":povm: field 'basis_re'"),
        ("solve", orthogonal_ensemble_dict, ["probs"], ["1", "0", "0"], ": field 'probs'"),
        ("solve", identity_gram_dict, ["gram_re", 1], ["0", "0.3333", "0"], ": field 'gram_re'"),
        ("solve", orthogonal_ensemble_dict, ["states_re"],
         np.eye(3, dtype=bool).tolist(), ": field 'states_re'"),
        ("certify", identity_certify_dict, ["povm", "basis_im"],
         np.zeros((3, 3), dtype=bool).tolist(), ":povm: field 'basis_im'"),
        ("solve", identity_gram_dict, ["gram_re", 0, 1], False, ": field 'gram_re'"),
        ("solve", orthogonal_ensemble_dict, ["probs", 0], True, ": field 'probs'"),
        ("certify", identity_certify_dict, ["povm", "basis_re", 0, 0], True,
         ":povm: field 'basis_re'"),
        ("audit", identity_certify_dict, ["povm", "basis_re", 0, 0], True,
         ":povm: field 'basis_re'"),
    ], ids=["solve-gram", "enumerate-gram", "solve-probs", "certify-basis", "audit-basis",
            "string-probs", "string-gram", "boolean-states", "boolean-basis",
            "gram-with-a-boolean", "probs-with-a-boolean", "certify-basis-with-a-boolean",
            "audit-basis-with-a-boolean"])
    def test_a_field_of_anything_but_json_numbers_exits_64(self, tmp_path, capsys, command,
                                                          payload, keys, value, where):
        # numpy holds an integer beyond 64 bits as an object, which no double
        # holds either; a numeric string or a boolean is not a JSON number,
        # also where numpy would cast it to 1 or 0 among numbers
        path = tmp_path / "in.json"
        serialize.write_json(path, set_entry(payload(), keys, value))
        argv = [command, str(path), "--out", str(tmp_path)]
        assert main(argv + (["--steps", "100", "--h", "1e-2"] if command == "solve" else [])) == 64
        assert capsys.readouterr().err.splitlines() == [f"{path}{where} is not numeric"]

    @pytest.mark.parametrize("command, payload, message", [
        ("solve", dict(identity_gram_dict(), m=1), ": field 'm' must be an integer >= 2"),
        ("solve", dict(identity_gram_dict(), m=2.5), ": field 'm' must be an integer >= 2"),
        ("solve", dict(identity_gram_dict(), m="3"), ": field 'm' must be an integer >= 2"),
        ("certify", {"ensemble": identity_gram_dict()}, ": need fields 'ensemble' and 'povm'"),
        ("audit", {"ensemble": identity_gram_dict()}, ": need fields 'ensemble' and 'povm'"),
    ], ids=["m-1", "m-2.5", "m-string", "certify-no-povm", "audit-no-povm"])
    def test_schema_violations_exit_64_with_one_line(self, tmp_path, capsys, command, payload,
                                                     message):
        path = tmp_path / "in.json"
        serialize.write_json(path, payload)
        assert main([command, str(path), "--out", str(tmp_path)]) == 64
        assert capsys.readouterr().err.splitlines() == [f"{path}{message}"]

    @pytest.mark.parametrize("argv", [["solve", "g.json"], ["reproduce-fig1"]])
    def test_steps_beyond_the_double_range_exit_64(self, tmp_path, capsys, argv):
        # steps * h cannot convert the int to a double
        write_gram(tmp_path / "g.json", random_gram(2, seed=821))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        flags = ["--steps", str(BEYOND_DOUBLES), "--h", "1e-3", "--out", str(tmp_path)]
        assert main(argv + flags) == 64
        assert capsys.readouterr().err.splitlines() == [
            "invalid solver arguments: steps is beyond the double range"]

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

    @pytest.mark.parametrize("first, code", [(["--version"], 0), (["--help"], 0), (["solve"], 64)])
    def test_a_call_that_exits_early_leaves_the_next_one_intact(self, tmp_path, capsys,
                                                                first, code):
        assert main(first) == code
        assert main(["generate", "--m", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith(f"-> {tmp_path / 'ensemble-m2-seed3.json'}\n")

    def test_a_call_leaves_the_package_logger_as_it_found_it(self, tmp_path, capsys,
                                                             monkeypatch):
        def broken(*args, **kwargs):
            raise ms.NotUnitary("basis is not orthonormal (residual 1.0e-03)")

        ens = ms.Ensemble(np.eye(3), np.full(3, 1 / 3))
        inp = certify_payload(tmp_path / "ok.json", ens, ms.Povm(np.eye(3), frame=ms.FRAME_AMBIENT))
        monkeypatch.setattr(cli, "certificate_to_dict", broken)
        monkeypatch.setenv("MED_LOG", "debug")
        calls = [
            (["generate", "--m", "2", "--seed", "3", "--out", str(tmp_path)], 0),  # success
            (["solve", str(tmp_path / "missing.json"), "--out", str(tmp_path)], 64),  # _CliFailure
            (["certify", inp, "--out", str(tmp_path)], 3),  # a MedError reaches main
            (["--help"], 0),
        ]
        logger = logging.getLogger("medsolve")
        level, own = logger.level, logging.NullHandler()
        logger.addHandler(own)
        logger.setLevel(logging.ERROR)
        try:
            handlers = list(logger.handlers)
            for argv, code in calls:
                assert main(argv) == code
                assert logger.handlers == handlers and logger.level == logging.ERROR
        finally:
            logger.removeHandler(own)
            logger.setLevel(level)

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
