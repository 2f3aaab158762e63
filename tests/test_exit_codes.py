"""Property tests of the CLI exit-code contract.

Every argv below ends in one of the documented exit codes and never in a
traceback.  Most inputs are malformed: missing paths, directories, garbage
files and out-of-range generator arguments.  No such file is a valid
problem: a unit trace or probabilities summing to one cannot be formed from
the numbers drawn (integers, 2.5, 1e308, -1e-300, infinities), so no command
reaches a drag.  The generator's ranges are also drawn with a directory where
its output file goes, so a write that fails is covered too.  The last test
feeds valid problems close to linear dependence to ``solve``, where the drag
itself runs near its limits.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import medsolve as ms
from medsolve import cli, serialize

EXIT_CODES = {0, 2, 3, 64, 65}
SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEMA_KEYS = ["m", "gram_re", "gram_im", "probs", "states_re", "states_im",
               "ensemble", "povm", "basis_re", "basis_im", "frame"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4)
    | st.sampled_from([2.5, 1e308, -1e-300, float("inf"), float("-inf")])
    | st.text(max_size=6) | st.sampled_from(["dual", "ambient"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=20,
)
# schema-shaped objects that reach the loaders' validation
field_values = st.one_of(
    st.lists(st.lists(st.integers(-2, 2) | st.none() | st.text(max_size=2), max_size=3),
             max_size=3),
    st.lists(st.integers(-2, 2) | st.dictionaries(st.text(max_size=2), st.none()), max_size=3),
    json_values,
)
problems = st.fixed_dictionaries(
    {"m": st.integers(1, 3) | json_values},
    optional={key: field_values for key in SCHEMA_KEYS[1:]},
)
file_bodies = st.one_of(
    problems.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({"ensemble": problems, "povm": problems})
    .map(lambda v: json.dumps(v).encode()),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.text(max_size=40).map(str.encode),
    st.binary(max_size=40),
)
# tokens that name a path: a garbage file, a file that does not exist, a directory
paths = st.sampled_from(["garbage.json", "missing.json", "."])
flag_values = st.one_of(
    st.integers(-5, 8).map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)
flags = st.one_of(
    st.tuples(st.sampled_from(["--steps", "--h", "--tol-stat", "--tol-glb", "--seed",
                               "--m", "--spread"]), flag_values),
    st.tuples(st.sampled_from(["--batch", "--out"]), paths),
    st.tuples(st.sampled_from(["--polish", "--real", "--no-such-flag", "--from", "-x", "--"])),
    st.tuples(flag_values),
)
commands = st.sampled_from(["solve", "certify", "enumerate", "audit", "generate", "", "nope"])


def _run(argv, tmp):
    argv = [str(tmp / a) if a in ("garbage.json", "missing.json", ".") else a for a in argv]
    return cli.main(argv)


def _exit_codes(command, path, flag_groups, body, blocked=None):
    """Exit codes of two runs of one argv; ``blocked`` names an output file
    with a directory in its way."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "garbage.json").write_bytes(body)
        if blocked:
            (tmp / blocked).mkdir()
        # outputs go to the temporary directory unless a drawn --out overrides it
        argv = [command, "--out", "."] + ([path] if path else [])
        argv += [x for group in flag_groups for x in group]
        # the same argv twice in one process: main keeps no state between calls
        return _run(argv, tmp), _run(argv, tmp)


@pytest.mark.slow
@SETTINGS
@given(commands, st.none() | paths, st.lists(flags, max_size=5), file_bodies)
def test_malformed_argv_and_files_end_in_documented_codes(command, path, flag_groups, body):
    first, again = _exit_codes(command, path, flag_groups, body)
    assert first in EXIT_CODES
    assert first == again


@SETTINGS
@given(
    st.integers(-3, 1) | st.integers(2, 6),
    st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True) | st.floats(0.05, 1.0)
    | st.just(float("nan")),
    st.integers(-2, 2**40),
    st.booleans(),
    st.booleans(),
)
def test_generate_ranges_end_in_documented_codes(m, spread, seed, real, block_output):
    # "--flag=value" keeps argparse from reading a value such as -1e-05 as a flag
    flag_groups = [(f"--m={m}",), (f"--spread={spread!r}",), (f"--seed={seed}",)]
    if real:
        flag_groups.append(("--real",))
    blocked = f"ensemble-m{m}-seed{seed}.json" if block_output else None
    first, again = _exit_codes("generate", None, flag_groups, b"", blocked)
    assert first == again
    in_range = m >= 2 and 0.0 < spread <= 1.0 and seed >= 0
    # a directory at the output file's name makes the write fail
    assert first == (65 if not in_range else 64 if block_output else 0)


def test_generate_beyond_the_address_space_is_invalid_data(capsys):
    # the m x m state matrix would take 71 PiB, more than a process can
    # address, so numpy refuses it before touching memory
    with tempfile.TemporaryDirectory() as tmp:
        code = cli.main(["generate", "--m", "100000000", "--seed", "1", "--out", tmp])
    assert code == 65
    assert "generation failed" in capsys.readouterr().err


def test_solve_beyond_the_address_space_is_a_usage_error(tmp_path, capsys):
    # a trace of 1e15 rows takes 35.5 PiB, more than a process can address,
    # so numpy refuses it before the first step
    inp = tmp_path / "g.json"
    serialize.write_json(inp, serialize.gram_to_dict(ms.GramMatrix(np.eye(2) / 2)))
    code = cli.main(["solve", str(inp), "--out", str(tmp_path),
                     "--steps", "1000000000000000", "--h", "1e-15"])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("invalid solver arguments: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-12", "tight"])
@pytest.mark.parametrize("flag", ["--tol-stat", "--tol-glb"])
@pytest.mark.parametrize("argv", [["solve", "in.json"], ["reproduce-fig1"],
                                  ["certify", "in.json"], ["enumerate", "in.json"]],
                         ids=["solve", "reproduce-fig1", "certify", "enumerate"])
def test_invalid_tolerances_are_usage_errors(capsys, argv, flag, value):
    # no subcommand takes a tolerance any more; "--flag=value" keeps argparse
    # from reading -inf or -1e-12 as a flag of its own
    assert cli.main(argv + [f"{flag}={value}"]) == 64
    assert f"unrecognized arguments: {flag}={value}" in capsys.readouterr().err


def _near_floor_gram(m, seed, real, factor):
    """A Gram matrix whose smallest eigenvalue is ``factor`` * EPS_LI."""
    vals, vecs = np.linalg.eigh(ms.raw_gram(ms.random_ensemble(m, seed, 0.6, real=real)).entries)
    vals[0] = factor * ms.EPS_LI
    vals[1:] *= (1.0 - vals[0]) / vals[1:].sum()
    entries = (vecs * vals) @ vecs.conj().T
    return (entries + entries.conj().T) / 2


@pytest.mark.slow
@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
    st.floats(0.97, 1.0),
    st.booleans(),
    st.floats(0.5, 0.9) | st.floats(1.1, 2.0),
)
def test_solve_near_dependence_ends_in_documented_codes(m, seed, spread, real, factor):
    solve = ["--steps", "100", "--h", "1e-2"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code = cli.main(["generate", f"--m={m}", f"--seed={seed}", f"--spread={spread!r}",
                         "--out", str(tmp)] + (["--real"] if real else []))
        assert code in (0, 65)
        if code == 0:
            ensemble = tmp / f"ensemble-m{m}-seed{seed}.json"
            assert cli.main(["solve", str(ensemble), "--out", str(tmp)] + solve) in (0, 2, 3)
        # the raw dict: a GramMatrix below the floor cannot be constructed
        entries = _near_floor_gram(m, seed, real, factor)
        gram = tmp / "gram.json"
        serialize.write_json(gram, {"m": m, "gram_re": entries.real.tolist(),
                                    "gram_im": entries.imag.tolist()})
        code = cli.main(["solve", str(gram), "--out", str(tmp)] + solve)
        assert code == 65 if factor < 1.0 else code in (0, 2, 3)
