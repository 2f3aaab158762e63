"""The CLI's stderr contract under flagged LAPACK failures and mutated inputs.

Every run below ends in a documented exit code and never in a traceback, under
``warnings.simplefilter("error")``.  A run that fails prints nothing on stdout
and exactly one stderr line; a run with a result prints its status line, at
most ``WARNING`` lines on stderr, and files that parse, JSON without the
``NaN`` and ``Infinity`` tokens.

The flagged failures replace one gufunc of ``linalg.lapack`` by the real one
run on an input that LAPACK fails on, so numpy raises the invalid flag as a
real non-convergence or zero pivot does (``conftest.lapack_nan_from_call``).
The fuzz makes 1-3 seeded edits to valid inputs at m = 2, 3 and 4, runs each
mutated file through its two commands, and runs one of them again under a
flagged failure of a seeded gufunc and call.
"""

import ast
import contextlib
import copy
import io
import json
import random
import warnings
from pathlib import Path

import pytest

import medsolve as ms
from conftest import GUFUNCS, lapack_nan_from_call
from medsolve import cli, serialize

EXIT_CODES = {0, 2, 3, 64, 65}
SOLVE_FLAGS = ["--steps", "10", "--h", "0.1"]
#: (m, real) of the valid inputs, each an ensemble and a Gram matrix, each a
#: problem file and a certify file
DIMENSIONS = ((2, False), (3, True), (3, False), (4, True))
VALID = [f"m{m}-{'real' if real else 'complex'}-{schema}-{kind}" for m, real in DIMENSIONS
         for schema in ("ensemble", "gram") for kind in ("problem", "certify")]


def run(argv: list[str], out: Path) -> tuple[int, list[str], list[str]]:
    """``cli.main(argv)`` with every warning an error: (code, stdout lines, stderr lines)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("error")
        code = cli.main([*argv, "--out", str(out)])
    return code, stdout.getvalue().splitlines(), stderr.getvalue().splitlines()


def _refuse(token: str):
    raise ValueError(f"JSON token {token}")


def assert_contract(argv: list[str], out: Path, what: str = "") -> int:
    """Run ``argv`` and check the contract of the module docstring; returns the code."""
    code, lines, err = run(argv, out)
    where = f"{what} {argv}: exit {code}, stdout {lines}, stderr {err}"
    assert code in EXIT_CODES, where
    if not lines:
        assert code != 0 and len(err) == 1, where
        return code
    assert len(lines) == 1 and all(line.startswith("WARNING ") for line in err), where
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=_refuse)
        else:  # a trace: a header, then rows of numbers
            for row in text.splitlines()[1:]:
                list(map(float, row.split(",")))
    return code


def _solved_inputs(directory: Path, m: int, seed: int, real: bool) -> dict[str, Path]:
    """The problem and certify files of ``random_ensemble(m, seed)``, as an
    ensemble and as its Gram matrix, measured by ``search_optimum``'s optimum."""
    ensemble = ms.random_ensemble(m, seed, 0.6, real=real)
    gram = ms.raw_gram(ensemble)
    u = ms.search_optimum(gram, seed=seed).povm.vectors
    name = f"m{m}-{'real' if real else 'complex'}"
    files = {}
    for schema, problem, povm in (
            ("ensemble", serialize.ensemble_to_dict(ensemble),
             ms.povm_from_unitary(gram, u, ensemble=ensemble)),
            ("gram", serialize.gram_to_dict(gram), ms.Povm(u))):
        for kind, data in (("problem", problem),
                           ("certify", {"ensemble": problem,
                                        "povm": serialize.povm_to_dict(povm)})):
            key = f"{name}-{schema}-{kind}"
            files[key] = directory / f"{key}.json"
            serialize.write_json(files[key], data)
    return files


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory) -> dict[str, Path]:
    directory = tmp_path_factory.mktemp("valid")
    files = {}
    for m, real in DIMENSIONS:
        files |= _solved_inputs(directory, m, 800 + m, real)
    return files


def commands(path: Path) -> list[list[str]]:
    """The two commands that read the file ``path``."""
    if path.stem.endswith("-certify"):
        return [["certify", str(path)], ["audit", str(path)]]
    return [["solve", str(path), *SOLVE_FLAGS], ["enumerate", str(path)]]


def test_the_gufunc_list_is_every_lapack_call_of_the_package():
    src = Path(ms.__file__).parent
    nodes = [node for path in src.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))]
    called = {node.attr for node in nodes if isinstance(node, ast.Attribute)
              and "lapack" in (getattr(node.value, "attr", None), getattr(node.value, "id", None))}
    assert called == set(GUFUNCS)


class TestFlaggedFailures:
    """Each gufunc flagged failing from each of its calls in turn, in every
    command that reads a file, and in reproduce-fig1."""

    @pytest.mark.parametrize("gufunc", GUFUNCS)
    @pytest.mark.parametrize("argv", [
        ["solve", "m3-complex-gram-problem", *SOLVE_FLAGS, "--polish"],
        ["solve", "m3-real-ensemble-problem", *SOLVE_FLAGS, "--polish"],
        ["certify", "m3-complex-gram-certify"],
        ["certify", "m3-complex-ensemble-certify"],
        ["audit", "m3-complex-gram-certify"],
        ["audit", "m3-real-ensemble-certify"],
        ["enumerate", "m3-real-gram-problem"],
        ["enumerate", "m3-real-ensemble-problem"],
        ["reproduce-fig1", *SOLVE_FLAGS, "--polish"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_every_call_ends_in_one_line(self, tmp_path, monkeypatch, valid_inputs, argv,
                                         gufunc):
        argv = [str(valid_inputs.get(a, a)) for a in argv]
        calls = lapack_nan_from_call(monkeypatch, 10**6, gufunc, flagged=True)
        assert assert_contract(argv, tmp_path / "clean") == 0
        codes = set()
        for first in range(1, len(calls) + 1):
            lapack_nan_from_call(monkeypatch, first, gufunc, flagged=True)
            codes.add(assert_contract(argv, tmp_path / str(first), f"{gufunc} from call {first}"))
        assert codes <= {0, 3, 65}


# leaf values, and float scales, of the mutations
LEAVES = (0, -0.0, 5e-324, 1e-320, 1e308, -1e308, 2**63, 2**64, 10**19, True, False, None,
          "1", [], {}, [[1]], 2.5, 1e-13, -1e-13)
SCALES = (1 + 1e-15, 1e-8, 1e8, -1)
#: mutated files per valid input: 16 inputs make 1,008
MUTANTS = 63


def _slots(node):
    """(container, key) of every entry under the dict or list ``node``."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def mutate(data: dict, rng: random.Random) -> dict:
    """``data`` with 1-3 edits: an entry replaced by one of LEAVES, or deleted,
    a list's last element repeated, or a float scaled by one of SCALES."""
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 3)):
        slots = list(_slots(data))
        if not slots:
            break
        node, key = rng.choice(slots)
        value, edit = node[key], rng.randrange(4)
        if edit == 1:
            del node[key]
        elif edit == 2 and isinstance(value, list) and value:
            value.append(copy.deepcopy(value[-1]))
        elif edit == 3 and isinstance(value, float):
            node[key] = value * rng.choice(SCALES)
        else:
            node[key] = copy.deepcopy(rng.choice(LEAVES))
    return data


@pytest.mark.parametrize("name", VALID)
def test_mutated_inputs_keep_the_contract(tmp_path, valid_inputs, name):
    data = json.loads(valid_inputs[name].read_text())
    for seed in range(MUTANTS):
        rng = random.Random(seed)
        path = tmp_path / f"{seed}-{valid_inputs[name].name}"
        path.write_text(json.dumps(mutate(data, rng)))
        argvs = commands(path)
        for k, argv in enumerate(argvs):
            assert_contract(argv, tmp_path / f"{seed}-{k}", f"seed {seed}")
        gufunc, first = rng.choice(GUFUNCS), rng.randint(1, 4)
        with pytest.MonkeyPatch.context() as patch:
            lapack_nan_from_call(patch, first, gufunc, flagged=True)
            assert_contract(rng.choice(argvs), tmp_path / f"{seed}-flagged",
                            f"seed {seed}, {gufunc} flagged from call {first}")
