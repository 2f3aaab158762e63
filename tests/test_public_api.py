"""The package root exports exactly the names in ``medsolve.__all__``, the
CLI and the solver entry points take exactly the pinned options, the
enumeration, certificate and audit records hold exactly the pinned fields,
and every seeded entry point rejects a negative seed alike."""

import argparse
import ast
import dataclasses
import inspect
import re
import types
from pathlib import Path

import pytest

import medsolve as ms
from conftest import random_gram
from medsolve import cli, serialize

PUBLIC = {
    "AuditReport",
    "Certificate",
    "EPS_LI",
    "Ensemble",
    "FRAME_AMBIENT",
    "FRAME_DUAL",
    "GramMatrix",
    "LandscapeSummary",
    "MedError",
    "NearLinearDependence",
    "NoConvergence",
    "NotUnitary",
    "OracleResult",
    "PositivityLost",
    "Povm",
    "ResidualTooLarge",
    "RootCountAnomaly",
    "RunReport",
    "SchemaError",
    "SearchStats",
    "SingularJacobian",
    "SolverState",
    "StationaryRoot",
    "TOL_GLB",
    "TOL_STAT",
    "Trajectory",
    "certify_gram",
    "certify_povm",
    "classify_landscape",
    "derivative",
    "ensemble_from_gram",
    "geometric_audit",
    "helstrom",
    "initial_state",
    "povm_from_unitary",
    "random_ensemble",
    "raw_gram",
    "reference_five_state_gram",
    "rk4_drag",
    "search_optimum",
    "solve_stationary",
}


def test_root_namespace_is_all():
    names = {
        name
        for name, value in vars(ms).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == set(ms.__all__)


def test_all_is_the_pinned_surface():
    assert len(ms.__all__) == len(PUBLIC) == 41
    assert set(ms.__all__) == PUBLIC


def test_no_module_imports_a_private_name_of_another():
    # a name one module shares with another is part of the package's own
    # surface, so it carries no leading underscore
    private = [
        f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
        for path in sorted(Path(ms.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_only_linalg_names_numpys_private_lapack_module():
    # numpy's private module is reached through linalg.lapack, looked up at call
    # time, so that one test fake replaces every LAPACK call of the package
    root = Path(ms.__file__).resolve().parents[2]
    named, bound = set(), []
    for path in sorted(p for d in ("src", "tools", "perfbench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
                        and "lapack" in names):
                    bound.append(f"{path.relative_to(root)}:{node.lineno}")
            else:
                continue
            if any("_umath_linalg" in name.split(".") for name in names):
                named.add(str(path.relative_to(root)))
    assert named == {"src/medsolve/linalg.py"}
    assert bound == []


def _public_definitions(tree: ast.Module):
    """(qualified name, name) of each public module-level function, class and
    constant, and of each public method and property of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _public_fields(tree: ast.Module):
    """(class, field) of each public field of a module-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")):
                    yield node.name, item.target.id


def _written_whole(tree: ast.Module) -> set[str]:
    """The classes, by their annotation, of the arguments that a function
    passes to ``_fields``, which writes every field of a dataclass."""
    classes = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            annotations = {a.arg: ast.unparse(a.annotation) for a in func.args.args
                           if a.annotation}
            classes.update(annotations[call.args[0].id] for call in ast.walk(func)
                           if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                           and call.func.id == "_fields" and func.name != "_fields")
    return classes


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every identifier the code reads as a name or an attribute, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public name that only the tests use is surface to maintain for
    # nothing; the root names are pinned by test_all_is_the_pinned_surface
    root = Path(ms.__file__).resolve().parents[2]
    package = sorted(Path(ms.__file__).parent.glob("*.py"))
    readme = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    trees = [ast.parse(path.read_text())
             for path in (*sorted((root / "src").rglob("*.py")),
                          *sorted((root / "tools").rglob("*.py")),
                          *sorted((root / "perfbench").rglob("*.py")))
             if not path.name.startswith("test_")]
    trees += [ast.parse(b) for b in readme]
    used = set().union(*map(_referenced_names, trees))
    unused = [
        f"{path.stem}.{qualified}"
        for path in package
        for qualified, name in _public_definitions(ast.parse(path.read_text()))
        if name not in used and qualified not in ms.__all__
    ]
    # a dataclass field is read as an attribute, or written by serialize._fields
    attributes = {node.attr for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    written = _written_whole(ast.parse(Path(serialize.__file__).read_text()))
    assert written == {"Certificate", "AuditReport"}
    unused += [
        f"{path.stem}.{cls}.{field}"
        for path in package
        for cls, field in _public_fields(ast.parse(path.read_text()))
        if field not in attributes and cls not in written
    ]
    assert unused == []


_SOLVER_FLAGS = {"--out", "--steps", "--h", "--polish"}
CLI_OPTIONS = {
    "solve": _SOLVER_FLAGS | {"--batch"},
    "certify": {"--out"},
    "enumerate": {"--out"},
    "audit": {"--out"},
    "generate": {"--out", "--m", "--seed", "--spread", "--real"},
    "reproduce-fig1": _SOLVER_FLAGS,
}


def test_cli_options_are_the_pinned_surface():
    parser = cli.build_parser()
    [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subs.choices.items()
    }
    assert options == CLI_OPTIONS


def test_solver_entry_points_take_the_pinned_parameters():
    params = {f.__name__: list(inspect.signature(f).parameters)
              for f in (ms.rk4_drag, ms.search_optimum, ms.derivative, ms.certify_povm,
                        ms.certify_gram, ms.solve_stationary, ms.classify_landscape,
                        ms.geometric_audit)}
    assert params == {
        "rk4_drag": ["trajectory", "steps", "h", "polish", "initial"],
        "search_optimum": ["gram", "seed"],
        "derivative": ["state", "trajectory"],
        "certify_povm": ["ensemble", "povm"],
        "certify_gram": ["gram", "f"],
        "solve_stationary": ["gram"],
        "classify_landscape": ["gram"],
        "geometric_audit": ["ensemble", "povm"],
    }


def test_enumeration_records_hold_the_pinned_fields():
    # one stored form per quantity: M, F and the labels are derived
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (ms.StationaryRoot, ms.LandscapeSummary)}
    assert fields == {
        "StationaryRoot": ["values", "residual", "d_inv_sq", "jacobian_rank"],
        "LandscapeSummary": ["gram", "roots", "certificates"],
    }


def test_certificate_and_audit_hold_the_pinned_fields():
    # f_positive, status and passed are derived, and the tolerances are the
    # package's constants; the serializers write these fields plus those keys
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (ms.Certificate, ms.AuditReport)}
    assert fields == {
        "Certificate": ["stationarity_residual", "global_min_eig", "f_min_eig", "p_success",
                        "tr_z"],
        "AuditReport": ["k0", "residuals", "strict_margins"],
    }


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ms.random_ensemble(3, seed=-1, spread=0.5), id="random_ensemble"),
    pytest.param(lambda: ms.search_optimum(random_gram(3, seed=7), seed=-1),
                 id="search_optimum"),
])
def test_seeded_entry_points_reject_a_negative_seed(call):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        call()
