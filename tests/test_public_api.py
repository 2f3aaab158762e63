"""The package root exports exactly the names in ``medsolve.__all__``, the
CLI and the solver entry points take exactly the pinned options, the
enumeration, certificate and audit records hold exactly the pinned fields,
and every seeded entry point rejects a negative seed alike."""

import argparse
import ast
import dataclasses
import inspect
import types
from pathlib import Path

import pytest

import medsolve as ms
from conftest import random_gram
from medsolve import cli

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
    "NotCertified",
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
    assert len(ms.__all__) == len(PUBLIC) == 42
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


_SOLVER_FLAGS = {"--out", "--tol-stat", "--tol-glb", "--steps", "--h", "--polish"}
CLI_OPTIONS = {
    "solve": _SOLVER_FLAGS | {"--batch", "--from"},
    "certify": {"--out", "--tol-stat", "--tol-glb"},
    "enumerate": {"--out", "--tol-stat", "--tol-glb", "--seed"},
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
              for f in (ms.rk4_drag, ms.search_optimum, ms.derivative,
                        ms.certify_povm, ms.certify_gram, ms.classify_landscape)}
    assert params == {
        "rk4_drag": ["trajectory", "steps", "h", "polish", "initial"],
        "search_optimum": ["gram", "seed"],
        "derivative": ["state", "trajectory"],
        "certify_povm": ["ensemble", "povm"],
        "certify_gram": ["gram", "f"],
        "classify_landscape": ["gram", "seed"],
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
    # f_positive, status and passed are derived; the serializers write these
    # fields plus those derived keys
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (ms.Certificate, ms.AuditReport)}
    assert fields == {
        "Certificate": ["stationarity_residual", "global_min_eig", "f_min_eig", "p_success",
                        "tr_z", "tol_stat", "tol_glb"],
        "AuditReport": ["k0", "residuals", "strict_margins", "tol"],
    }


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ms.random_ensemble(3, seed=-1, spread=0.5), id="random_ensemble"),
    pytest.param(lambda: ms.solve_stationary(random_gram(3, seed=7, real=True), seed=-1),
                 id="solve_stationary"),
    pytest.param(lambda: ms.search_optimum(random_gram(3, seed=7), seed=-1),
                 id="search_optimum"),
])
def test_seeded_entry_points_reject_a_negative_seed(call):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        call()
