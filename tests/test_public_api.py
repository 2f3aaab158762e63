"""The package root exports exactly the names in ``medsolve.__all__``."""

import types

import medsolve as ms

PUBLIC = {
    "AuditReport",
    "COND_MAX",
    "Certificate",
    "EPS_A",
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
    "NotRealRoot",
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
    "dual_basis",
    "ensemble_from_gram",
    "geometric_audit",
    "helstrom",
    "initial_state",
    "povm_from_unitary",
    "random_ensemble",
    "raw_gram",
    "reference_five_state_gram",
    "rk4_drag",
    "root_to_povm",
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
    assert len(ms.__all__) == len(PUBLIC) == 47
    assert set(ms.__all__) == PUBLIC
