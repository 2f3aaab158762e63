"""Optimal measurements for minimum-error discrimination of linearly
independent pure quantum states.

The toolkit computes the rank-one projective measurement maximizing the
average identification probability for an ensemble of m linearly
independent pure states, by integrating the optimum along a line of Gram
matrices from the trivial orthogonal case to the target.  Results are
certified against the stationarity and global-optimality conditions, and
cross-checked by independent routes: exhaustive stationary-point
enumeration for three real states, a Bloch-geometry audit for qutrits, a
closed form for two states, and direct search over the unitary group.
"""

from .bloch3 import AuditReport, geometric_audit
from .certify import TOL_GLB, TOL_STAT, Certificate, certify_gram, certify_povm
from .enumerate3 import (
    LandscapeSummary,
    StationaryRoot,
    classify_landscape,
    solve_stationary,
)
from .exceptions import (
    MedError,
    NearLinearDependence,
    NoConvergence,
    NotUnitary,
    PositivityLost,
    ResidualTooLarge,
    RootCountAnomaly,
    SchemaError,
    SingularJacobian,
)
from .gram import (
    EPS_LI,
    Ensemble,
    GramMatrix,
    ensemble_from_gram,
    random_ensemble,
    raw_gram,
    reference_five_state_gram,
)
from .homotopy import (
    RunReport,
    SolverState,
    Trajectory,
    derivative,
    initial_state,
    rk4_drag,
)
from .measurement import FRAME_AMBIENT, FRAME_DUAL, Povm, povm_from_unitary
from .oracle import OracleResult, SearchStats, helstrom, search_optimum

__version__ = "0.1.0"

__all__ = [
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
]
