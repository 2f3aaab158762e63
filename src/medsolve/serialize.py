"""JSON and CSV input/output.

Schemas (row-major nested lists of IEEE-754 doubles):

- Gram matrix:   {"m": int, "gram_re": [[..]], "gram_im": [[..]]}
- Ensemble:      {"m": int, "probs": [..], "states_re": [[..]], "states_im": [[..]]}
                 (states_re[i] / states_im[i] are the components of state i)
- Measurement:   {"m": int, "basis_re": [[..]], "basis_im": [[..]], "frame": "dual"|"ambient"}
                 (basis_re[i] are the components of basis vector i)
- Certification input: {"ensemble": <gram-or-ensemble dict>, "povm": <measurement dict>}

JSON output is deterministic: keys sorted, two-space indent, floats in
Python's shortest round-trip representation.  Residual traces go to CSV
with columns iter,t,log10_hs_residual,min_eig_F,p_success_partial.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bloch3 import AuditReport
from .certify import Certificate
from .enumerate3 import LandscapeSummary, StationaryRoot
from .exceptions import SchemaError
from .gram import Ensemble, GramMatrix
from .homotopy import POLISH_EVERY, RunReport, SolverState
from .measurement import FRAME_AMBIENT, FRAME_DUAL, Povm

_LOG_FLOOR = 1e-320  # keeps log10 finite for identically-zero residuals


def _re(mat: np.ndarray) -> list:
    return np.asarray(mat).real.tolist()


def _im(mat: np.ndarray) -> list:
    return np.asarray(mat).imag.tolist()


def _need(data: dict, key: str, context: str):
    if key not in data:
        raise SchemaError(f"{context}: missing field {key!r}")
    return data[key]


def _matrix_field(data: dict, key: str, m: int, context: str) -> np.ndarray:
    raw = _need(data, key, context)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{context}: field {key!r} is not numeric") from exc
    if arr.shape != (m, m):
        raise SchemaError(f"{context}: field {key!r} must be {m}x{m}, got {arr.shape}")
    return arr


def gram_to_dict(gram: GramMatrix) -> dict:
    return {"m": gram.m, "gram_re": _re(gram.entries), "gram_im": _im(gram.entries)}


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    states = ensemble.states.T  # one state per row in the file
    return {
        "m": ensemble.m,
        "probs": ensemble.probs.tolist(),
        "states_re": _re(states),
        "states_im": _im(states),
    }


def load_gram_or_ensemble(data: dict, context: str = "input") -> GramMatrix | Ensemble:
    """Parse either schema; validation errors surface from the constructors."""
    if not isinstance(data, dict):
        raise SchemaError(f"{context}: expected a JSON object")
    m = _need(data, "m", context)
    if not isinstance(m, int) or m < 2:
        raise SchemaError(f"{context}: field 'm' must be an integer >= 2")
    if "gram_re" in data:
        entries = _matrix_field(data, "gram_re", m, context) + 1j * _matrix_field(
            data, "gram_im", m, context
        )
        return GramMatrix(entries)
    if "states_re" in data:
        try:
            probs = np.asarray(_need(data, "probs", context), dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{context}: field 'probs' is not numeric") from exc
        if probs.shape != (m,):
            raise SchemaError(f"{context}: field 'probs' must have length {m}")
        states = _matrix_field(data, "states_re", m, context) + 1j * _matrix_field(
            data, "states_im", m, context
        )
        return Ensemble(states.T, probs)
    raise SchemaError(f"{context}: need either field 'gram_re' or field 'states_re'")


def povm_to_dict(povm: Povm) -> dict:
    basis = povm.vectors.T
    return {
        "m": povm.m,
        "basis_re": _re(basis),
        "basis_im": _im(basis),
        "frame": povm.frame,
    }


def povm_from_dict(data: dict, context: str = "povm") -> Povm:
    if not isinstance(data, dict):
        raise SchemaError(f"{context}: expected a JSON object")
    m = _need(data, "m", context)
    if not isinstance(m, int) or m < 2:
        raise SchemaError(f"{context}: field 'm' must be an integer >= 2")
    basis = _matrix_field(data, "basis_re", m, context) + 1j * _matrix_field(
        data, "basis_im", m, context
    )
    frame = _need(data, "frame", context)
    if frame not in (FRAME_DUAL, FRAME_AMBIENT):
        raise SchemaError(f"{context}: field 'frame' must be 'dual' or 'ambient', got {frame!r}")
    return Povm(basis.T, frame=frame)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "stationarity_residual": cert.stationarity_residual,
        "global_min_eig": cert.global_min_eig,
        "f_min_eig": cert.f_min_eig,
        "f_positive": cert.f_positive,
        "p_success": cert.p_success,
        "tr_z": cert.tr_z,
        "tol_stat": cert.tol_stat,
        "tol_glb": cert.tol_glb,
        "status": cert.status,
    }


def solver_state_to_dict(state: SolverState) -> dict:
    return {
        "t": state.t,
        "a": state.a.tolist(),
        "f_re": state.f.real.tolist(),
        "f_im": state.f.imag.tolist(),
    }


def run_report_to_dict(report: RunReport) -> dict:
    trace = report.trace
    return {
        "steps": report.steps,
        "h": report.h,
        "polish": report.polish,
        "polish_every": POLISH_EVERY,
        "first_residual": float(trace[0, 2]),
        "final_residual": float(trace[-1, 2]),
        "final_state": solver_state_to_dict(report.final_state),
        "final_povm": povm_to_dict(report.final_povm),
        "certificate": certificate_to_dict(report.certificate),
    }


def _root_to_dict(root: StationaryRoot) -> dict:
    alpha, beta, gamma = root.values.tolist()
    return {
        "alpha_re": alpha.real, "alpha_im": alpha.imag,
        "beta_re": beta.real, "beta_im": beta.imag,
        "gamma_re": gamma.real, "gamma_im": gamma.imag,
        "residual": root.residual,
        "is_real": root.is_real,
        "is_positive_definite": root.is_positive_definite,
        "p_success": root.p_success,
        "d_inv_sq": None if root.d_inv_sq is None else root.d_inv_sq.tolist(),
        "jacobian_rank": root.jacobian_rank,
    }


def landscape_to_dict(summary: LandscapeSummary) -> dict:
    return {
        "m": summary.gram.m,
        "roots": [
            dict(_root_to_dict(root), label=label,
                 certificate=None if cert is None else certificate_to_dict(cert))
            for root, label, cert in zip(summary.roots, summary.labels, summary.certificates)
        ],
    }


def audit_to_dict(report: AuditReport) -> dict:
    return {
        "k0": report.k0,
        "residuals": dict(sorted(report.residuals.items())),
        "strict_margins": dict(sorted(report.strict_margins.items())),
        "tol": report.tol,
        "passed": report.passed,
    }


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return data


def write_trace_csv(path: str | Path, trace: np.ndarray) -> None:
    lines = ["iter,t,log10_hs_residual,min_eig_F,p_success_partial"]
    for row in np.asarray(trace):
        log_resid = np.log10(max(float(row[2]), _LOG_FLOOR))
        lines.append(
            f"{int(row[0])},{row[1]:.17g},{log_resid:.17g},{row[3]:.17g},{row[4]:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
