"""JSON and CSV input/output.

Schemas (row-major nested lists of JSON numbers, read as IEEE-754 doubles):

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
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np

from .bloch3 import AuditReport
from .certify import Certificate
from .enumerate3 import LandscapeSummary, StationaryRoot
from .exceptions import SchemaError
from .gram import Ensemble, GramMatrix
from .homotopy import RunReport, SolverState
from .measurement import FRAME_AMBIENT, FRAME_DUAL, Povm

LOG_FLOOR = 1e-320  # keeps log10 finite for identically-zero residuals


def _re(mat: np.ndarray) -> list:
    return np.asarray(mat).real.tolist()


def _im(mat: np.ndarray) -> list:
    return np.asarray(mat).imag.tolist()


def _need(data: dict, key: str, context: str):
    if key not in data:
        raise SchemaError(f"{context}: missing field {key!r}")
    return data[key]


def _numbers(data: dict, key: str, shape: tuple[int, ...], context: str) -> np.ndarray:
    """Field ``key`` as float64 of ``shape``.  Strings, null, integers beyond 64 bits
    (numpy objects) and booleans are refused."""
    field = _need(data, key, context)
    try:
        arr = np.asarray(field)
    except ValueError as exc:  # ragged, or nested deeper than numpy's 64 dimensions
        raise SchemaError(f"{context}: field {key!r} is not numeric") from exc
    if arr.dtype.kind not in "iuf":
        raise SchemaError(f"{context}: field {key!r} is not numeric")
    if arr.shape != shape:
        raise SchemaError(f"{context}: field {key!r} must have shape {shape}, got {arr.shape}")
    # numpy casts a boolean among numbers to 1 or 0; the field's nesting is now ``shape``
    if bool in map(type, chain.from_iterable(field) if len(shape) == 2 else field):
        raise SchemaError(f"{context}: field {key!r} is not numeric")
    return arr.astype(np.float64, copy=False)


def _complex_matrix(data: dict, name: str, m: int, context: str) -> np.ndarray:
    """The m x m matrix held in the fields ``<name>_re`` and ``<name>_im``."""
    re = _numbers(data, f"{name}_re", (m, m), context)
    return re + 1j * _numbers(data, f"{name}_im", (m, m), context)


def _dimension(data: dict, context: str) -> int:
    """Field 'm' of a JSON object, an integer >= 2."""
    if not isinstance(data, dict):
        raise SchemaError(f"{context}: expected a JSON object")
    m = _need(data, "m", context)
    if not isinstance(m, int) or m < 2:
        raise SchemaError(f"{context}: field 'm' must be an integer >= 2")
    return m


def _fields(obj) -> dict:
    """A dataclass instance's fields by name, read shallowly (``asdict`` deep-copies)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


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
    m = _dimension(data, context)
    if "gram_re" in data:
        return GramMatrix(_complex_matrix(data, "gram", m, context))
    if "states_re" in data:
        probs = _numbers(data, "probs", (m,), context)
        return Ensemble(_complex_matrix(data, "states", m, context).T, probs)
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
    basis = _complex_matrix(data, "basis", _dimension(data, context), context)
    frame = _need(data, "frame", context)
    if frame not in (FRAME_DUAL, FRAME_AMBIENT):
        raise SchemaError(f"{context}: field 'frame' must be 'dual' or 'ambient', got {frame!r}")
    return Povm(basis.T, frame=frame)


def certificate_to_dict(cert: Certificate) -> dict:
    return dict(_fields(cert), tol_stat=cert.tol_stat, tol_glb=cert.tol_glb,
                f_positive=cert.f_positive, status=cert.status)


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
    """The report's fields with plain dict copies of its read-only mappings,
    ``tol`` and ``passed``."""
    return dict(_fields(report), residuals=dict(report.residuals),
                strict_margins=dict(report.strict_margins), tol=report.tol, passed=report.passed)


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax, bytes that are not UTF-8, or an integer literal past
        # Python's 4300-digit conversion limit; RecursionError: nesting too deep
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return data


def write_trace_csv(path: str | Path, trace: np.ndarray) -> None:
    trace = np.asarray(trace)
    log_resid = np.log10(np.maximum(trace[:, 2], LOG_FLOOR)).tolist()
    lines = ["iter,t,log10_hs_residual,min_eig_F,p_success_partial"]
    lines += [f"{int(it)},{t:.17g},{lr:.17g},{f_min:.17g},{p:.17g}"
              for (it, t, _, f_min, p), lr in zip(trace.tolist(), log_resid)]
    Path(path).write_text("\n".join(lines) + "\n")
