"""The four benchmark workloads: set-up (inputs, references, warm-up) and
the operations the timed loop cycles through, each with its correctness check.

An operation's check returns None when the output is right, or a
``(kind, reason)`` pair: ``refused`` when the program answered an input it
should have solved with a documented failure exit code, and ``wrong`` when
it produced a wrong answer (a value off its reference or a wrong verdict).
The runner adds ``crashed`` for an exception that escaped the operation and
``wrong`` for output files that differ between repeats of one input.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import medsolve as ms
import medsolve.cli

SOLVE_FLAGS = ["--steps", "200", "--h", "5e-3", "--polish"]
FIG1_BANDS = {"head": (slice(0, 10), -17.3, -16.3), "tail": (slice(979, 1000), -16.2, -15.2)}
TOL_HELSTROM = 1e-9
TOL_ENUM = 1e-8
TOL_SEARCH = 1e-6
#: agreement between the reported p_success (Tr F) and the value the written
#: measurement attains; the certificate's own gate on F^2 - DGD
TOL_AGREE = 1e-8
FAILURE_EXITS = (2, 3, 64, 65)

warnings.simplefilter("ignore", ms.RootCountAnomaly)


@dataclass
class Op:
    """One operation: a CLI call (``argv`` without --out) or an API call."""

    key: str
    kind: str
    check: Callable[[Path, object], tuple[str, str] | None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None

    def run(self, out: Path):
        if self.argv is not None:
            return ms.cli.main(self.argv + ["--out", str(out)])
        return self.call()


@dataclass
class Plan:
    ops: list[Op]
    warm: list[Op]
    digest: str
    #: wall seconds of one cycle of ``ops`` on the 2-core host the benchmark
    #: was tuned on; sets the number of cycles a run of ``--seconds`` holds
    cycle_s: float


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _povm(payload: dict) -> ms.Povm:
    basis = np.asarray(payload["basis_re"]) + 1j * np.asarray(payload["basis_im"])
    return ms.Povm(basis.T, frame=payload["frame"])


def _povm_dict(vectors: np.ndarray, frame: str) -> dict:
    rows = vectors.T
    return {"m": rows.shape[0], "basis_re": rows.real.tolist(),
            "basis_im": rows.imag.tolist(), "frame": frame}


def _realization(problem: inputs.Problem) -> ms.Ensemble:
    """The ensemble a measurement read back from the program refers to:
    the problem's own states for ensemble files, the canonical realization
    for Gram files."""
    if problem.schema == "ensemble":
        return ms.Ensemble(problem.states, problem.probs)
    return ms.ensemble_from_gram(ms.GramMatrix(problem.gram()))


def _unexpected(code, expect: tuple[int, ...]) -> tuple[str, str] | None:
    if code in expect:
        return None
    if expect == (0,) and code in FAILURE_EXITS:
        return "refused", f"exit {code}"
    return "wrong", f"exit {code}, expected {expect}"


def _check_solve_report(report_path: Path, trace_path: Path, ensemble: ms.Ensemble,
                        steps: int, reference: float | None, tol: float) -> tuple[str, str] | None:
    report = _read_json(report_path)
    cert = report["certificate"]
    if cert["status"] != "optimal":
        return "wrong", f"exit 0 with status {cert['status']}"
    with trace_path.open() as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != steps:
        return "wrong", f"trace has {rows} rows, expected {steps}"
    again = ms.certify_povm(ensemble, _povm(report["final_povm"]))
    if not again.is_optimal or abs(again.p_success - cert["p_success"]) > TOL_AGREE:
        return "wrong", f"re-certification gave {again.status} p={again.p_success!r}"
    if reference is not None and abs(cert["p_success"] - reference) > tol:
        return "wrong", f"p_success {cert['p_success']!r} vs reference {reference!r}"
    return None


# ---------------------------------------------------------------- fig1

def fig1(ws: Path, seed: int) -> Plan:
    """The paper's five-state figure; the seed does not enter (fixed input)."""
    realization = ms.ensemble_from_gram(ms.reference_five_state_gram())

    def check(out: Path, code) -> tuple[str, str] | None:
        bad = _unexpected(code, (0,))
        if bad:
            return bad
        with (out / "fig1-trace.csv").open() as fh:
            logs = np.array([float(row["log10_hs_residual"]) for row in csv.DictReader(fh)])
        if logs.shape != (1000,):
            return "wrong", f"trace has {logs.shape[0]} rows"
        for band, (rows, lo, hi) in FIG1_BANDS.items():
            part = logs[rows]
            if part.min() < lo or part.max() > hi:
                return "wrong", f"{band} residual band [{part.min():.2f}, {part.max():.2f}]"
        return _check_solve_report(out / "fig1-report.json", out / "fig1-trace.csv",
                                   realization, 1000, None, 0.0)

    op = Op("fig1", "fig1", check, argv=["reproduce-fig1"])
    warm = Op("fig1-warm", "warm", lambda out, code: None,
              argv=["reproduce-fig1", "--steps", "100", "--h", "1e-2"])
    return Plan([op], [warm], "fig1", cycle_s=0.8)


# ---------------------------------------------------------------- solve inputs

def _solve_ops(ws: Path, problems: list[inputs.Problem]) -> list[Op]:
    ops = []
    for p in problems:
        path = inputs.write(ws / f"{p.name}.json", p.to_dict())
        expect = (0,) if p.min_eig() > ms.EPS_LI else (65,)
        reference, tol = None, 0.0
        if expect == (0,) and p.m == 2:
            overlap = np.vdot(p.states[:, 0], p.states[:, 1])
            reference, tol = ms.helstrom(p.probs[0], p.probs[1], overlap).p_success, TOL_HELSTROM
        elif expect == (0,) and p.m == 3 and p.real:
            pd = [r for r in ms.solve_stationary(ms.GramMatrix(p.gram())) if r.is_positive_definite]
            if len(pd) == 1:
                reference, tol = pd[0].p_success, TOL_ENUM
        ensemble = _realization(p) if expect == (0,) else None

        def check(out: Path, code, p=p, expect=expect, ensemble=ensemble,
                  reference=reference, tol=tol) -> tuple[str, str] | None:
            bad = _unexpected(code, expect)
            if bad or code != 0:
                return bad
            return _check_solve_report(out / f"{p.name}-report.json", out / f"{p.name}-trace.csv",
                                       ensemble, 200, reference, tol)

        ops.append(Op(p.name, f"solve-m{p.m}", check,
                      argv=["solve", str(path), *SOLVE_FLAGS]))
    return ops


def batch_small(ws: Path, seed: int) -> Plan:
    problems = inputs.batch_small(seed)
    ops = _solve_ops(ws, problems)
    # one drag at each end of the m range fills lazy imports and BLAS buffers
    return Plan(ops, [ops[0], ops[6]], inputs.digest(problems), cycle_s=11.0)


def sweep_large(ws: Path, seed: int) -> Plan:
    problems = inputs.sweep_large(seed)
    ops = _solve_ops(ws, problems)
    warm = Op("sweep-warm", "warm", lambda out, code: None,
              argv=["solve", ops[-1].argv[1], "--steps", "10", "--h", "0.1"])
    return Plan(ops, [warm], inputs.digest(problems), cycle_s=6.8)


# ---------------------------------------------------------------- verify-m3

#: outcome relabelling applied to the optimum; the relabelled measurement
#: is not optimal, so certify must exit 2 or 3 and the audit must fail
PERMUTATION = [1, 2, 0]


def verify_m3(ws: Path, seed: int) -> Plan:
    problems = inputs.verify_m3(seed)
    ops, enumerations = [], []
    for k, p in enumerate(problems):
        gram = ms.GramMatrix(p.gram())
        report = ms.rk4_drag(ms.Trajectory(ms.GramMatrix(np.eye(3) / 3), gram),
                             steps=200, h=5e-3, polish=True)
        if report.certificate.status != "optimal":
            raise RuntimeError(f"{p.name}: reference drag did not certify")
        ref = report.certificate.p_success
        if p.real:
            pd = [r for r in ms.solve_stationary(gram) if r.is_positive_definite]
            if len(pd) != 1 or abs(pd[0].p_success - ref) > TOL_ENUM:
                raise RuntimeError(f"{p.name}: enumeration and drag references disagree")
        u = report.final_povm.vectors
        if p.schema == "ensemble":
            ens = ms.Ensemble(p.states, p.probs)
            vectors, frame = ms.povm_from_unitary(gram, u, ensemble=ens).vectors, ms.FRAME_AMBIENT
        else:
            vectors, frame = u, ms.FRAME_DUAL
        problem_path = inputs.write(ws / f"{p.name}.json", p.to_dict())
        for label, vecs in (("opt", vectors), ("perm", vectors[:, PERMUTATION])):
            path = inputs.write(ws / f"{p.name}-{label}.json",
                                {"ensemble": p.to_dict(), "povm": _povm_dict(vecs, frame)})
            stem = path.stem
            optimal = label == "opt"

            def check_cert(out: Path, code, stem=stem, optimal=optimal, ref=ref):
                bad = _unexpected(code, (0,) if optimal else (2, 3))
                if bad:
                    return bad
                cert = _read_json(out / f"{stem}-certificate.json")
                if optimal and abs(cert["p_success"] - ref) > TOL_AGREE:
                    return "wrong", f"certified p {cert['p_success']!r} vs reference {ref!r}"
                return None

            def check_audit(out: Path, code, stem=stem, optimal=optimal):
                bad = _unexpected(code, (0,) if optimal else (3,))
                if bad:
                    return bad
                passed = _read_json(out / f"{stem}-audit.json")["passed"]
                return None if passed == optimal else ("wrong", f"audit passed={passed}")

            ops.append(Op(f"{stem}-certify", f"certify-{label}", check_cert,
                          argv=["certify", str(path)]))
            ops.append(Op(f"{stem}-audit", f"audit-{label}", check_audit,
                          argv=["audit", str(path)]))
        if p.real:
            def check_enum(out: Path, code, stem=problem_path.stem, ref=ref):
                bad = _unexpected(code, (0,))
                if bad:
                    return bad
                roots = _read_json(out / f"{stem}-landscape.json")["roots"]
                best = [r for r in roots if r["label"] == "global maximum"]
                if len(best) != 1 or abs(best[0]["p_success"] - ref) > TOL_ENUM:
                    return "wrong", f"{len(best)} global maxima, p {[r['p_success'] for r in best]}"
                return None

            enumerations.append(Op(f"{problem_path.stem}-enumerate", "enumerate", check_enum,
                                   argv=["enumerate", str(problem_path)]))

        def check_search(out: Path, result, ref=ref):
            if abs(result.p_success - ref) > TOL_SEARCH:
                return "wrong", f"search p {result.p_success!r} vs reference {ref!r}"
            return None

        ops.append(Op(f"{p.name}-search", "search", check_search,
                      call=lambda gram=gram, k=k: ms.search_optimum(gram, seed=k)))
    # one round of certify, audit and search per real problem, each round
    # followed by that problem's enumerate: enumerate (about 45 ms) is then
    # 2 % of the operations and search (about 13 ms) 20 %, so p90 falls inside
    # the search latencies and not on the edge between two latency groups
    cycle = [op for enum in enumerations for op in (*ops, enum)]
    return Plan(cycle, [ops[0], ops[4], enumerations[0]], inputs.digest(problems),
                cycle_s=3.5)


WORKLOADS = {"fig1": fig1, "batch-small": batch_small,
             "sweep-large": sweep_large, "verify-m3": verify_m3}
