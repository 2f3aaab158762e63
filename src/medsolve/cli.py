"""Command-line interface.

Subcommands: solve, certify, enumerate, audit, generate, reproduce-fig1.
Structured results are written as JSON (and residual traces as CSV) under
--out; stdout carries one deterministic status line per input, stderr the
diagnostics.  Exit codes, defined here and nowhere else: 0 certified
optimal / success, 2 stationary but not global, 3 not stationary or solver
failure, 64 usage or malformed input, 65 invalid data.  The MED_LOG
environment variable (debug|info) raises stderr verbosity and never touches
stdout.

``main(argv)`` may be called repeatedly in one process: the parser is built
once, on the first call, and each call parses into a fresh namespace and logs
at its own MED_LOG to the stderr current at the time.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bloch3 import geometric_audit
from .certify import TOL_GLB, TOL_STAT, Certificate, certify_povm, check_tolerance
from .enumerate3 import DEFAULT_SEED, classify_landscape
from .exceptions import MedError, SchemaError
from .gram import (
    Ensemble,
    GramMatrix,
    ensemble_from_gram,
    random_ensemble,
    raw_gram,
    reference_five_state_gram,
)
from .homotopy import RunReport, SolverState, Trajectory, rk4_drag
from .measurement import FRAME_AMBIENT, FRAME_DUAL, povm_from_unitary
from .serialize import (
    LOG_FLOOR,
    audit_to_dict,
    certificate_to_dict,
    ensemble_to_dict,
    landscape_to_dict,
    load_gram_or_ensemble,
    povm_from_dict,
    povm_to_dict,
    read_json,
    run_report_to_dict,
    write_json,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_STATIONARY = 2
EXIT_FAILED = 3
EXIT_USAGE = 64
EXIT_DATA = 65

log = logging.getLogger("medsolve")


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage by default, which collides with
    the stationary-not-global result code; route it to 64 instead."""

    def error(self, message):
        raise _CliFailure(EXIT_USAGE, f"{self.prog}: {message}")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record is emitted."""

    def __init__(self):
        super().__init__()
        self.setFormatter(logging.Formatter("%(levelname)s %(message)s"))

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):
        pass


def _configure_logging() -> None:
    """Log the package at this call's MED_LOG.  The one handler sits on the
    package logger, not on root, so records still propagate to the caller's
    handlers."""
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        log.addHandler(_StderrHandler())
    log.setLevel({"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("MED_LOG", "").lower(), logging.WARNING
    ))


def _read_input(path: Path, parse):
    """Read a JSON file and ``parse`` its data, mapping failures to exit codes:
    an unreadable file or a schema violation is a usage error, invalid
    numbers are invalid data."""
    try:
        return parse(read_json(path))
    except OSError as exc:
        raise _CliFailure(EXIT_USAGE, f"{path}: cannot read input ({exc.strerror})") from exc
    except SchemaError as exc:
        raise _CliFailure(EXIT_USAGE, str(exc)) from exc
    except (MedError, ValueError) as exc:
        raise _CliFailure(EXIT_DATA, f"{path}: {exc}") from exc


def _load_problem(path: Path) -> GramMatrix | Ensemble:
    """Read a Gram-or-ensemble JSON file."""
    return _read_input(path, lambda data: load_gram_or_ensemble(data, context=str(path)))


def _as_gram(problem: GramMatrix | Ensemble) -> GramMatrix:
    if isinstance(problem, GramMatrix):
        return problem
    return raw_gram(problem)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliFailure(
            EXIT_USAGE, f"{out}: cannot create output directory ({exc.strerror})"
        ) from exc
    return out


def _judged(cert: Certificate, args) -> Certificate:
    """``cert`` judged at the --tol-stat and --tol-glb tolerances."""
    return replace(cert, tol_stat=args.tol_stat, tol_glb=args.tol_glb)


def _verdict_code(cert: Certificate) -> int:
    """The exit code of a certificate's verdict."""
    if cert.is_optimal:
        return EXIT_OK
    return EXIT_STATIONARY if cert.is_stationary else EXIT_FAILED


class _ViaLeg:
    """The identity -> --from drag, run on first use; later inputs reuse its
    final state or re-raise its failure."""

    def __init__(self, gram: GramMatrix, args):
        self.gram, self._args, self._outcome = gram, args, None

    def final_state(self) -> SolverState:
        if self._outcome is None:
            try:
                self._outcome = _solve_one(self.gram, self._args, None).final_state
            except _CliFailure as exc:
                self._outcome = exc
        if isinstance(self._outcome, Exception):
            raise self._outcome
        return self._outcome


def _solve_one(gram: GramMatrix, args, via: _ViaLeg | None) -> RunReport:
    """Drag to ``gram`` from the known optimum at I/m, or from the solved
    --from matrix when ``via`` is given."""
    if via is not None and via.gram.m != gram.m:
        raise _CliFailure(
            EXIT_USAGE, f"--from matrix has {via.gram.m} states but the input has {gram.m}"
        )
    try:
        if via is None:
            g_start, start = GramMatrix(np.eye(gram.m) / gram.m), None
        else:
            g_start, start = via.gram, via.final_state()
        report = rk4_drag(Trajectory(g_start, gram), steps=args.steps, h=args.h,
                          polish=args.polish, initial=start)
    except (MedError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, but it is a numerical failure, not a bad argument
        raise _CliFailure(EXIT_FAILED, f"solver failed: {exc}") from exc
    except (ValueError, MemoryError) as exc:
        # the drag rejects --steps/--h it cannot run, and a --steps whose
        # trace cannot be allocated
        raise _CliFailure(EXIT_USAGE, f"invalid solver arguments: {exc}") from exc
    return replace(report, certificate=_judged(report.certificate, args))


def _report_payload(report: RunReport, problem: GramMatrix | Ensemble) -> dict:
    payload = run_report_to_dict(report)
    if isinstance(problem, Ensemble):
        # re-express the measurement in the ensemble's own space; the dual
        # frame vectors of the report are the polar-snapped U of the drag
        u = report.final_povm.vectors
        povm = povm_from_unitary(raw_gram(problem), u, ensemble=problem)
        payload["final_povm"] = povm_to_dict(povm)
    return payload


def _write_solve_outputs(
    report: RunReport, problem: GramMatrix | Ensemble, out: Path, stem: str
) -> Path:
    report_path = out / f"{stem}-report.json"
    write_json(report_path, _report_payload(report, problem))
    write_trace_csv(out / f"{stem}-trace.csv", report.trace)
    return report_path


def cmd_solve(args) -> int:
    out = _out_dir(args)
    via_path = getattr(args, "from")
    via = _ViaLeg(_as_gram(_load_problem(Path(via_path))), args) if via_path else None

    inputs: list[Path]
    if args.batch:
        inputs = sorted(Path(args.batch).glob("*.json"))
        if not inputs:
            raise _CliFailure(EXIT_USAGE, f"no .json inputs in {args.batch}")
    else:
        inputs = [Path(args.input)]

    worst = EXIT_OK
    for path in inputs:
        try:
            problem = _load_problem(path)
            gram = _as_gram(problem)
            report = _solve_one(gram, args, via)
        except _CliFailure as exc:
            if not args.batch:
                raise
            log.error("%s: %s", path, exc)
            print(f"{path.stem}: failed ({exc.code})")
            worst = max(worst, exc.code)
            continue
        report_path = _write_solve_outputs(report, problem, out, path.stem)
        cert = report.certificate
        print(
            f"{path.stem}: {cert.status} p_success={cert.p_success:.12f} -> {report_path}"
        )
        worst = max(worst, _verdict_code(cert))
    return worst


def _load_certify_input(path: Path):
    def parse(data):
        if "ensemble" not in data or "povm" not in data:
            raise SchemaError(f"{path}: need fields 'ensemble' and 'povm'")
        problem = load_gram_or_ensemble(data["ensemble"], context=f"{path}:ensemble")
        return problem, povm_from_dict(data["povm"], context=f"{path}:povm")

    problem, povm = _read_input(path, parse)
    is_ensemble = isinstance(problem, Ensemble)
    kind, frame = ("an ensemble", FRAME_AMBIENT) if is_ensemble else ("a gram-matrix", FRAME_DUAL)
    if povm.frame != frame:
        raise _CliFailure(
            EXIT_USAGE,
            f"{path}: {kind} input needs a measurement in the '{frame}' frame, got '{povm.frame}'",
        )
    if povm.m != problem.m:
        raise _CliFailure(EXIT_USAGE, f"{path}: the ensemble has {problem.m} states "
                                      f"but the measurement {povm.m} outcomes")
    return (problem if is_ensemble else ensemble_from_gram(problem)), povm


def cmd_certify(args) -> int:
    ensemble, povm = _load_certify_input(Path(args.input))
    cert = _judged(certify_povm(ensemble, povm), args)
    out = _out_dir(args)
    cert_path = out / f"{Path(args.input).stem}-certificate.json"
    write_json(cert_path, certificate_to_dict(cert))
    print(f"{Path(args.input).stem}: {cert.status} p_success={cert.p_success:.12f} -> {cert_path}")
    return _verdict_code(cert)


def cmd_enumerate(args) -> int:
    problem = _load_problem(Path(args.input))
    gram = _as_gram(problem)
    try:
        summary = classify_landscape(gram, seed=args.seed)
    except (MedError, ValueError) as exc:
        raise _CliFailure(EXIT_DATA, f"enumeration failed: {exc}") from exc
    summary = replace(summary, certificates=[
        None if cert is None else _judged(cert, args) for cert in summary.certificates
    ])
    out = _out_dir(args)
    path = out / f"{Path(args.input).stem}-landscape.json"
    write_json(path, landscape_to_dict(summary))
    n_real = sum(1 for r in summary.roots if r.is_real)
    print(f"{Path(args.input).stem}: {len(summary.roots)} roots ({n_real} real) -> {path}")
    return EXIT_OK


def cmd_audit(args) -> int:
    ensemble, povm = _load_certify_input(Path(args.input))
    try:
        report = geometric_audit(ensemble, povm)
    except ValueError as exc:
        raise _CliFailure(EXIT_DATA, f"audit failed to run: {exc}") from exc
    out = _out_dir(args)
    path = out / f"{Path(args.input).stem}-audit.json"
    write_json(path, audit_to_dict(report))
    verdict = "passed" if report.passed else "FAILED"
    print(f"{Path(args.input).stem}: audit {verdict} -> {path}")
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_generate(args) -> int:
    try:
        ensemble = random_ensemble(args.m, args.seed, args.spread, real=args.real)
    except (MedError, ValueError, MemoryError) as exc:
        raise _CliFailure(EXIT_DATA, f"generation failed: {exc}") from exc
    out = _out_dir(args)
    path = out / f"ensemble-m{args.m}-seed{args.seed}.json"
    write_json(path, ensemble_to_dict(ensemble))
    print(f"generated m={args.m} seed={args.seed} spread={args.spread} -> {path}")
    return EXIT_OK


def cmd_reproduce_fig1(args) -> int:
    gram = reference_five_state_gram()
    report = _solve_one(gram, args, None)
    out = _out_dir(args)
    report_path = _write_solve_outputs(report, gram, out, "fig1")
    cert = report.certificate
    lg = np.log10(np.maximum(report.trace[:, 2], LOG_FLOOR))
    print(
        f"fig1: {cert.status} p_success={cert.p_success:.12f} "
        f"log10_residual[{lg[0]:.2f} .. {lg[-1]:.2f}] -> {report_path}"
    )
    return _verdict_code(cert)


def _add_tolerances(sub: argparse.ArgumentParser) -> None:
    def tolerance(text: str) -> float:
        return check_tolerance("tolerance", float(text))

    sub.add_argument("--tol-stat", type=tolerance, default=TOL_STAT,
                     help="stationarity tolerance (finite, >= 0)")
    sub.add_argument("--tol-glb", type=tolerance, default=TOL_GLB,
                     help="global-optimality tolerance (finite, >= 0)")


def _add_common(sub: argparse.ArgumentParser, solver: bool = False) -> None:
    sub.add_argument("--out", default=".", help="output directory (default: current)")
    if solver:
        _add_tolerances(sub)
        sub.add_argument("--steps", type=int, default=1000, help="integration steps")
        sub.add_argument("--h", type=float, default=1e-3, help="step size (steps*h must be 1)")
        sub.add_argument("--polish", action="store_true",
                         help="finish with Newton on the m scales at t = 1")


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by later ones."""
    parser = _Parser(prog="medsolve", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"medsolve {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve",
                        help="drag the known optimum to a target ensemble")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("input", nargs="?", help="gram-or-ensemble JSON file")
    source.add_argument("--batch", help="directory of input JSON files")
    p.add_argument("--from", dest="from", default=None, metavar="GRAM.json",
                   help="route the drag through this gram matrix")
    _add_common(p, solver=True)
    p.set_defaults(fn=cmd_solve)

    p = subs.add_parser("certify",
                        help="certify a measurement against an ensemble")
    p.add_argument("input", help="JSON file with fields 'ensemble' and 'povm'")
    _add_common(p)
    _add_tolerances(p)
    p.set_defaults(fn=cmd_certify)

    p = subs.add_parser("enumerate",
                        help="enumerate all stationary measurements (m=3, real)")
    p.add_argument("input", help="gram-or-ensemble JSON file")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the homotopy's random complex gamma")
    _add_common(p)
    _add_tolerances(p)
    p.set_defaults(fn=cmd_enumerate)

    p = subs.add_parser("audit",
                        help="geometric optimality audit (m=3)")
    p.add_argument("input", help="JSON file with fields 'ensemble' and 'povm'")
    _add_common(p)
    p.set_defaults(fn=cmd_audit)

    p = subs.add_parser("generate",
                        help="write a reproducible random ensemble")
    p.add_argument("--m", type=int, required=True, help="number of states")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--spread", type=float, default=0.6,
                   help="distance from the orthogonal ensemble, in (0, 1]")
    p.add_argument("--real", action="store_true", help="draw a real ensemble")
    _add_common(p)
    p.set_defaults(fn=cmd_generate)

    p = subs.add_parser("reproduce-fig1",
                        help="re-run the five-state reference drag and emit its error trace")
    _add_common(p, solver=True)
    p.set_defaults(fn=cmd_reproduce_fig1)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except MedError as exc:
        print(f"medsolve: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
