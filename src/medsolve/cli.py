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
once, on the first call, and each call parses into a fresh namespace, logs
at its own MED_LOG to the stderr current at the time, and leaves the
``medsolve`` logger's handlers and level as it found them.

``main`` holds the CLI's one floating-point policy, around the whole command
(the parse and input checks, every stage and the writes): numpy's error state
ignores every flag, since each stage reads a failure off its NaN, and each
warning the command shows, the package's RootCountAnomaly under any filter,
becomes one ``WARNING <message>`` line once the command returns.  A failure
drops them, so its line stays the only one.  The library leaves numpy's error
state and the warning filters to its callers.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bloch3 import geometric_audit
from .certify import Certificate, certify_povm
from .enumerate3 import classify_landscape
from .exceptions import MedError, RootCountAnomaly, SchemaError
from .gram import (
    Ensemble,
    GramMatrix,
    random_ensemble,
    raw_gram,
    reference_five_state_gram,
)
from .homotopy import RunReport, Trajectory, rk4_drag
from .measurement import FRAME_AMBIENT, FRAME_DUAL, povm_from_unitary
from .serialize import (
    LOG_FLOOR,
    audit_to_dict,
    certificate_to_dict,
    ensemble_to_dict,
    landscape_to_dict,
    load_gram_or_ensemble,
    povm_from_dict,
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


@contextlib.contextmanager
def _numerical(stage: str, bad_value: tuple[int, str] | None = None):
    """Map a failure on a parsed input to its exit code.  A MedError, numpy's
    LinAlgError or a MemoryError (numpy's message names the bytes) is exit 3
    with ``<stage> failed: <message>``: a numerical failure, not bad data.  With
    ``bad_value=(code, prefix)``, any other ValueError is exit ``code`` with
    ``<prefix>: <message>``; without it, the ValueError propagates."""
    try:
        yield
    except (MedError, np.linalg.LinAlgError, MemoryError) as exc:
        # LinAlgError is a ValueError, but it is a numerical failure, not a bad value
        raise _CliFailure(EXIT_FAILED, f"{stage} failed: {exc}") from exc
    except ValueError as exc:
        if bad_value is None:
            raise
        code, prefix = bad_value
        raise _CliFailure(code, f"{prefix}: {exc}") from exc


def _load_problem(path: Path) -> GramMatrix | Ensemble:
    """Read a Gram-or-ensemble JSON file."""
    return _read_input(path, lambda data: load_gram_or_ensemble(data, context=str(path)))


def _as_gram(problem: GramMatrix | Ensemble) -> GramMatrix:
    if isinstance(problem, GramMatrix):
        return problem
    return raw_gram(problem)


def _write_output(path: Path, write, payload) -> None:
    """Write ``payload`` to ``path`` with ``write``; a file that cannot be
    written is a usage error, as an input that cannot be read is."""
    try:
        write(path, payload)
    except OSError as exc:
        raise _CliFailure(EXIT_USAGE, f"{path}: cannot write output ({exc.strerror})") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    if out.is_dir():  # one stat; mkdir(exist_ok=True) raises and catches FileExistsError
        return out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliFailure(
            EXIT_USAGE, f"{out}: cannot create output directory ({exc.strerror})"
        ) from exc
    return out


def _verdict_code(cert: Certificate) -> int:
    """The exit code of a certificate's verdict."""
    if cert.is_optimal:
        return EXIT_OK
    return EXIT_STATIONARY if cert.is_stationary else EXIT_FAILED


def _solve_one(
    problem: GramMatrix | Ensemble, args, out: Path, stem: str
) -> tuple[RunReport, Path]:
    """Drag to ``problem`` from the known optimum at I/m and write
    ``<stem>-report.json`` and ``<stem>-trace.csv`` under ``out``.  An
    ensemble's measurement is written in the ensemble's own space.  Every
    failure on the way ends in a _CliFailure; returns the report and the
    report's path."""
    gram = _as_gram(problem)
    report_path = out / f"{stem}-report.json"
    # the drag rejects --steps/--h it cannot run, and a --steps whose trace
    # cannot be allocated, with a ValueError
    with _numerical("solver", bad_value=(EXIT_USAGE, "invalid solver arguments")):
        report = rk4_drag(Trajectory(GramMatrix(np.eye(gram.m) / gram.m), gram),
                          steps=args.steps, h=args.h, polish=args.polish)
        if isinstance(problem, Ensemble):
            # the dual frame vectors of the report are the U the drag certified
            report = replace(report, final_povm=povm_from_unitary(
                gram, report.final_povm.vectors, ensemble=problem))
        _write_output(report_path, write_json, run_report_to_dict(report))
        _write_output(out / f"{stem}-trace.csv", write_trace_csv, report.trace)
    return report, report_path


def cmd_solve(args) -> int:
    out = _out_dir(args)

    inputs: list[Path]
    if args.batch:
        found = sorted(Path(args.batch).glob("*.json"))
        # a batch written into its own directory finds its reports there on the next run
        own = {os.path.realpath(out / f"{path.stem}-report.json") for path in found}
        inputs = [path for path in found if os.path.realpath(path) not in own]
        if not inputs:
            raise _CliFailure(EXIT_USAGE, f"no .json inputs in {args.batch}")
    else:
        inputs = [Path(args.input)]

    worst = EXIT_OK
    for path in inputs:
        try:
            report, report_path = _solve_one(_load_problem(path), args, out, path.stem)
        except _CliFailure as exc:
            if not args.batch:
                raise
            log.error("%s: %s", path, exc)
            print(f"{path.stem}: failed ({exc.code})")
            worst = max(worst, exc.code)
            continue
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
    return problem, povm


def cmd_certify(args) -> int:
    problem, povm = _load_certify_input(Path(args.input))
    with _numerical("certification"):
        cert = certify_povm(problem, povm)
    out = _out_dir(args)
    cert_path = out / f"{Path(args.input).stem}-certificate.json"
    _write_output(cert_path, write_json, certificate_to_dict(cert))
    print(f"{Path(args.input).stem}: {cert.status} p_success={cert.p_success:.12f} -> {cert_path}")
    return _verdict_code(cert)


def cmd_enumerate(args) -> int:
    problem = _load_problem(Path(args.input))
    gram = _as_gram(problem)
    with _numerical("enumeration", bad_value=(EXIT_DATA, "enumeration failed")):
        summary = classify_landscape(gram)
    out = _out_dir(args)
    path = out / f"{Path(args.input).stem}-landscape.json"
    _write_output(path, write_json, landscape_to_dict(summary))
    n_real = sum(1 for r in summary.roots if r.is_real)
    print(f"{Path(args.input).stem}: {len(summary.roots)} roots ({n_real} real) -> {path}")
    return EXIT_OK


def cmd_audit(args) -> int:
    problem, povm = _load_certify_input(Path(args.input))
    with _numerical("audit", bad_value=(EXIT_DATA, "audit failed to run")):
        report = geometric_audit(problem, povm)
    out = _out_dir(args)
    path = out / f"{Path(args.input).stem}-audit.json"
    _write_output(path, write_json, audit_to_dict(report))
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
    _write_output(path, write_json, ensemble_to_dict(ensemble))
    print(f"generated m={args.m} seed={args.seed} spread={args.spread} -> {path}")
    return EXIT_OK


def cmd_reproduce_fig1(args) -> int:
    with _numerical("solver"):  # the reference's checks call LAPACK, as an input's do
        reference = reference_five_state_gram()
    report, report_path = _solve_one(reference, args, _out_dir(args), "fig1")
    cert = report.certificate
    lg = np.log10(np.maximum(report.trace[:, 2], LOG_FLOOR))
    print(
        f"fig1: {cert.status} p_success={cert.p_success:.12f} "
        f"log10_residual[{lg[0]:.2f} .. {lg[-1]:.2f}] -> {report_path}"
    )
    return _verdict_code(cert)


def _add_common(sub: argparse.ArgumentParser, solver: bool = False) -> None:
    sub.add_argument("--out", default=".", help="output directory (default: current)")
    if solver:
        sub.add_argument("--steps", type=int, default=1000, help="integration steps")
        sub.add_argument("--h", type=float, default=1e-3, help="step size (steps*h must be 1)")
        sub.add_argument("--polish", action="store_true",
                         help="correct the measurement at t = 1 by ascent to stationarity")


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
    _add_common(p, solver=True)
    p.set_defaults(fn=cmd_solve)

    p = subs.add_parser("certify",
                        help="certify a measurement against an ensemble")
    p.add_argument("input", help="JSON file with fields 'ensemble' and 'povm'")
    _add_common(p)
    p.set_defaults(fn=cmd_certify)

    p = subs.add_parser("enumerate",
                        help="enumerate all stationary measurements (m=3, real)")
    p.add_argument("input", help="gram-or-ensemble JSON file")
    _add_common(p)
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
    # the handler lives for this call only, on the package logger and not on
    # root, so records still propagate to the caller's handlers
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel({"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("MED_LOG", "").lower(), logging.WARNING
    ))
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always", RootCountAnomaly)
            code = args.fn(args)
        for warning in shown:
            log.warning("%s", warning.message)
        return code
    except _CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except MedError as exc:
        print(f"medsolve: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
