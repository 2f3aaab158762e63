"""medsolve benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` and
driven through ``medsolve.cli.main`` and the ``medsolve`` API, in process.
Set-up (imports, seeded inputs, references, warm-up) is timed apart from
the measured loop, which runs the workload's operations back to back, in as
many whole cycles as take about ``--seconds`` seconds, and checks every
output.  Timings are reported at a reference host speed (``hostspeed.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation twice in a row, untraced and then with the layer spans of
``tracing.py`` installed, and prints the per-layer metrics.  The last line
of stdout is the JSON result; lines before it that start with ``#`` record
the environment and every failed operation.  Spans and a full result record
go to ``.perfbench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WORKLOADS = ("fig1", "batch-small", "sweep-large", "verify-m3")
EXIT_CODES = (0, 2, 3, 64, 65)
DRAG_FAILURES = ("NearLinearDependence", "SingularJacobian", "PositivityLost",
                 "ResidualTooLarge", "NotUnitary", "other")

# (name, unit, better); BENCHMARK.json lists the same names
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ok_frac", "frac", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    ("failed_frac", "frac", "lower"),
    ("cli.self_ms", "ms", "lower"),
    *[(f"cli.exit.{code}", "count", "higher" if code == 0 else "lower") for code in EXIT_CODES],
    ("cli.uncaught", "count", "lower"),
    ("serialize.read_ms", "ms", "lower"),
    ("serialize.write_ms", "ms", "lower"),
    ("serialize.bytes_written", "bytes", "lower"),
    ("gram.validate_ms", "ms", "lower"),
    ("gram.canonicalize_ms", "ms", "lower"),
    ("gram.canonicalize_calls", "count", "lower"),
    ("gram.canonicalize_perms", "count", "lower"),
    ("homotopy.drag_self_ms", "ms", "lower"),
    ("homotopy.steps", "count", "lower"),
    ("homotopy.rate_evals", "count", "lower"),
    ("homotopy.newton_corrections", "count", "lower"),
    ("homotopy.tangent_dim", "count", "lower"),
    ("homotopy.lu_gflop_computed", "GFLOP", "lower"),
    ("homotopy.derivative_us.m5", "us", "lower"),
    ("homotopy.derivative_us.m16", "us", "lower"),
    *[(f"homotopy.failed.{cls}", "count", "lower") for cls in DRAG_FAILURES],
    ("certify.gram_ms", "ms", "lower"),
    ("certify.povm_ms", "ms", "lower"),
    ("enumerate3.classify_ms", "ms", "lower"),
    ("enumerate3.roots_found", "count", "higher"),
    ("enumerate3.useful_start_frac", "frac", "higher"),
    ("bloch3.audit_ms", "ms", "lower"),
    ("oracle.search_ms", "ms", "lower"),
    ("oracle.search_iters", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


@dataclass
class Record:
    index: int
    key: str
    kind: str
    cli: bool
    start: float
    seconds: float
    code: object            # exit code of a CLI op, None for API ops or on exception
    exc: str | None         # class of an exception that escaped the op
    verdict: tuple[str, str] | None
    ref_seconds: float = 0.0  # latency at the reference host speed (hostspeed.py)


class Runner:
    """Runs operations one at a time, each in its own guard, and checks them."""

    def __init__(self, ws: Path):
        self.out = ws / "out"
        self.fingerprints: dict[str, str] = {}
        self.log: list[str] = []

    def execute(self, op, index: int, tracer=None, checked: bool = True) -> Record:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        if tracer is not None:
            tracer.op = index
        sink = io.StringIO()
        result, exc = None, None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                result = op.run(self.out)
            except Exception as err:  # a crash is a failed operation; the run goes on
                exc = f"{type(err).__name__}: {err}"
            seconds = time.perf_counter() - t0
        verdict = None
        if exc is not None:
            verdict = ("crashed", exc)
        elif checked:
            verdict = self._check(op, result)
        if verdict is not None and checked:
            self.log.append(f"{index} {op.kind} {op.key}: {verdict[0]}: {verdict[1]}")
        code = result if isinstance(result, int) else None
        return Record(index, op.key, op.kind, op.argv is not None, t0, seconds, code,
                      None if exc is None else exc.split(":")[0], verdict)

    def _check(self, op, result) -> tuple[str, str] | None:
        try:
            verdict = op.check(self.out, result)
        except Exception as err:
            return "wrong", f"output unreadable: {type(err).__name__}: {err}"
        if verdict is not None:
            return verdict
        digest = hashlib.sha256(repr(getattr(result, "p_success", result)).encode())
        for path in sorted(self.out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        first = self.fingerprints.setdefault(op.key, digest.hexdigest())
        if first != digest.hexdigest():
            return "wrong", "output differs from an earlier run of the same input"
        return None

    def loop(self, ops, cycles: int, clock, tracer=None) -> tuple[list[Record], list[Record]]:
        """Closed loop over ``cycles`` whole cycles of ``ops``: the next
        operation starts when the previous one ends.  The host clock samples
        its kernel between operations, outside their timed intervals.
        With a tracer each operation runs twice in a row, untraced and then
        traced, so both sides see the same inputs and the same machine state;
        the traced records are returned second."""
        plain: list[Record] = []
        traced: list[Record] = []
        for _ in range(cycles):
            for op in ops:
                clock.sample()
                plain.append(self.execute(op, len(plain) + len(traced)))
                if tracer is not None:
                    tracer.install()
                    try:
                        traced.append(self.execute(op, len(plain) + len(traced), tracer))
                    finally:
                        tracer.remove()
        clock.sample(force=True)
        for rec in plain + traced:
            rec.ref_seconds = rec.seconds * clock.scale(rec.start, rec.start + rec.seconds)
        return plain, traced

    def confirm_repeats(self, ops, records: list[Record]) -> None:
        """Re-run once, untimed, every input the loop ran only once and
        passed, so that every input's output is compared with a repeat."""
        runs: dict[str, list[Record]] = {}
        for rec in records:
            runs.setdefault(rec.key, []).append(rec)
        by_key = {op.key: op for op in ops}
        for key, recs in runs.items():
            if len(recs) == 1 and recs[0].verdict is None:
                again = self.execute(by_key[key], recs[0].index)
                if again.verdict is not None:
                    recs[0].verdict = again.verdict


def median_ms_by_kind(records: list[Record]) -> dict[str, float]:
    """Median latency at the reference speed of each kind of operation, e.g.
    of the solves at each m of ``sweep-large``; printed as a comment line."""
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(1e3 * r.ref_seconds)
    return {kind: statistics.median(times) for kind, times in kinds.items()}


def _quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def timings(lat: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * _quantile90(lat),
    }


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    ok = sum(r.verdict is None for r in records)
    return {
        **timings([r.ref_seconds for r in records]),
        "ok_frac": ok / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain: list[Record], traced: list[Record], tracer, probes) -> dict[str, float]:
    every = plain + traced
    n_ops = len(traced)
    n_cli = sum(r.cli for r in traced) or 1
    self_ms = tracer.self_ms()
    counts = tracer.counts
    drag_failed = tracer.failures("homotopy.drag")
    out = {"failed_frac": sum(r.verdict is not None for r in every) / len(every)}
    out["cli.self_ms"] = self_ms["cli.main"] / n_cli
    for code in EXIT_CODES:
        out[f"cli.exit.{code}"] = sum(r.cli and r.code == code for r in every)
    out["cli.uncaught"] = sum(r.exc is not None for r in every)
    out.update({
        "serialize.read_ms": self_ms["serialize.read"] / n_ops,
        "serialize.write_ms": self_ms["serialize.write"] / n_ops,
        "serialize.bytes_written": counts["bytes_written"] / n_ops,
        "gram.validate_ms": self_ms["gram.validate"] / n_ops,
        "gram.canonicalize_ms": self_ms["gram.canonicalize"] / n_ops,
        "gram.canonicalize_calls": counts["canonicalize_calls"] / n_ops,
        "gram.canonicalize_perms": counts["canonicalize_perms"] / n_ops,
        "homotopy.drag_self_ms": self_ms["homotopy.drag"] / n_ops,
        "homotopy.steps": counts["steps"] / n_ops,
        "homotopy.rate_evals": counts["rate_evals"] / n_ops,
        "homotopy.newton_corrections": counts["newton_corrections"] / n_ops,
        "homotopy.tangent_dim": tracer.tangent_dim,
        "homotopy.lu_gflop_computed": tracer.lu_flop / 1e9 / n_ops,
        "homotopy.derivative_us.m5": probes[5],
        "homotopy.derivative_us.m16": probes[16],
    })
    named = DRAG_FAILURES[:-1]
    for cls in named:
        out[f"homotopy.failed.{cls}"] = drag_failed[cls]
    out["homotopy.failed.other"] = sum(n for cls, n in drag_failed.items() if cls not in named)
    classify = counts["classify_calls"] or 1
    searches = counts["search_calls"] or 1
    out.update({
        "certify.gram_ms": self_ms["certify.gram"] / n_ops,
        "certify.povm_ms": self_ms["certify.povm"] / n_ops,
        "enumerate3.classify_ms": self_ms["enumerate3.classify"] / n_ops,
        "enumerate3.roots_found": counts["roots_found"] / classify,
        "enumerate3.useful_start_frac": counts["roots_found"] / (counts["newton_starts"] or 1),
        "bloch3.audit_ms": self_ms["bloch3.audit"] / n_ops,
        "oracle.search_ms": self_ms["oracle.search"] / n_ops,
        "oracle.search_iters": counts["search_iters"] / searches,
    })
    out["trace.overhead_frac"] = (sum(r.seconds for r in traced)
                                  / sum(r.seconds for r in plain) - 1.0)
    return out


def _blas_threads() -> list[dict]:
    """OpenBLAS builds loaded in this process and their thread counts."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
        found.append({"library": Path(path).name, "threads": threads})
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": _blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "medsolve" / "__init__.py").is_file():
        print(f"perfbench: no medsolve sources under {src}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import medsolve as ms

    import hostspeed
    import tracing
    import workloads
    import_s = time.perf_counter() - t0
    if Path(ms.__file__).resolve().parent != (src / "medsolve").resolve():
        print(f"perfbench: imported medsolve from {ms.__file__}, not {src}", file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench_out"
    ws_root = out_root / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        clock = hostspeed.HostClock()

        def set_up(rep: int):
            ws = ws_root / f"setup{rep}"
            ws.mkdir(parents=True)
            clock.sample(force=True)
            t0 = time.perf_counter()
            plan = workloads.WORKLOADS[args.workload](ws, args.seed)
            runner = Runner(ws)
            for op in plan.warm:
                runner.execute(op, -1, checked=False)
            seconds = time.perf_counter() - t0
            clock.sample(force=True)
            return (t0, seconds), plan, runner

        # one set-up feeds the loop; the repeats run after it, so the median
        # samples the machine at different moments of the run
        first, plan, runner = set_up(0)
        tracer = tracing.Tracer() if args.trace else None
        # a fixed number of cycles, so the same seed always attempts the same
        # operations; traced runs take each operation twice
        cycles = max(1, round(args.seconds / (plan.cycle_s * (1 + args.trace))))
        plain, traced = runner.loop(plan.ops, cycles, clock, tracer)
        records = plain + traced
        runner.confirm_repeats(plan.ops, records)
        setups = [first] + [set_up(rep)[0] for rep in range(1, SETUP_REPEATS)]
        # set-up time at the reference speed; the imports ran before the
        # first kernel sample, which then stands in for both sides
        setups_ref = [seconds * clock.scale(start, start + seconds) for start, seconds in setups]
        setup_s = import_s * clock.scale(t0, t0 + import_s) + statistics.median(setups_ref)
        if args.trace:
            tracer.dump(out_root / f"trace-{args.workload}-seed{args.seed}.jsonl")
            probes = {m: tracing.derivative_us(m, reps) for m, reps in ((5, 301), (16, 41))}
            metrics = per_layer(plain, traced, tracer, probes)
        else:
            metrics = end_to_end(records, setup_s)

        failed = sum(r.verdict is not None for r in records)
        wrong = sum(r.verdict is not None and r.verdict[0] == "wrong" for r in records)
        env = environment(args.seed)
        by_kind = median_ms_by_kind(plain)
        wall = timings([r.seconds for r in plain])
        kernel_ms = 1e3 * statistics.median(clock.took)
        record = {"workload": args.workload, "trace": args.trace, "inputs_sha256": plan.digest,
                  "env": env, "import_s": import_s,
                  "setup_runs_s": [[seconds for _, seconds in setups], setups_ref],
                  "operations": len(records), "cycles": cycles, "failures": runner.log,
                  "metrics": metrics, "median_ms_by_kind": by_kind,
                  "wall_clock": wall, "kernel_ms": kernel_ms,
                  "kernel_samples": [[round(t, 4), round(1e3 * d, 4)]
                                     for t, d in zip(clock.at, clock.took)],
                  "latency_ms": [[r.kind, round(1e3 * r.seconds, 3), round(1e3 * r.ref_seconds, 3)]
                                 for r in records]}
        (out_root / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n")
        print("# env " + json.dumps(env))
        print(f"# inputs sha256 {plan.digest}; {len(records)} operations in {cycles} cycles")
        print(f"# host kernel median {kernel_ms:.4f} ms (reference {1e3 * hostspeed.KERNEL_REF_S} ms);"
              " wall-clock timings " + json.dumps(wall))
        print("# untraced median ms by kind at the reference speed " + json.dumps(by_kind))
        for line in runner.log:
            print("# failed " + line)
        print(json.dumps({
            "correct": wrong == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(ws_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
