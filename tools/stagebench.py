"""Per-layer timing against a git revision: the drag, the direct search and the verification layers.

    python tools/stagebench.py [--against REV] [--json]      # REV defaults to HEAD

Run from anywhere inside the repository.  The tool extracts REV's ``src``
tree as ``tools/identity.py`` does and imports it as ``medsolve_rev``
beside this checkout's ``medsolve``, in one process; every module of each
must come from its own tree.  Each package builds every row's call and inputs
once.  One loop then times each row in turn: 21 samples per package,
alternating the packages and flipping their order each sample, so that a burst
of host load falls on one pair of samples, not on one package.  A sample is
one timing, with the garbage collector off, of as many calls as take about
0.05 s, worked out once per row from the fastest of three single calls of
REV's; both packages make that many.  The rows, in ms or us per call:

- ``homotopy._rate``, the drag's stage, at a fixed mid-path state, for m = 2,
  5 and 8 in real and complex arithmetic.  The state is the polished drag's
  solution at G(1/2) of the path from I/m to a seeded random Gram matrix
  (``random_ensemble(m, 90 + m, 0.6)``), with G(1/2) and dG/dt as the stage
  sees them mid-drag.  The stage runs under its caller's error state, here
  numpy's default; a REV whose ``_rate`` was a wrapper that entered its own
  ``np.errstate`` around the stage makes this row the wrapper's cost, not a
  gain of the stage;
- one polished 200-step ``rk4_drag`` along that path, per m and arithmetic;
- the fig1 drag: one unpolished 1000-step ``rk4_drag`` (h = 1e-3) from I/5
  to ``reference_five_state_gram()``, complex, as ``medsolve reproduce-fig1``
  runs it at its defaults;
- one ``search_optimum(gram, seed=0)`` for m = 2, 3 and 4 in real and complex
  arithmetic on ``raw_gram(random_ensemble(m, 90 + m, 0.6))``;
- the corrector of a polished drag, ``homotopy._correct``, from the raw end
  of the unpolished 200-step drag from I/m to a seeded near-dependent Gram
  matrix (smallest eigenvalue 1e-6, the others uniform in [0.1, 1] and
  rescaled to trace 1, eigenvectors ``haar_unitary(default_rng(80 + m), m)``)
  for m = 3 and 8 in real and complex arithmetic;
- the verification layers at m = 3 on the certify input of
  ``random_ensemble(3, 93, 0.6)``'s polished optimum, held in memory as the
  CLI reads it from its JSON file: the real ensemble (arithmetic ``real``)
  and the complex problem's Gram matrix (``complex``).  ``load`` parses the
  input with ``load_gram_or_ensemble`` and ``povm_from_dict`` (the input
  checks), then ``certify_povm`` and ``geometric_audit`` run on the parsed
  input;
- ``classify_landscape`` on the real ensemble's Gram matrix, the enumeration
  and every real root's certificate, and ``landscape_to_dict`` of its
  landscape, enumerated once before the timing as ``medsolve enumerate``
  serializes it.

The table gives, per row, each package's best sample and their ratio, and
the median of the 21 paired ratios here/rev (sample k of this checkout over
sample k of REV) with its quartiles q1 and q3; below 1 is faster here.  A run
against HEAD with nothing changed (an A/A run) shows how far the paired
medians stray by noise alone: on 2 shared cores two such runs read every
row within 0.983-1.014 and 0.963-1.021.  A gap inside that band is not
resolved.  Both trees must provide every function named here, with
``_rate(a, f, g, gdot, t)``, the whole stage in one function, ``_integrate``
and ``_correct(a, f, gram)`` among them; REV's lack of one exits 2 with its
name.

With ``--json`` the run is also written to ``BENCH_<n>.json`` at the
repository root, n the first integer from 1 whose file does not exist: the
host (Python, numpy, the BLAS build and the thread count of each OpenBLAS
loaded, as perfbench records them, and nproc), both revisions as commits,
with whether this checkout's ``src/medsolve`` differs from its own HEAD,
and each row's bests and paired quartiles as the table prints them.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from types import ModuleType

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from identity import extract  # noqa: E402

DIMENSIONS, SEARCH_DIMENSIONS, FINISH_DIMENSIONS = (2, 5, 8), (2, 3, 4), (3, 8)
SAMPLES, SAMPLE_S, FINISH_MIN_EIG = 21, 0.05, 1e-6
STEPS, H = 200, 5e-3


def load(name: str, src: Path) -> ModuleType:
    """Import the package in ``src/medsolve``, and every module of it, as ``name``."""
    tree = (src / "medsolve").resolve()
    spec = importlib.util.spec_from_file_location(name, tree / "__init__.py",
                                                  submodule_search_locations=[str(tree)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(tree.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == name and Path(module.__file__).resolve().parent != tree:
            raise SystemExit(f"{key} was loaded from {module.__file__}, not from {tree}")
    return package


def rows(ms: ModuleType) -> dict[tuple[str, int, str], tuple]:
    """{(layer and unit, m, arithmetic): (call, units per second)} for the
    package ``ms``, every call bound to inputs built once."""
    out, drag = {}, {}
    for m in DIMENSIONS:
        for arith in ("real", "complex"):
            target = ms.raw_gram(ms.random_ensemble(m, 90 + m, 0.6, real=arith == "real"))
            path = ms.Trajectory(ms.GramMatrix(np.eye(m) / m), target)
            mid = ms.rk4_drag(ms.Trajectory(path.g_start, ms.GramMatrix(path(0.5))),
                              steps=STEPS, h=H, polish=True).final_state
            f, g, gdot = mid.f, path(0.5), path.tangent()
            if arith == "real":
                f, g, gdot = f.real, g.real, gdot.real
            out["_rate us", m, arith] = (partial(ms.homotopy._rate, mid.a, f, g, gdot, 0.5), 1e6)
            drag["rk4_drag ms", m, arith] = (partial(ms.rk4_drag, path, steps=STEPS, h=H,
                                                     polish=True), 1e3)
    out.update(drag)
    fig1 = ms.Trajectory(ms.GramMatrix(np.eye(5) / 5), ms.reference_five_state_gram())
    out["rk4_drag fig1 ms", 5, "complex"] = (partial(ms.rk4_drag, fig1, steps=1000, h=1e-3), 1e3)
    for m in SEARCH_DIMENSIONS:
        for arith in ("real", "complex"):
            gram = ms.raw_gram(ms.random_ensemble(m, 90 + m, 0.6, real=arith == "real"))
            out["search_optimum ms", m, arith] = (partial(ms.search_optimum, gram, seed=0), 1e3)
    for m in FINISH_DIMENSIONS:
        for arith in ("real", "complex"):
            rng = np.random.default_rng(80 + m)
            lam = np.concatenate(([FINISH_MIN_EIG], rng.uniform(0.1, 1.0, m - 1)))
            lam[1:] *= (1.0 - lam[0]) / lam[1:].sum()
            v = ms.linalg.haar_unitary(rng, m, arith == "real")
            path = ms.Trajectory(ms.GramMatrix(np.eye(m) / m),
                                 ms.GramMatrix(ms.linalg.hermitize((v * lam) @ v.conj().T)))
            start = ms.initial_state(m)
            a, f = ms.homotopy._integrate(path, start.a, start.f, STEPS, H, polish=False)[:2]
            out["finish ms", m, arith] = (partial(ms.homotopy._correct, a, f, path.g_end), 1e3)
    serialize = ms.serialize
    for arith in ("real", "complex"):
        ensemble = ms.random_ensemble(3, 93, 0.6, real=arith == "real")
        gram = ms.raw_gram(ensemble)
        u = ms.rk4_drag(ms.Trajectory(ms.GramMatrix(np.eye(3) / 3), gram), steps=STEPS, h=H,
                        polish=True).final_povm.vectors
        if arith == "real":
            problem = serialize.ensemble_to_dict(ensemble)
            povm = serialize.povm_to_dict(ms.povm_from_unitary(gram, u, ensemble=ensemble))
        else:
            problem, povm = serialize.gram_to_dict(gram), serialize.povm_to_dict(ms.Povm(u))

        def parse(problem=problem, povm=povm):
            return serialize.load_gram_or_ensemble(problem), serialize.povm_from_dict(povm)

        parsed = parse()
        layers = {"load": parse, "certify_povm": partial(ms.certify_povm, *parsed),
                  "geometric_audit": partial(ms.geometric_audit, *parsed)}
        if arith == "real":
            layers["classify_landscape"] = partial(ms.classify_landscape, gram)
            layers["landscape_to_dict"] = partial(serialize.landscape_to_dict,
                                                  ms.classify_landscape(gram))
        for layer, call in layers.items():
            out[f"{layer} us", 3, arith] = (call, 1e6)
    return out


def per_call(call, calls: int) -> float:
    """One timing of ``calls`` calls, in seconds per call, with the cyclic
    garbage collector off, as ``timeit`` times."""
    gc.disable()
    try:
        began = time.perf_counter()
        for _ in range(calls):
            call()
        return (time.perf_counter() - began) / calls
    finally:
        gc.enable()


def summary(rev: list[float], here: list[float]) -> tuple[float, ...]:
    """One row's (best of REV, best here, here/rev of the bests, and q1, median
    and q3 of the paired ratios here[k] / rev[k]) from its samples."""
    best = min(rev), min(here)
    return (*best, best[1] / best[0], *np.percentile(np.divide(here, rev), [25, 50, 75]))


def host() -> dict:
    """The host as perfbench records it: Python, numpy, the BLAS build, each
    loaded OpenBLAS and its thread count, and nproc."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    perfbench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclass
    spec.loader.exec_module(perfbench)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_threads": perfbench._blas_threads(),
            "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count()}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def revisions(against: str) -> dict:
    """REV and this checkout as commits; ``src_modified`` says whether this
    checkout's ``src/medsolve`` differs from its HEAD, untracked files included."""
    return {"rev": {"name": against,
                    "commit": git("rev-parse", "--verify", f"{against}^{{commit}}")},
            "here": {"commit": git("rev-parse", "HEAD"),
                     "src_modified": bool(git("status", "--porcelain", "--", "src/medsolve"))}}


def write_bench(record: dict, root: Path = ROOT) -> Path:
    """Write ``record`` to ``root/BENCH_<n>.json``, n the first integer from 1
    whose file does not exist, and return its path."""
    n = 1
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    path = root / f"BENCH_{n}.json"
    with open(path, "x") as fh:  # a run that took n meanwhile is not overwritten
        fh.write(json.dumps(record, indent=1) + "\n")
    return path


def bench_record(table: dict, host: dict, revisions: dict) -> dict:
    """The ``BENCH_<n>.json`` record of the ``table`` {(layer and unit, m,
    arithmetic): ``summary`` of its samples}."""
    rows = []
    for (name, m, arith), row in table.items():
        layer, unit = name.rsplit(" ", 1)
        rows.append({"layer": layer, "unit": unit, "m": m, "arith": arith,
                     **dict(zip(("best_rev", "best_here", "best_ratio", "q1", "median", "q3"),
                                map(float, row)))})
    return {"tool": "tools/stagebench.py", "host": host, "revisions": revisions,
            "samples": SAMPLES, "sample_s": SAMPLE_S, "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", metavar="REV",
                        help="git revision to compare this checkout with (default: HEAD)")
    parser.add_argument("--json", action="store_true",
                        help="also write the run to BENCH_<n>.json at the repository root")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="medsolve-stagebench-") as tmp:
        if not extract(args.against, Path(tmp)):
            return 2
        revs = revisions(args.against)
        packages = {"rev": load("medsolve_rev", Path(tmp) / "src"),
                    "here": load("medsolve", ROOT / "src")}
        try:
            built = {name: rows(package) for name, package in packages.items()}
        except AttributeError as exc:
            print(f"{exc}, which a row calls (medsolve_rev is {args.against})", file=sys.stderr)
            return 2
        times: dict[str, dict] = {"rev": {}, "here": {}}
        for key, (call, unit) in built["rev"].items():
            calls = max(1, round(SAMPLE_S / min(per_call(call, 1) for _ in range(3))))
            for k in range(SAMPLES):
                for name in (("rev", "here") if k % 2 == 0 else ("here", "rev")):
                    times[name].setdefault(key, []).append(
                        unit * per_call(built[name][key][0], calls))

    print(f"Python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs; {SAMPLES} alternated samples of about {SAMPLE_S} s "
          f"per row and tree in one process")
    rev = args.against[:12]
    print(f"{'layer':<21} {'m':>2} {'arith':<8} {'best: ' + rev:>18} {'here':>8} {'here/rev':>9}"
          f" {'paired: q1':>11} {'median':>7} {'q3':>6}")
    table = {key: summary(theirs, times["here"][key]) for key, theirs in times["rev"].items()}
    for (layer, m, arith), row in table.items():
        print(f"{layer:<21} {m:>2} {arith:<8} {row[0]:>18.2f} {row[1]:>8.2f} {row[2]:>9.3f} "
              f"{row[3]:>11.3f} {row[4]:>7.3f} {row[5]:>6.3f}")
    if args.json:
        print(f"wrote {write_bench(bench_record(table, host(), revs))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
