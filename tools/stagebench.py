"""Per-layer timing against a git revision: the drag, the direct search and the verification layers.

    python tools/stagebench.py [--against REV]      # REV defaults to HEAD

Run from anywhere inside the repository.  The tool extracts REV's ``src``
tree with ``git archive REV src | tar -x`` and times both trees in fresh
Python processes, five rounds of one process per tree, alternating which
tree goes first so that drift in the host's load falls on both.  Each
process imports ``medsolve`` from its tree and measures:

- ``homotopy._rate`` at a fixed mid-path state, for m = 2, 5 and 8 in real
  and complex arithmetic: the best of 5 repeats of 2000 calls, in us per call.
  The state is the polished drag's solution at G(1/2) of the path from I/m
  to a seeded random Gram matrix (``random_ensemble(m, 90 + m, 0.6)``), with
  G(1/2) and dG/dt as the stage sees them mid-drag;
- one polished 200-step ``rk4_drag`` along that path, per m and arithmetic,
  the best of 3, in ms;
- one ``search_optimum(gram, seed=0)`` for m = 2, 3 and 4 in real and complex
  arithmetic on ``raw_gram(random_ensemble(m, 90 + m, 0.6))``, the best of
  5, in ms;
- the corrector of a polished drag, ``homotopy._correct``, from the raw end
  of the unpolished 200-step drag from I/m to a seeded near-dependent Gram
  matrix (smallest eigenvalue 1e-6, the others uniform in [0.1, 1] and
  rescaled to trace 1, eigenvectors ``haar_unitary(default_rng(80 + m), m)``)
  for m = 3 and 8 in real and complex arithmetic, the best of 5, in ms;
- the verification layers at m = 3 on the certify input of
  ``random_ensemble(3, 93, 0.6)``'s polished optimum, held in memory as the
  CLI reads it from its JSON file: the real ensemble (arithmetic ``real``)
  and the complex problem's Gram matrix (``complex``).  ``load`` parses the
  input with ``load_gram_or_ensemble`` and ``povm_from_dict`` (the input
  checks), then ``certify_povm`` and ``geometric_audit`` run on the parsed
  input: the best of 5 repeats of 2000 calls, in us per call;
- ``classify_landscape`` on the real ensemble's Gram matrix, the enumeration
  and every real root's certificate, and ``landscape_to_dict`` of its
  landscape, enumerated once before the timing as ``medsolve enumerate``
  serializes it: the best of 5 repeats of 100 calls, in us per call.

The table gives, per row, the best and the median over the rounds of each
process's time, for REV and for this checkout, and their ratios (below 1 is
faster here).  The median shows how far the best alone can be trusted: fresh
processes of one tree differ by several percent.  Both trees must provide
``_rate(a, f, g, gdot, t)``, ``_integrate`` and ``_correct(a, f, gram)``, the
public ``rk4_drag``, ``search_optimum``, ``certify_povm``, ``geometric_audit``
and ``classify_landscape``, and the ``serialize`` functions named here.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIMENSIONS, SEARCH_DIMENSIONS, FINISH_DIMENSIONS = (2, 5, 8), (2, 3, 4), (3, 8)
ROUNDS, RATE_CALLS, RATE_REPEATS, DRAG_REPEATS, SEARCH_REPEATS = 5, 2000, 5, 3, 5
FINISH_REPEATS, FINISH_MIN_EIG = 5, 1e-6
VERIFY_CALLS, VERIFY_REPEATS, ENUMERATE_CALLS = 2000, 5, 100
STEPS, H = 200, 5e-3


def measure(src: Path) -> dict[str, float]:
    """Time the medsolve under ``src`` in this process: {row key: best time}."""
    sys.path.insert(0, str(src))
    import medsolve as ms
    from medsolve import homotopy, serialize
    from medsolve.linalg import haar_unitary, hermitize

    if Path(ms.__file__).resolve().parent != (src / "medsolve").resolve():
        raise SystemExit(f"imported {ms.__file__}, not the tree under {src}")
    cases = []  # (m, arithmetic, path, _rate's arguments at the mid-path state)
    for m in DIMENSIONS:
        for real in (True, False):
            target = ms.raw_gram(ms.random_ensemble(m, 90 + m, 0.6, real=real))
            path = ms.Trajectory(ms.GramMatrix(np.eye(m) / m), target)
            half = ms.GramMatrix(path(0.5))
            mid = ms.rk4_drag(ms.Trajectory(path.g_start, half), steps=STEPS, h=H,
                              polish=True).final_state
            args = (mid.a, mid.f, path(0.5), path.tangent(), 0.5)
            if real:
                args = (mid.a, mid.f.real, path(0.5).real, path.tangent().real, 0.5)
            cases.append((m, "real" if real else "complex", path, args))
    out = {}
    for m, arith, _, args in cases:
        best = np.inf
        for _ in range(RATE_REPEATS):
            began = time.perf_counter()
            for _ in range(RATE_CALLS):
                homotopy._rate(*args)
            best = min(best, time.perf_counter() - began)
        out[f"_rate us|{m}|{arith}"] = 1e6 * best / RATE_CALLS
    for m, arith, path, _ in cases:
        best = np.inf
        for _ in range(DRAG_REPEATS):
            began = time.perf_counter()
            ms.rk4_drag(path, steps=STEPS, h=H, polish=True)
            best = min(best, time.perf_counter() - began)
        out[f"rk4_drag ms|{m}|{arith}"] = 1e3 * best
    for m in SEARCH_DIMENSIONS:
        for real in (True, False):
            gram = ms.raw_gram(ms.random_ensemble(m, 90 + m, 0.6, real=real))
            best = np.inf
            for _ in range(SEARCH_REPEATS):
                began = time.perf_counter()
                ms.search_optimum(gram, seed=0)
                best = min(best, time.perf_counter() - began)
            out[f"search_optimum ms|{m}|{'real' if real else 'complex'}"] = 1e3 * best
    for m in FINISH_DIMENSIONS:
        for real in (True, False):
            rng = np.random.default_rng(80 + m)
            lam = np.concatenate(([FINISH_MIN_EIG], rng.uniform(0.1, 1.0, m - 1)))
            lam[1:] *= (1.0 - lam[0]) / lam[1:].sum()
            v = haar_unitary(rng, m, real)
            path = ms.Trajectory(ms.GramMatrix(np.eye(m) / m),
                                 ms.GramMatrix(hermitize((v * lam) @ v.conj().T)))
            start = ms.initial_state(m)
            a, f = homotopy._integrate(path, start.a, start.f, STEPS, H, polish=False)[:2]
            best = np.inf
            for _ in range(FINISH_REPEATS):
                began = time.perf_counter()
                homotopy._correct(a, f, path.g_end)
                best = min(best, time.perf_counter() - began)
            out[f"finish ms|{m}|{'real' if real else 'complex'}"] = 1e3 * best
    for real in (True, False):
        ensemble = ms.random_ensemble(3, 93, 0.6, real=real)
        gram = ms.raw_gram(ensemble)
        u = ms.rk4_drag(ms.Trajectory(ms.GramMatrix(np.eye(3) / 3), gram), steps=STEPS, h=H,
                        polish=True).final_povm.vectors
        if real:
            problem = serialize.ensemble_to_dict(ensemble)
            povm = serialize.povm_to_dict(ms.povm_from_unitary(gram, u, ensemble=ensemble))
        else:
            problem, povm = serialize.gram_to_dict(gram), serialize.povm_to_dict(ms.Povm(u))

        def load(problem=problem, povm=povm):
            return serialize.load_gram_or_ensemble(problem), serialize.povm_from_dict(povm)

        parsed = load()
        layers = [("load", load, VERIFY_CALLS),
                  ("certify_povm", functools.partial(ms.certify_povm, *parsed), VERIFY_CALLS),
                  ("geometric_audit", functools.partial(ms.geometric_audit, *parsed),
                   VERIFY_CALLS)]
        if real:
            layers += [("classify_landscape", functools.partial(ms.classify_landscape, gram),
                        ENUMERATE_CALLS),
                       ("landscape_to_dict", functools.partial(
                           serialize.landscape_to_dict, ms.classify_landscape(gram)),
                        ENUMERATE_CALLS)]
        for layer, call, calls in layers:
            best = np.inf
            for _ in range(VERIFY_REPEATS):
                began = time.perf_counter()
                for _ in range(calls):
                    call()
                best = min(best, time.perf_counter() - began)
            out[f"{layer} us|3|{'real' if real else 'complex'}"] = 1e6 * best / calls
    return out


def _child(src: Path) -> dict[str, float]:
    env = {k: v for k, v in os.environ.items() if k not in ("MED_LOG", "PYTHONPATH")}
    done = subprocess.run([sys.executable, __file__, "--child", str(src)], env=env,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"the run on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", metavar="REV",
                        help="git revision to compare this checkout with (default: HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="medsolve-stagebench-") as tmp:
        rev_root = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against, "src"],
                                 capture_output=True, check=False)
        if archive.returncode != 0:
            print(archive.stderr.decode(), file=sys.stderr, end="")
            return 2
        subprocess.run(["tar", "-x", "-C", str(rev_root)], input=archive.stdout, check=True)
        trees = {"rev": rev_root / "src", "here": ROOT / "src"}
        runs: dict[str, dict[str, list[float]]] = {"rev": {}, "here": {}}
        for k in range(ROUNDS):
            for name in (("rev", "here") if k % 2 == 0 else ("here", "rev")):
                for key, value in _child(trees[name]).items():
                    runs[name].setdefault(key, []).append(value)

    print(f"Python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs; {ROUNDS} alternated processes per tree")
    rev = args.against[:12]
    print(f"{'layer':<21} {'m':>2} {'arith':<8} {'best: ' + rev:>18} {'here':>8} {'here/rev':>9}"
          f" {'median: rev':>12} {'here':>8} {'here/rev':>9}")
    for key, theirs in runs["rev"].items():
        layer, m, arith = key.split("|")
        ours = runs["here"][key]
        best = min(theirs), min(ours)
        median = float(np.median(theirs)), float(np.median(ours))
        print(f"{layer:<21} {m:>2} {arith:<8} {best[0]:>18.2f} {best[1]:>8.2f} "
              f"{best[1] / best[0]:>9.3f} {median[0]:>12.2f} {median[1]:>8.2f} "
              f"{median[1] / median[0]:>9.3f}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(measure(Path(sys.argv[2]))))
    else:
        sys.exit(main())
