"""Byte-identity check of the CLI and the direct search between this checkout and a git revision.

    python tools/identity.py [--against REV]      # REV defaults to HEAD

Run from anywhere inside the repository.  The tool extracts REV's ``src``
tree with ``git archive REV src | tar -x``, writes one set of inputs with
``perfbench/inputs.py`` and runs the same list of CLI operations on both
trees, each tree in its own Python process that imports ``medsolve`` from
that tree and calls ``medsolve.cli.main`` (or, for a search, the API) in
process.  The 286 operations (260 CLI calls and 26 searches):

- ``solve`` on the batch-small inputs of seeds 0 and 1, with the benchmark's
  flags ``--steps 200 --h 5e-3 --polish`` and with the same flags without
  ``--polish``;
- ``solve --steps 193 --h 0.0051813471502590676 --polish`` on the batch-small
  input ``10-m5-gram`` of seed 0: at m = 5 a block of the drag's G(t) is 64
  steps, so the last block holds only the polished step, whose trace row the
  loop does not write;
- ``solve`` with those flags and ``--polish`` on two near-dependent inputs,
  where the polished drag's corrector starts far from the optimum: the real
  m = 3 Gram matrix with spectrum (3e-8, 3/7, 4/7) up to the trace and
  eigenvectors ``haar_unitary(default_rng(1), 3, real=True)``, and
  ``tests/data/near-dependent-m2-ensemble.json`` (min eigenvalue 2.5e-6);
- for the verify-m3 inputs of seed 0: ``certify`` and ``audit`` on the
  optimum, on an outcome-permuted copy and on a seeded Haar-random
  measurement (orthogonal for a real problem), which take the generic
  non-stationary branches, and ``enumerate`` on the real problems;
- ``enumerate`` on ``tests/data/near-dependent-m3-nd150-gram.json`` and
  ``...-nd361-gram.json`` (least eigenvalues 2.4e-8 and 1.25e-8), where the
  first pencil loses the global root or a root's factor misses the gate, with
  numpy 2.4's OpenBLAS;
- ``enumerate`` on G = I/3, whose 5 roots fall short of the degree bound and
  warn RootCountAnomaly;
- ``certify`` and ``audit`` on G = I/3 measured by its basis permuted
  cyclically (Z = 0) and with its last two outcomes swapped (every
  kappa_i = 0), which take the audit's branch for a zero weight;
- ``reproduce-fig1`` at its defaults and at ``--steps 200 --h 5e-3 --polish``;
- one ``solve --batch`` over the whole input directory, whose certify files
  fail per input with exit 64;
- ``generate``;
- ``search_optimum(gram, seed=k)`` through the API on the Gram matrices of the
  verify-m3 inputs of seed 0, of six seeded m = 2 and six m = 4 problems
  (half real) and of one real and one complex near-dependent m = 4 problem
  (least eigenvalue 1e-6), k the index of the problem in that list; each writes
  ``search.json`` with ``p_success``, the convergence's ``iterations`` and
  ``grad_norm`` and the measurement's ``vectors_re`` and ``vectors_im``.

For each operation it records the exit code, stdout and stderr (with the
work directory masked), an escaped exception's type, and the sha256 of every
output file.  It prints each difference and exits 1 when there is any, 0
otherwise.  Under a JSON or CSV file whose bytes differ it lists the largest
|delta| of each numeric key (list indices folded into ``[]``) or column whose
values moved, and names any other key that changed.  MED_LOG is removed from
the children's environment, since its records carry wall-clock times, and
OPENBLAS_NUM_THREADS is set to 1 there, since output bytes repeat only at one
BLAS thread count (README, exit codes).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402

SOLVE_FLAGS = ["--steps", "200", "--h", "5e-3"]
PERMUTATION = [1, 2, 0]
#: first item of an operation that calls ``search_optimum``, not the CLI
SEARCH = "api:search_optimum"
#: dimensions, count per arithmetic and spread of the extra search problems
SEARCH_M, SEARCH_PER_ARITH, SEARCH_SPREAD = (2, 4), 3, 0.3


def _certify_files(work: Path, problems: list[inputs.Problem]) -> list[Path]:
    """Optimum, permuted-optimum and Haar-random files for the verify-m3
    problems.  The optimum comes from this checkout's drag; both trees read
    the same files."""
    sys.path.insert(0, str(ROOT / "src"))
    import medsolve as ms
    from medsolve import serialize
    from medsolve.linalg import haar_unitary

    rng = np.random.default_rng(0)
    paths = []
    for p in problems:
        gram = ms.GramMatrix(p.gram())
        u = ms.rk4_drag(ms.Trajectory(ms.GramMatrix(np.eye(3) / 3), gram),
                        steps=200, h=5e-3, polish=True).final_povm.vectors
        haar = haar_unitary(rng, 3, real=p.real)
        if p.schema == "ensemble":
            ensemble = ms.Ensemble(p.states, p.probs)
            vectors, haar = (ms.povm_from_unitary(gram, x, ensemble=ensemble).vectors
                             for x in (u, haar))
            frame = ms.FRAME_AMBIENT
        else:
            vectors, frame = u, ms.FRAME_DUAL
        for label, vecs in (("opt", vectors), ("perm", vectors[:, PERMUTATION]),
                            ("haar", haar)):
            paths.append(inputs.write(work / f"{p.name}-{label}.json",
                                      {"ensemble": p.to_dict(),
                                       "povm": serialize.povm_to_dict(
                                           ms.Povm(vecs, frame=frame))}))
    return paths


def _near_dependent_inputs(work: Path) -> list[Path]:
    """The two near-dependent polish inputs, the m = 3 Gram matrix written
    under ``work/near-dependent`` so that the batch operation does not read it."""
    sys.path.insert(0, str(ROOT / "src"))
    import medsolve as ms
    from medsolve import serialize
    from medsolve.linalg import haar_unitary, hermitize

    v = haar_unitary(np.random.default_rng(1), 3, real=True)
    g = hermitize((v * np.array([3e-8, 3 / 7 * (1 - 3e-8), 4 / 7 * (1 - 3e-8)])) @ v.T)
    path = work / "near-dependent" / "near-dependent-m3-gram.json"
    path.parent.mkdir()
    serialize.write_json(path, serialize.gram_to_dict(ms.GramMatrix(g / np.trace(g).real)))
    return [path, ROOT / "tests" / "data" / "near-dependent-m2-ensemble.json"]


def _centre_inputs(work: Path) -> list[Path]:
    """G = I/3, then the two G = I/3 certify inputs whose zero weights send Z,
    or every complement, to the audit's centre, written under ``work/centre``
    so that the batch operation does not read them."""
    sys.path.insert(0, str(ROOT / "src"))
    import medsolve as ms
    from medsolve import serialize

    gram = serialize.gram_to_dict(ms.GramMatrix(np.eye(3) / 3))
    centre = work / "centre"
    centre.mkdir()
    return [inputs.write(centre / "identity-m3-gram.json", gram)] + [
        inputs.write(centre / f"identity-m3-{name}.json",
                     {"ensemble": gram,
                      "povm": serialize.povm_to_dict(ms.Povm(np.eye(3)[:, columns]))})
        for name, columns in (("cyclic", [1, 2, 0]), ("swap", [0, 2, 1]))]


def operations(work: Path) -> list[tuple[str, list[str]]]:
    """Write the inputs under ``work`` and return (key, argv without --out)."""
    ops = []
    for seed in (0, 1):
        for p in inputs.batch_small(seed):
            path = str(inputs.write(work / f"s{seed}-{p.name}.json", p.to_dict()))
            ops.append((f"s{seed}-{p.name}-polish", ["solve", path, *SOLVE_FLAGS, "--polish"]))
            ops.append((f"s{seed}-{p.name}-plain", ["solve", path, *SOLVE_FLAGS]))
    # 193 = 3 * 64 + 1 steps at m = 5: the last block of G(t) holds only the polished step
    ops.append(("s0-10-m5-gram-polish-193", ["solve", str(work / "s0-10-m5-gram.json"), "--steps",
                                             "193", "--h", "0.0051813471502590676", "--polish"]))
    for path in _near_dependent_inputs(work):
        ops.append((f"{path.stem}-polish", ["solve", str(path), *SOLVE_FLAGS, "--polish"]))
    problems = inputs.verify_m3(0)
    for p in problems:
        path = inputs.write(work / f"{p.name}.json", p.to_dict())
        if p.real:
            ops.append((f"{p.name}-enumerate", ["enumerate", str(path)]))
    for name in ("nd150", "nd361"):
        path = ROOT / "tests" / "data" / f"near-dependent-m3-{name}-gram.json"
        ops.append((f"{path.stem}-enumerate", ["enumerate", str(path)]))
    identity, *centre = _centre_inputs(work)
    ops.append((f"{identity.stem}-enumerate", ["enumerate", str(identity)]))
    for path in _certify_files(work, problems) + centre:
        ops.append((f"{path.stem}-certify", ["certify", str(path)]))
        ops.append((f"{path.stem}-audit", ["audit", str(path)]))
    ops.append(("fig1", ["reproduce-fig1"]))
    ops.append(("fig1-polish", ["reproduce-fig1", *SOLVE_FLAGS, "--polish"]))
    ops.append(("batch", ["solve", "--batch", str(work), *SOLVE_FLAGS, "--polish"]))
    ops.append(("generate", ["generate", "--m", "3", "--seed", "0"]))
    rng = np.random.default_rng(0)
    searched = problems + [inputs.draw(rng, f"m{m}-{'real' if real else 'complex'}-{k}", m,
                                       SEARCH_SPREAD, real=real, schema="gram")
                           for m in SEARCH_M for real in (True, False)
                           for k in range(SEARCH_PER_ARITH)]
    searched = [(p.name, p.gram()) for p in searched] + _near_dependent_search_grams()
    for k, (name, gram) in enumerate(searched):
        path = work / f"{name}-gram.npy"
        np.save(path, gram)
        ops.append((f"{name}-search", [SEARCH, str(path), str(k)]))
    return ops


def _near_dependent_search_grams() -> list[tuple[str, np.ndarray]]:
    """(name, G) of one real and one complex m = 4 search problem with least
    eigenvalue 1e-6, drawn as the near-dependence probe draws them: the other
    eigenvalues uniform in [0.1, 1], scaled to trace 1, Haar eigenvectors."""
    sys.path.insert(0, str(ROOT / "src"))
    from medsolve.linalg import haar_unitary, hermitize

    rng = np.random.default_rng(4)
    grams = []
    for real in (True, False):
        lam = np.concatenate(([1e-6], rng.uniform(0.1, 1.0, 3)))
        lam[1:] *= (1.0 - lam[0]) / lam[1:].sum()
        v = haar_unitary(rng, 4, real)
        grams.append((f"near-dependent-m4-{'real' if real else 'complex'}",
                      hermitize((v * lam) @ v.conj().T)))
    return grams


def _search(ms, target: Path, path: str, seed: str) -> None:
    """One ``search_optimum`` call on the Gram matrix saved at ``path``, its
    record written to ``target/search.json`` (floats round-trip exactly)."""
    found = ms.search_optimum(ms.GramMatrix(np.load(path)), seed=int(seed))
    vectors = found.povm.vectors
    target.mkdir(parents=True)
    (target / "search.json").write_text(json.dumps(
        {"p_success": float(found.p_success), "iterations": int(found.convergence.iterations),
         "grad_norm": float(found.convergence.grad_norm),
         "vectors_re": vectors.real.tolist(), "vectors_im": vectors.imag.tolist()}))


def run_tree(src: Path, ops: list, work: Path, out: Path) -> dict:
    """Run ``ops`` on the medsolve under ``src`` in this process."""
    sys.path.insert(0, str(src))
    import medsolve.cli

    if Path(medsolve.__file__).resolve().parent != (src / "medsolve").resolve():
        raise SystemExit(f"imported {medsolve.__file__}, not the tree under {src}")

    def mask(text: str) -> str:
        return text.replace(str(out), "<out>").replace(str(work), "<work>")

    results = {}
    for key, argv in ops:
        target = out / key
        stdout, stderr = io.StringIO(), io.StringIO()
        code, escaped = None, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if argv[0] == SEARCH:
                    _search(medsolve, target, *argv[1:])
                else:
                    code = medsolve.cli.main(argv + ["--out", str(target)])
            except Exception as exc:  # an escaped exception is a result too
                escaped = type(exc).__name__
        files = {}
        if target.is_dir():
            for path in sorted(target.rglob("*")):
                if path.is_file():
                    files[str(path.relative_to(target))] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
        results[key] = {"code": code, "escaped": escaped, "stdout": mask(stdout.getvalue()),
                        "stderr": mask(stderr.getvalue()), "files": files}
    return results


def _child(src: Path, work: Path, out: Path, ops: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MED_LOG"}
    env.pop("PYTHONPATH", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(src), str(work), str(out), str(ops)],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"the run on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _leaves(value, key: str = "") -> dict[str, list]:
    """The leaves of a JSON value by key path, list indices folded into ``[]``."""
    if isinstance(value, dict):
        items = [(f"{key}.{k}" if key else k, v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{key}[]", v) for v in value]
    else:
        return {key: [value]}
    leaves: dict[str, list] = {}
    for k, v in items:
        for path, values in _leaves(v, k).items():
            leaves.setdefault(path, []).extend(values)
    return leaves


def _columns(path: Path) -> dict[str, list]:
    rows = list(csv.reader(path.read_text().splitlines()))
    return {name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def value_deltas(theirs: Path, ours: Path) -> list[str]:
    """The largest |delta| of each key (JSON) or column (CSV) that differs."""
    if theirs.suffix == ".json":
        a, b = _leaves(json.loads(theirs.read_text())), _leaves(json.loads(ours.read_text()))
    elif theirs.suffix == ".csv":
        a, b = _columns(theirs), _columns(ours)
    else:
        return []
    lines = []
    for key in sorted(set(a) | set(b)):
        old, new = a.get(key, []), b.get(key, [])
        if old == new:
            continue
        if len(old) == len(new) and all(map(_number, old + new)):
            delta = max(abs(x - y) for x, y in zip(old, new))
            lines.append(f"{key}: max |delta| {delta:.3g}")
        else:
            lines.append(f"{key}: changed")
    return lines


def compare(ours: dict, theirs: dict, ours_out: Path, theirs_out: Path) -> list[str]:
    diffs = []
    for key in ours:
        a, b = ours[key], theirs[key]
        for field in ("code", "escaped"):
            if a[field] != b[field]:
                diffs.append(f"{key}: {field} {b[field]!r} -> {a[field]!r}")
        for field in ("stdout", "stderr"):
            if a[field] != b[field]:
                ours_lines, theirs_lines = a[field].splitlines(), b[field].splitlines()
                n = next((i for i, pair in enumerate(zip(ours_lines, theirs_lines))
                          if pair[0] != pair[1]), min(len(ours_lines), len(theirs_lines)))
                first = [lines[n] if n < len(lines) else "<end>"
                         for lines in (theirs_lines, ours_lines)]
                diffs.append(f"{key}: {field} line {n + 1}: {first[0]!r} -> {first[1]!r}")
        for name in sorted(set(a["files"]) | set(b["files"])):
            if a["files"].get(name) != b["files"].get(name):
                state = ("only here" if name not in b["files"] else
                         "only in the revision" if name not in a["files"] else "bytes differ")
                diffs.append(f"{key}: {name} {state}")
                if state == "bytes differ":
                    diffs += [f"    {line}" for line in
                              value_deltas(theirs_out / key / name, ours_out / key / name)]
    return diffs


def extract(rev: str, dest: Path) -> bool:
    """Write REV's ``src`` tree under ``dest`` (``git archive REV src | tar -x``).
    False, with git's message on stderr, when git cannot archive it."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=False)
    if archive.returncode != 0:
        print(archive.stderr.decode(), file=sys.stderr, end="")
        return False
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", metavar="REV",
                        help="git revision to compare this checkout with (default: HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="medsolve-identity-") as tmp:
        tmp = Path(tmp)
        rev_root, work = tmp / "rev", tmp / "inputs"
        rev_root.mkdir()
        work.mkdir()
        if not extract(args.against, rev_root):
            return 2
        ops = operations(work)
        ops_file = tmp / "ops.json"
        ops_file.write_text(json.dumps(ops))
        theirs = _child(rev_root / "src", work, tmp / "out-rev", ops_file)
        ours = _child(ROOT / "src", work, tmp / "out-here", ops_file)
        diffs = compare(ours, theirs, tmp / "out-here", tmp / "out-rev")
    for line in diffs:
        print(line)
    n_files = sum(len(r["files"]) for r in ours.values())
    n_diffs = sum(not line.startswith(" ") for line in diffs)
    print(f"{len(ops)} operations, {n_files} output files: "
          f"{n_diffs} difference(s) against {args.against}")
    return 1 if n_diffs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        src, work, out, ops = map(Path, sys.argv[2:6])
        print(json.dumps(run_tree(src, json.loads(ops.read_text()), work, out)))
    else:
        sys.exit(main())
