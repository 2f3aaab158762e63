"""In-memory span recorder for the traced run.

The benchmark wraps the public functions of each medsolve layer under the
names their callers look them up by (``medsolve.cli.rk4_drag``,
``medsolve.homotopy.certify_gram``, ...), so nothing under ``src/`` changes.
A span holds its name, start, end, parent span, operation id and the class
of any exception that left it.  Self time is a span's duration minus that
of its direct children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import inputs
import medsolve as ms
import medsolve.cli
import medsolve.gram
import medsolve.homotopy

# (owner, attribute, span name); a name shared by several entries is one layer
SPANS = [
    (ms.cli, "main", "cli.main"),
    (ms.cli, "read_json", "serialize.read"),
    (ms.cli, "load_gram_or_ensemble", "serialize.read"),
    (ms.cli, "povm_from_dict", "serialize.read"),
    (ms.cli, "write_json", "serialize.write"),
    (ms.cli, "write_trace_csv", "serialize.write"),
    (ms.gram.GramMatrix, "__post_init__", "gram.validate"),
    (ms.gram.Ensemble, "__post_init__", "gram.validate"),
    (ms.gram, "canonicalize", "gram.canonicalize"),
    (ms.cli, "rk4_drag", "homotopy.drag"),
    (ms.cli, "drag_between", "homotopy.drag"),
    (ms.homotopy, "certify_gram", "certify.gram"),
    (ms.cli, "certify_povm", "certify.povm"),
    (ms.cli, "classify_landscape", "enumerate3.classify"),
    (ms.cli, "geometric_audit", "bloch3.audit"),
    (ms, "search_optimum", "oracle.search"),
]
# private per-stage functions of the drag, counted (no span) to give exact
# rate-evaluation and Newton-correction counts; absent names count zero
COUNTERS = [
    (ms.homotopy, "_rate", "rate_evals"),
    (ms.homotopy, "_newton_correction", "newton_corrections"),
]


def _tie_perms(entries) -> int:
    """prod k! over blocks of tied diagonal entries: the permutations the
    brute-force canonical form enumerates."""
    g = entries.entries if isinstance(entries, ms.GramMatrix) else entries
    diag = sorted(float(x.real) for x in g.diagonal())
    perms, run = 1, 1
    for prev, cur in zip(diag, diag[1:]):
        run = run + 1 if abs(cur - prev) <= 1e-12 else 1
        perms *= run
    return perms


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, exc]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.lu_flop = 0.0            # computed: 2/3 n^3 per tangent LU, n = m^2
        self.tangent_dim = 0
        self._saved: list = []

    # -- instrumentation
    def install(self) -> None:
        for owner, attr, name in SPANS:
            if hasattr(owner, attr):
                self._patch(owner, attr, self._span(getattr(owner, attr), name))
        for owner, attr, name in COUNTERS:
            if hasattr(owner, attr):
                self._patch(owner, attr, self._counter(getattr(owner, attr), name))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, fn, name):
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else None,
                    self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        def wrapper(a, *args, **kwargs):
            m = a.shape[0]
            self.counts[name] += 1
            self.lu_flop += 2.0 * (m * m) ** 3 / 3.0
            self.tangent_dim = max(self.tangent_dim, m * m)
            return fn(a, *args, **kwargs)

        return wrapper

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "homotopy.drag":
            self.counts["steps"] += int(result.trace.shape[0])
        elif name == "serialize.write":
            self.counts["bytes_written"] += Path(args[0]).stat().st_size
        elif name == "gram.canonicalize":
            self.counts["canonicalize_calls"] += 1
            self.counts["canonicalize_perms"] += _tie_perms(args[0])
        elif name == "enumerate3.classify":
            self.counts["classify_calls"] += 1
            self.counts["roots_found"] += len(result.roots)
            self.counts["newton_starts"] += kwargs.get("n_starts", 200)
        elif name == "oracle.search":
            self.counts["search_calls"] += 1
            self.counts["search_iters"] += result.convergence.iterations

    # -- derived numbers
    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        child = defaultdict(float)
        for name, start, end, parent, _op, _exc in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent, _op, _exc) in enumerate(self.spans):
            out[name] += 1e3 * (end - start - child[idx])
        return out

    def failures(self, name: str) -> Counter:
        return Counter(s[5] for s in self.spans if s[0] == name and s[5] is not None)

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for idx, (name, start, end, parent, op, exc) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "exc": exc}) + "\n")


def median_us(fn, reps: int) -> float:
    """Median wall time of ``reps`` calls of ``fn``, in microseconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def derivative_us(m: int, reps: int) -> float:
    """Median time of the public ``derivative()`` at a fixed state: the
    orthogonal start of the path to a fixed complex target of size m."""
    target = inputs.draw(np.random.default_rng(m), "probe", m, 0.5, real=False, schema="gram")
    trajectory = ms.Trajectory(ms.GramMatrix(np.eye(m) / m), ms.GramMatrix(target.gram()))
    state = ms.initial_state(m)
    ms.derivative(state, trajectory)
    return median_us(lambda: ms.derivative(state, trajectory), reps)
