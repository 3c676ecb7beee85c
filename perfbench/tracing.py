"""Per-layer tracing of susy_pt from outside the package, plus direct
timings of single layers.

The tracer wraps every public function of the six layer modules and
rebinds the wrapper in each susy_pt namespace that holds the function
(e.g. `verify.build_eigenfunction`, `wavefun.quadrature`), so internal
calls are seen too.  `src/` is not modified; uninstall() restores the
originals.  Spans (name, start, end, parent, operation) stay in memory
and are written out by dump().  A span's self time is its duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "verify", "wavefun", "ladder", "numeric", "model")
POTENTIALS = ("v_minus", "v_plus", "v_pt")
LADDER_OPS = ("lower", "raise_", "apply_delta", "build_from_ground",
              "factorization_residual", "commutator_check")


def _count_rows(counts, op, count, *args, **kwargs):
    counts["numeric.eigenvalues_lowest.rows"] += op.size
    counts["numeric.eigenvalues_lowest.row_eigs"] += op.size * count


def _count_nodes(counts, f, a, b, panels=64):
    counts["numeric.quadrature.nodes"] += 16 * panels


def _count_points(counts, wf, x):
    counts["wavefun.evaluate.points"] += np.size(x)


def _count_distinct(counts, params, n):
    counts.setdefault("wavefun.build_eigenfunction.keys", set()).add((params, n))


# work counters recorded at the layer boundary, keyed by span name
HOOKS = {
    "numeric.eigenvalues_lowest": _count_rows,
    "numeric.quadrature": _count_nodes,
    "wavefun.evaluate": _count_points,
    "wavefun.build_eigenfunction": _count_distinct,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # one entry per span, in start order
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts = defaultdict(int)
        self.op_index = -1
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- wrapping ------------------------------------------------------

    def wrap(self, name: str, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        nid = self.name_ids[name]
        hook = HOOKS.get(name)
        counts, stack, clock = self.counts, self._stack, time.perf_counter
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_op, calls, self_s = self.span_parent, self.span_op, self.calls, self.self_s

        def traced(*args, **kwargs):
            if hook is not None:
                hook(counts, *args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_op.append(self.op_index)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            span_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_end[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    def install(self, pkg):
        """Wrap the public functions of every layer module of pkg."""
        modules = [pkg] + [importlib.import_module(f"{pkg.__name__}.{layer}") for layer in LAYERS]
        for layer in LAYERS:
            mod = importlib.import_module(f"{pkg.__name__}.{layer}")
            for attr in getattr(mod, "__all__", ["main"]):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = "model.potential" if attr in POTENTIALS else f"{layer}.{attr}"
                wrapper = self.wrap(name, fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def stat(self, name: str):
        nid = self.name_ids.get(name)
        return (0, 0.0) if nid is None else (self.calls[nid], self.self_s[nid])

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, as (value, unit)."""
        m = {}

        def calls_self(name, with_calls=True):
            calls, self_s = self.stat(name)
            if with_calls:
                m[f"{name}.calls"] = (calls, "count")
            m[f"{name}.self_s"] = (self_s, "s")
            return calls, self_s

        c = self.counts
        calls, self_s = calls_self("numeric.eigenvalues_lowest")
        m["numeric.eigenvalues_lowest.rows"] = (c["numeric.eigenvalues_lowest.rows"], "count")
        row_eigs = c["numeric.eigenvalues_lowest.row_eigs"]
        m["numeric.eigenvalues_lowest.us_per_row_eig"] = (1e6 * self_s / row_eigs if row_eigs else 0.0, "us")
        calls_self("numeric.quadrature")
        m["numeric.quadrature.nodes"] = (c["numeric.quadrature.nodes"], "count")
        calls_self("numeric.log_gamma")
        calls_self("numeric.discretize_delta", with_calls=False)

        calls, _ = calls_self("wavefun.build_eigenfunction")
        distinct = len(c.get("wavefun.build_eigenfunction.keys", ()))
        m["wavefun.build_eigenfunction.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
        calls_self("wavefun.evaluate")
        m["wavefun.evaluate.points"] = (c["wavefun.evaluate.points"], "count")
        calls_self("wavefun.inner_product")
        m["wavefun.ground_state.calls"] = (self.stat("wavefun.ground_state")[0], "count")

        for op in LADDER_OPS:
            calls_self(f"ladder.{op}")
        calls_self("model.potential", with_calls=False)
        calls_self("cli.main")

        for layer in LAYERS:
            ids = [i for i, name in enumerate(self.names) if name.startswith(layer + ".")]
            m[f"{layer}.calls"] = (sum(self.calls[i] for i in ids), "count")
            m[f"{layer}.self_s"] = (sum(self.self_s[i] for i in ids), "s")
        return m

    def dump(self, path):
        """Write every span, columnar: parallel lists indexed by span."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.span_name,
                "start": self.span_start,
                "end": self.span_end,
                "parent": self.span_parent,
                "op": self.span_op,
            }, fh)


# ----------------------------------------------------------------------
# direct timings
# ----------------------------------------------------------------------

def _per_call(fn, repeats: int = 3, batch_s: float = 0.02) -> float:
    """Median over `repeats` batches of the seconds per call of fn."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        dt = time.perf_counter() - t0
        if dt >= batch_s:
            break
        number *= 4
    times = [dt / number]
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def roadmap_timings(pkg) -> dict:
    """The per-layer list of the ROADMAP north star, by direct calls to
    public functions at k = 2.5."""
    p = pkg.ModelParams(1.0, 1.0, 2.5)
    u16 = pkg.build_eigenfunction(p, 16)
    u15_up = pkg.build_eigenfunction(p.with_k(p.k + 1.0), 15)
    ctx = pkg.LadderContext(p, p.k)
    x = np.linspace(-p.half_width, p.half_width, 10_000)
    m = {
        "roadmap.log_gamma.us": (1e6 * _per_call(lambda: pkg.log_gamma(37.25)), "us"),
        "roadmap.build_eigenfunction.n0_16.ms": (
            1e3 * _per_call(lambda: [pkg.build_eigenfunction(p, n) for n in range(17)]), "ms"),
        "roadmap.build_eigenfunction.n64.ms": (1e3 * _per_call(lambda: pkg.build_eigenfunction(p, 64)), "ms"),
        "roadmap.evaluate.1e4pts.ms": (1e3 * _per_call(lambda: pkg.evaluate(u16, x)), "ms"),
        "roadmap.inner_product.n16.ms": (1e3 * _per_call(lambda: pkg.inner_product(u16, u16)), "ms"),
        "roadmap.lower.us": (1e6 * _per_call(lambda: pkg.lower(ctx, u16)), "us"),
        "roadmap.raise_.us": (1e6 * _per_call(lambda: pkg.raise_(ctx, u15_up)), "us"),
    }
    op4096 = pkg.discretize_delta(p, "minus", 4096)
    m["roadmap.sturm_count.N4096.ms"] = (1e3 * _per_call(lambda: pkg.sturm_count(op4096, 100.0)), "ms")
    for n_points in (1024, 4096, 16384):
        op = pkg.discretize_delta(p, "minus", n_points)
        m[f"roadmap.eigenvalues_lowest5.N{n_points}.ms"] = (
            1e3 * _per_call(lambda: pkg.eigenvalues_lowest(op, 5)), "ms")
    return m


def suite_timings(pkg, suite_names, repeats: int = 3) -> dict:
    """Wall time of run_all(suites=[name]) per suite, their sum, and one
    whole run_all(); the sum exceeds the whole run by the work suites
    could share."""
    m = {}
    for name in suite_names:
        m[f"verify.suite.{name}.s"] = (
            statistics.median(_timed(lambda: pkg.run_all(suites=[name])) for _ in range(repeats)), "s")
    m["verify.suites_sum.s"] = (sum(v for v, _ in m.values()), "s")
    m["verify.run_all.s"] = (statistics.median(_timed(pkg.run_all) for _ in range(repeats)), "s")
    return m


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
