"""Per-layer spans and counters for lowform, recorded from outside the library.

``Tracer.install`` replaces each public function in ``TARGETS`` by a timing
wrapper at every place the library looks it up: the defining module or
class, and every ``lowform`` module that imported it.  ``uninstall`` puts the
originals back, so untraced requests run the library unchanged.

A span records its name, start, end, parent span and request id.  Spans are
kept in memory; the hot leaf functions in ``LEAVES`` are called up to
millions of times per request, so for them only totals are kept.  A span's
self time is its duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# metric prefix -> functions it covers, as (defining module, qualified name)
TARGETS = {
    "cli.main": [("lowform.cli", "main")],
    "detection.moment_matrix": [("lowform.detection", "moment_matrix")],
    "detection.extract_sparse_form": [("lowform.detection", "extract_sparse_form")],
    "detection.verify_sparse_form": [("lowform.detection", "verify_sparse_form")],
    "approx.ce_exact": [("lowform.approx", "conditional_expectation_exact")],
    "approx.build_cubature": [("lowform.approx", "build_cubature")],
    "approx.ce_cubature": [("lowform.approx", "conditional_expectation_cubature")],
    "approx.solve_Q": [("lowform.approx", "solve_Q")],
    "approx.l2_error": [("lowform.approx", "l2_error")],
    "polytope.cut_loop": [("lowform.polytope", "cut_loop")],
    "polytope.separation_lp": [("lowform.polytope", "separation_lp")],
    "sphere": [("lowform.sphere", "reduce_sphere"), ("lowform.sphere", "lift_minimizer")],
    "solvers.minimize_ball": [("lowform.solvers", "minimize_ball")],
    "solvers.minimize_sphere": [("lowform.solvers", "minimize_sphere")],
    "solvers.minimize_polytope": [("lowform.solvers", "minimize_polytope")],
    "solvers.lmo": [("lowform.solvers", "Hrep.lmo")],
    "linalg.lp_solve": [("lowform.linalg", "lp_solve")],
    "linalg.sym_eig": [("lowform.linalg", "sym_eig")],
    "poly.compose": [("lowform.poly", "Polynomial.compose")],
    "poly.mul": [("lowform.poly", "Polynomial.__mul__")],  # __rmul__ is the same function
    "poly.evaluate_many": [("lowform.poly", "Polynomial.evaluate_many")],
    "poly.evaluate": [("lowform.poly", "Polynomial.evaluate")],
    "poly.ball_moment": [("lowform.poly", "ball_monomial_moment")],
}
LEAVES = {"poly.mul", "poly.evaluate", "poly.ball_moment"}

# (name, unit) of every per-layer metric; "<target>.<calls|s|self_s|failed>"
# reads the target's totals, any other name reads a counter.
METRICS = [
    ("cli.main.self_s", "s"),
    ("detection.moment_matrix.calls", "count"),
    ("detection.moment_matrix.self_s", "s"),
    ("detection.extract_sparse_form.s", "s"),
    ("detection.verify_sparse_form.s", "s"),
    ("approx.ce_exact.s", "s"),
    ("approx.build_cubature.s", "s"),
    ("approx.ce_cubature.s", "s"),
    ("approx.cubature_nodes", "count"),
    ("approx.fhat_terms", "count"),
    ("approx.solve_Q.s", "s"),
    ("approx.l2_error.s", "s"),
    ("polytope.cut_loop.s", "s"),
    ("polytope.cut_rounds", "count"),
    ("polytope.separation_lp.calls", "count"),
    ("polytope.separation_lp.s", "s"),
    ("sphere.s", "s"),
    ("solvers.minimize_ball.s", "s"),
    ("solvers.minimize_sphere.s", "s"),
    ("solvers.minimize_polytope.calls", "count"),
    ("solvers.minimize_polytope.self_s", "s"),
    ("solvers.lmo.calls", "count"),
    ("solvers.starts_used", "count"),
    ("solvers.restart_share", "ratio"),
    ("solvers.max_iter_share", "ratio"),
    ("linalg.lp_solve.calls", "count"),
    ("linalg.lp_solve.s", "s"),
    ("linalg.lp_solve.failed", "count"),
    ("linalg.sym_eig.s", "s"),
    ("poly.compose.calls", "count"),
    ("poly.compose.s", "s"),
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.evaluate_many.points", "count"),
    ("poly.evaluate_many.s", "s"),
    ("poly.evaluate.calls", "count"),
    ("poly.ball_moment.calls", "count"),
    ("poly.ball_moment.s", "s"),
]
_FIELDS = {"calls": 0, "s": 1, "self_s": 2, "failed": 3}


class TracerError(RuntimeError):
    """A wrapped name is missing: the library changed under the tracer."""


def _lookup(module_name: str, qualname: str):
    """The function a dotted name refers to; raises TracerError if it is gone."""
    holder = sys.modules.get(module_name)
    if holder is None:
        raise TracerError(f"module {module_name} is not imported")
    *path, attr = qualname.split(".")
    try:
        for part in path:
            holder = getattr(holder, part)
        return vars(holder)[attr]
    except (AttributeError, KeyError) as exc:
        raise TracerError(f"{module_name}.{qualname} no longer exists") from exc


def _count(counter: str, measure):
    def hook(counters, fn, args, kwargs, result):
        counters[counter] += measure(result)

    return hook


def _solver_counts(counters, fn, args, kwargs, result) -> None:
    from lowform.solvers import SolveOptions

    opts = inspect.signature(fn).bind(*args, **kwargs).arguments.get("opts") or SolveOptions()
    counters["solvers.calls"] += 1
    counters["solvers.starts_used"] += result.starts_used
    counters["solvers.restarts"] += result.starts_used > opts.starts
    counters["solvers.max_iter"] += result.status == "max_iter"


# target -> hook(counters, fn, args, kwargs, result), for counts read off results
HOOKS = {
    "approx.build_cubature": _count("approx.cubature_nodes", lambda r: len(r.nodes)),
    "approx.ce_exact": _count("approx.fhat_terms", lambda r: len(r.poly.terms)),
    "approx.ce_cubature": _count("approx.fhat_terms", lambda r: len(r.poly.terms)),
    "polytope.cut_loop": _count("polytope.cut_rounds", lambda r: r.iterations),
    "solvers.minimize_ball": _solver_counts,
    "solvers.minimize_sphere": _solver_counts,
    "solvers.minimize_polytope": _solver_counts,
    "poly.evaluate_many": _count("poly.evaluate_many.points", len),
}


class Tracer:
    def __init__(self):
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, s, self_s, failed
        self.counters = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end)
        self.request = None
        self.sites: dict[str, set[str]] = {}  # target -> where it was patched
        self._stack: list[list] = []  # [span id, time in wrapped children]
        self._patched: list[tuple] = []
        self._ids = itertools.count()
        self._wrappers = self._build()

    def _build(self) -> dict:
        """Original function -> (target, wrapper); checks every name exists."""
        wrappers = {}
        for target, names in TARGETS.items():
            for module_name, qualname in names:
                fn = _lookup(module_name, qualname)
                wrappers[id(fn)] = (fn, target, self._wrap(target, fn))
        return wrappers

    def _wrap(self, target: str, fn):
        stack, totals = self._stack, self.totals
        agg = totals[target]
        hook = HOOKS.get(target)
        keep_span = target not in LEAVES

        def wrapper(*args, **kwargs):
            span_id = next(self._ids) if keep_span else None
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                agg[3] += failed
                if keep_span:
                    self.spans.append((span_id, parent, self.request, target, start, end))
            if hook:
                hook(self.counters, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every lowform module and class that holds a wrapped function."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "lowform"]
        classes = {id(v): v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("lowform")}
        for holder in modules + list(classes.values()):
            for attr, value in list(vars(holder).items()):
                entry = self._wrappers.get(id(value))
                if entry is None or entry[0] is not value:
                    continue
                fn, target, wrapper = entry
                self._patched.append((holder, attr, fn))
                setattr(holder, attr, wrapper)
                site = holder.__name__ if not isinstance(holder, type) \
                    else f"{holder.__module__}.{holder.__qualname__}"
                self.sites.setdefault(target, set()).add(f"{site}.{attr}")

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()


def layer_metrics(totals, counters) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every entry of METRICS."""
    out = {}
    for name, unit in METRICS:
        target, _, field = name.rpartition(".")
        if field in _FIELDS and target in TARGETS:
            value = totals[target][_FIELDS[field]]
        elif name == "solvers.restart_share":
            value = counters["solvers.restarts"] / max(counters["solvers.calls"], 1)
        elif name == "solvers.max_iter_share":
            value = counters["solvers.max_iter"] / max(counters["solvers.calls"], 1)
        else:
            value = counters[name]
        out[name] = (value, unit)
    return out
