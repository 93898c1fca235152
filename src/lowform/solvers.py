"""Desk-scale minimization of polynomials on balls, spheres, and polyhedra.

All solvers are multi-start local methods: projected gradient descent with
Armijo backtracking on the ball and sphere, and Frank-Wolfe on polyhedra.  The
Frank-Wolfe linear-minimization oracle scans a vertex table, enumerated once
per region in dimension <= 3, and solves one LP per call otherwise.  A
brute-force sampler plus local polish serves as the independent oracle that
anchors equivalence tests.

Determinism: all randomness flows through a single seeded generator and
candidate results are reduced by (value, lexicographic point), so identical
(problem, options, seed) triples give bitwise-identical results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import LpProblem, lp_solve
from .poly import Polynomial
from .sampling import sample_ball, sample_sphere

# Armijo backtracking parameters, fixed across all solvers.
ARMIJO_INIT = 1.0
ARMIJO_SHRINK = 0.5
ARMIJO_DECREASE = 1e-4
_MIN_STEP = 1e-16

# If the two best multi-start values disagree by more than this, the start
# count is doubled once.
_RESTART_GAP = 1e-4

_BOUNDARY_EPS = 1e-13

# Vertex-table limits: larger regions answer every LMO call with an LP.
_TABLE_MAX_DIM = 3
_TABLE_MAX_SUBSETS = 30_000
# Row subsets whose unit-normalized determinant is below this are singular.
_SINGULAR_DET = 1e-12
# Slack, relative to 1 + |rhs| of a unit-normalized row, for keeping a vertex.
_VERTEX_TOL = 1e-9


class InfeasibleRegionError(ValueError):
    pass


class UnboundedRegionError(ValueError):
    pass


@dataclass(frozen=True)
class SolveOptions:
    starts: int = 32
    max_iter: int = 500
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.starts <= 0 or self.max_iter <= 0 or self.tol <= 0:
            raise ValueError("starts, max_iter and tol must all be positive")


@dataclass
class SolveResult:
    value: float
    point: np.ndarray
    status: str  # "converged" | "max_iter" | "infeasible"
    iterations: int
    starts_used: int


@dataclass
class _VRepRegion:
    """Convex hull of finitely many points, with an enumeration LMO."""

    points: np.ndarray

    def lmo(self, direction: np.ndarray) -> np.ndarray:
        scores = self.points @ np.asarray(direction, dtype=float)
        return self.points[int(np.argmin(scores))].copy()

    def start_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        weights = rng.dirichlet(np.ones(len(self.points)), size=count)
        return weights @ self.points


@dataclass
class Hrep:
    """Inequality-form region {x : a_ub @ x <= b_ub, lo <= x <= hi}.

    The box part is mandatory so that linear minimization is always bounded.
    In dimension <= 3 with a finite box, the first :meth:`lmo` call
    enumerates the vertices into a table and every call scans it; the fields
    must not change after that.  Otherwise each call solves one LP.
    """

    a_ub: np.ndarray
    b_ub: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float).reshape(-1)
        self.hi = np.asarray(self.hi, dtype=float).reshape(-1)
        dim = self.lo.size
        self.a_ub = np.asarray(self.a_ub, dtype=float).reshape(-1, dim)
        self.b_ub = np.asarray(self.b_ub, dtype=float).reshape(-1)
        if self.b_ub.size != self.a_ub.shape[0]:
            raise ValueError("a_ub and b_ub disagree on row count")

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains(self, x: np.ndarray, tol: float = 1e-8) -> bool:
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lo - tol) or np.any(x > self.hi + tol):
            return False
        if self.a_ub.shape[0] and np.any(self.a_ub @ x > self.b_ub + tol):
            return False
        return True

    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """All constraints as rows @ x <= rhs: a_ub, then x <= hi, then -x <= -lo."""
        eye = np.eye(self.dim)
        rows = np.vstack([self.a_ub, eye, -eye])
        rhs = np.concatenate([self.b_ub, self.hi, -self.lo])
        return rows, rhs

    def lmo(self, direction: np.ndarray) -> np.ndarray:
        """Vertex minimizing direction @ x over the region."""
        table = self._vertex_table
        if table is not None:
            return table.lmo(direction)
        return self._lp_lmo(direction)

    def _lp_lmo(self, direction: np.ndarray) -> np.ndarray:
        prob = LpProblem(
            c=np.asarray(direction, dtype=float),
            a_ub=self.a_ub if self.a_ub.shape[0] else None,
            b_ub=self.b_ub if self.b_ub.size else None,
            bounds=list(zip(self.lo, self.hi)),
        )
        res = lp_solve(prob)
        if res.status == "infeasible":
            raise InfeasibleRegionError("region is empty")
        if res.status == "unbounded":
            raise UnboundedRegionError("region is unbounded")
        return res.point

    @cached_property
    def _vertex_table(self) -> _VRepRegion | None:
        """The feasible solutions of every regular dim-subset of the halfspaces.

        Every vertex of the bounded region solves some such subset, so the
        table's hull is the region.  None routes :meth:`lmo` to the LP: the
        region is too large for a table or has an infinite bound, or the table
        came out empty although the LP finds a feasible point.  An empty table
        whose region the LP confirms empty raises InfeasibleRegionError.
        """
        dim = self.dim
        rows, rhs = self.halfspaces()
        if (
            dim > _TABLE_MAX_DIM
            or math.comb(rows.shape[0], dim) > _TABLE_MAX_SUBSETS
            or not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all())
        ):
            return None
        norms = np.linalg.norm(rows, axis=1)
        norms[norms == 0.0] = 1.0
        rows, rhs = rows / norms[:, None], rhs / norms
        subsets = np.array(list(itertools.combinations(range(rows.shape[0]), dim)))
        mats = rows[subsets]
        regular = np.abs(np.linalg.det(mats)) > _SINGULAR_DET
        points = np.linalg.solve(mats[regular], rhs[subsets[regular]][..., None])[..., 0]
        slack = _VERTEX_TOL * (1.0 + np.abs(rhs))
        points = points[np.all(points @ rows.T <= rhs + slack, axis=1)]
        if points.shape[0] == 0:
            self._lp_lmo(np.zeros(dim))
            return None
        return _VRepRegion(points)

    def _vertex_mixtures(self, rng: np.random.Generator, count: int) -> np.ndarray:
        num_dirs = max(2 * self.dim, 8)
        verts = [self.lmo(rng.standard_normal(self.dim)) for _ in range(num_dirs)]
        verts = np.array(verts)
        weights = rng.dirichlet(np.ones(len(verts)), size=count)
        return weights @ verts

    def start_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Feasible starts: uniform box rejection plus vertex mixtures."""
        cand = rng.uniform(self.lo, self.hi, size=(max(4 * count, 64), self.dim))
        if self.a_ub.shape[0]:
            cand = cand[np.all(cand @ self.a_ub.T <= self.b_ub + 1e-12, axis=1)]
        if cand.shape[0] >= count:
            return cand[:count]
        mixtures = self._vertex_mixtures(rng, count - cand.shape[0])
        return np.vstack([cand, mixtures]) if cand.size else mixtures


def _array_form(p: Polynomial):
    if not p.terms:
        return np.zeros((0, p.num_vars), dtype=np.int64), np.zeros(0)
    exps = np.array(list(p.terms.keys()), dtype=np.int64)
    coefs = np.array(list(p.terms.values()))
    return exps, coefs


def _make_evaluator(p: Polynomial):
    """Array-based value/gradient evaluators for a fixed polynomial.

    A per-variable power table is built once per point and shared by the
    objective and all partial derivatives, which keeps the inner solver loops
    out of Python-level term iteration.
    """
    n = p.num_vars
    obj_form = _array_form(p)
    grad_forms = [_array_form(q) for q in p.gradient()]
    all_forms = [obj_form] + grad_forms
    max_deg = max((int(e.max()) if e.size else 0) for e, _ in all_forms)
    var_idx = np.arange(n)

    def _powers(x: np.ndarray) -> np.ndarray:
        powers = np.ones((max_deg + 1, n))
        for k in range(1, max_deg + 1):
            powers[k] = powers[k - 1] * x
        return powers

    def _eval_form(form, powers) -> float:
        exps, coefs = form
        if not exps.size:
            return 0.0
        return float(coefs @ np.prod(powers[exps, var_idx], axis=1))

    def value(x: np.ndarray) -> float:
        return _eval_form(obj_form, _powers(np.asarray(x, dtype=float)))

    def grad(x: np.ndarray) -> np.ndarray:
        powers = _powers(np.asarray(x, dtype=float))
        return np.array([_eval_form(f, powers) for f in grad_forms])

    return value, grad


def _project_ball(x: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(x))
    return x / norm if norm > 1.0 else x


def _bb_step(s: np.ndarray, y: np.ndarray, fallback: float) -> float:
    # Spectral (Barzilai-Borwein) trial step, clamped to a sane range; the
    # Armijo test below keeps descent monotone regardless.
    sy = float(s @ y)
    if sy <= 0.0:
        return fallback
    t = float(s @ s) / sy
    return min(max(t, 1e-12), 1e6)


def _pgd(value, grad, project, x0, max_iter, tol, trace=None):
    """Projected descent with BB trial steps under a monotone Armijo test.

    Exits "converged" either at projected-gradient norm < tol or when no step
    achieves sufficient decrease at float resolution (numerically stationary).
    """
    x = project(np.array(x0, dtype=float))
    fx = value(x)
    if trace is not None:
        trace.append(fx)
    g = grad(x)
    trial = ARMIJO_INIT
    for it in range(1, max_iter + 1):
        pg = x - project(x - g)
        if np.linalg.norm(pg) < tol:
            return x, fx, it, True
        t = trial
        accepted = False
        while t >= _MIN_STEP:
            cand = project(x - t * g)
            fc = value(cand)
            if fc < fx + ARMIJO_DECREASE * float(g @ (cand - x)):
                accepted = True
                break
            t *= ARMIJO_SHRINK
        if not accepted:
            return x, fx, it, True
        g_new = grad(cand)
        trial = _bb_step(cand - x, g_new - g, 2.0 * t)
        x, fx, g = cand, fc, g_new
        if trace is not None:
            trace.append(fx)
    return x, fx, max_iter, False


def _pgd_ball(value, grad, x0, max_iter, tol, trace=None):
    return _pgd(value, grad, _project_ball, x0, max_iter, tol, trace=trace)


def _reflect_half(x: np.ndarray, half: str) -> np.ndarray:
    if half == "y_nonneg" and x[-1] < 0:
        x = x.copy()
        x[-1] = -x[-1]
    elif half == "y_nonpos" and x[-1] > 0:
        x = x.copy()
        x[-1] = -x[-1]
    return x


def _half_tangent(x, g, half):
    gt = g - float(g @ x) * x
    # On the half-sphere boundary the blocked tangent component does not
    # count toward stationarity.
    if half == "y_nonneg" and abs(x[-1]) <= _BOUNDARY_EPS and gt[-1] > 0:
        gt = gt.copy()
        gt[-1] = 0.0
    elif half == "y_nonpos" and abs(x[-1]) <= _BOUNDARY_EPS and gt[-1] < 0:
        gt = gt.copy()
        gt[-1] = 0.0
    return gt


def _pgd_sphere(value, grad, x0, max_iter, tol, half="none", trace=None):
    x = np.array(x0, dtype=float)
    x = x / np.linalg.norm(x)
    x = _reflect_half(x, half)
    fx = value(x)
    if trace is not None:
        trace.append(fx)
    gt = _half_tangent(x, grad(x), half)
    trial = ARMIJO_INIT
    for it in range(1, max_iter + 1):
        gnorm = float(np.linalg.norm(gt))
        if gnorm < tol:
            return x, fx, it, True
        t = trial
        accepted = False
        while t >= _MIN_STEP:
            cand = x - t * gt
            cand = cand / np.linalg.norm(cand)
            cand = _reflect_half(cand, half)
            fc = value(cand)
            if fc < fx - ARMIJO_DECREASE * t * gnorm**2:
                accepted = True
                break
            t *= ARMIJO_SHRINK
        if not accepted:
            return x, fx, it, True
        gt_new = _half_tangent(cand, grad(cand), half)
        trial = _bb_step(cand - x, gt_new - gt, 2.0 * t)
        x, fx, gt = cand, fc, gt_new
        if trace is not None:
            trace.append(fx)
    return x, fx, max_iter, False


def _frank_wolfe(value, grad, lmo, x0, max_iter, tol, trace=None):
    x = np.array(x0, dtype=float)
    fx = value(x)
    if trace is not None:
        trace.append(fx)
    for it in range(1, max_iter + 1):
        g = grad(x)
        v = lmo(g)
        gap = float(g @ (x - v))
        if gap < tol:
            return x, fx, it, True
        d = v - x
        t = ARMIJO_INIT
        accepted = False
        while t >= _MIN_STEP:
            cand = x + t * d
            fc = value(cand)
            if fc < fx - ARMIJO_DECREASE * t * gap:
                accepted = True
                break
            t *= ARMIJO_SHRINK
        if not accepted:
            return x, fx, it, True
        x, fx = cand, fc
        if trace is not None:
            trace.append(fx)
    return x, fx, max_iter, False


def _best_candidate(candidates):
    # (value, lexicographic point) ordering keeps multi-start reductions
    # deterministic even under exact value ties.
    return min(candidates, key=lambda c: (c[1], tuple(c[0])))


def _multi_start(run_one, draw_starts, opts: SolveOptions) -> SolveResult:
    rng = np.random.default_rng(opts.seed)
    starts = draw_starts(rng, opts.starts)
    candidates = [run_one(x0) for x0 in starts]
    ordered = sorted(candidates, key=lambda c: (c[1], tuple(c[0])))
    starts_used = opts.starts
    if len(ordered) >= 2 and abs(ordered[0][1] - ordered[1][1]) > _RESTART_GAP:
        extra = draw_starts(rng, opts.starts)
        candidates += [run_one(x0) for x0 in extra]
        starts_used += opts.starts
    x, fx, iters, converged = _best_candidate(candidates)
    return SolveResult(
        value=float(fx),
        point=np.asarray(x, dtype=float),
        status="converged" if converged else "max_iter",
        iterations=iters,
        starts_used=starts_used,
    )


def minimize_ball(p: Polynomial, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize p over the closed unit ball in p.num_vars dimensions."""
    opts = opts or SolveOptions()
    value, grad = _make_evaluator(p)
    dim = p.num_vars

    def run_one(x0):
        return _pgd_ball(value, grad, x0, opts.max_iter, opts.tol)

    res = _multi_start(run_one, lambda rng, k: sample_ball(rng, k, dim), opts)
    res.value = p.evaluate(res.point)
    return res


def minimize_sphere(
    p: Polynomial, opts: SolveOptions | None = None, half: str = "none"
) -> SolveResult:
    """Minimize p over the unit sphere, optionally on a half-sphere.

    ``half`` constrains the sign of the last coordinate: "y_nonneg",
    "y_nonpos", or "none".
    """
    if half not in ("none", "y_nonneg", "y_nonpos"):
        raise ValueError(f"unknown half-sphere constraint {half!r}")
    opts = opts or SolveOptions()
    value, grad = _make_evaluator(p)
    dim = p.num_vars

    def run_one(x0):
        return _pgd_sphere(value, grad, x0, opts.max_iter, opts.tol, half)

    def draw(rng, k):
        pts = sample_sphere(rng, k, dim)
        if half != "none":
            pts = np.array([_reflect_half(x, half) for x in pts])
        return pts

    res = _multi_start(run_one, draw, opts)
    res.value = p.evaluate(res.point)
    return res


def minimize_polytope(p: Polynomial, region, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize p over a polyhedral region by multi-start Frank-Wolfe.

    ``region`` must expose ``lmo(direction) -> vertex`` and
    ``start_points(rng, count) -> array``; both :class:`Hrep` and the
    standard-form polytope type satisfy this.  Half of the starts are taken
    from the best points of a sampled sweep of the objective, which keeps
    deep, narrow basins from being missed; the rest stay exploratory.
    """
    opts = opts or SolveOptions()
    value, grad = _make_evaluator(p)

    def run_one(x0):
        return _frank_wolfe(value, grad, region.lmo, x0, opts.max_iter, opts.tol)

    def draw(rng, count):
        pool = np.asarray(region.start_points(rng, max(64 * count, 1024)))
        order = np.argsort(p.evaluate_many(pool))
        informed = pool[order[: max(count // 2, 1)]]
        rest = count - informed.shape[0]
        if rest <= 0:
            return informed[:count]
        diverse = np.asarray(region.start_points(rng, rest))
        return np.vstack([informed, diverse])

    res = _multi_start(run_one, draw, opts)
    res.value = p.evaluate(res.point)
    return res


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------

_POLISH_STEPS = 50
_POLISH_FROM = 10
_ORACLE_MAX_DIM_ROUND = 6
_ORACLE_MAX_DIM_POLY = 8


def _segment_argmin(p: Polynomial, x: np.ndarray, d: np.ndarray) -> float:
    """Exact minimizer of t -> p(x + t d) over [0, 1].

    The restriction is a univariate polynomial of p's degree; it is recovered
    by interpolation and minimized over the roots of its derivative plus the
    endpoints.  Candidates are compared by direct evaluation, so root
    inaccuracy cannot produce a wrong winner.
    """
    deg = p.degree()
    ts = np.linspace(0.0, 1.0, deg + 1)
    pts = x[None, :] + ts[:, None] * d[None, :]
    vals = p.evaluate_many(pts)
    coeffs = np.polynomial.polynomial.polyfit(ts, vals, deg)
    deriv = np.polynomial.polynomial.polyder(coeffs)
    candidates = [0.0, 1.0]
    if deriv.size > 1:
        roots = np.polynomial.polynomial.polyroots(deriv)
        for r in roots:
            if abs(r.imag) < 1e-10 and -1e-12 <= r.real <= 1.0 + 1e-12:
                candidates.append(min(max(float(r.real), 0.0), 1.0))
    cand_pts = x[None, :] + np.array(candidates)[:, None] * d[None, :]
    cand_vals = p.evaluate_many(cand_pts)
    return candidates[int(np.argmin(cand_vals))]


def _fw_polish(p: Polynomial, grad, lmo, x0: np.ndarray, steps: int) -> float:
    """Frank-Wolfe polish with exact segment line searches."""
    x = np.array(x0, dtype=float)
    fx = float(p.evaluate(x))
    for _ in range(steps):
        g = grad(x)
        v = lmo(g)
        gap = float(g @ (x - v))
        if gap < 1e-14:
            break
        t = _segment_argmin(p, x, v - x)
        cand = x + t * (v - x)
        fc = float(p.evaluate(cand))
        if fc >= fx:
            break
        x, fx = cand, fc
    return fx


def _project_simplex(z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the canonical simplex {x >= 0, sum x = 1}."""
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, z.size + 1)
    cond = u - css / ks > 0
    k = int(ks[cond][-1])
    tau = css[k - 1] / k
    return np.maximum(z - tau, 0.0)


def _hrep_projector(region: Hrep):
    """Exact Euclidean projection onto a small H-rep region, or None.

    With no inequality rows the projection is a box clamp.  Otherwise all
    constraints (rows plus finite bounds) are enumerated as candidate active
    sets of size <= dim, which is exact but only tractable for a handful of
    constraints in low dimension.
    """
    lo, hi = region.lo, region.hi
    if region.a_ub.shape[0] == 0:
        return lambda z: np.clip(z, lo, hi)
    dim = region.dim
    rows, rhs = region.halfspaces()
    if dim > 3 or len(rows) > 40:
        return None

    def feasible(x):
        return bool(np.all(rows @ x <= rhs + 1e-9))

    subsets = []
    for size in range(1, dim + 1):
        subsets.extend(itertools.combinations(range(len(rows)), size))

    def project(z):
        if feasible(z):
            return np.asarray(z, dtype=float)
        best = None
        best_d = np.inf
        for subset in subsets:
            a = rows[list(subset)]
            gram = a @ a.T
            if abs(np.linalg.det(gram)) < 1e-12:
                continue
            x = z - a.T @ np.linalg.solve(gram, a @ z - rhs[list(subset)])
            if feasible(x):
                d = float(np.linalg.norm(x - z))
                if d < best_d:
                    best, best_d = x, d
        return best if best is not None else np.clip(z, lo, hi)

    return project


def _is_canonical_simplex(domain) -> bool:
    return (
        domain.a.shape[0] == 1
        and np.allclose(domain.a, 1.0)
        and domain.b.size == 1
        and abs(float(domain.b[0]) - 1.0) < 1e-12
    )


def brute_force_min(
    p: Polynomial, domain, resolution: int = 100_000, seed: int = 0
) -> float:
    """Independent low-dimensional oracle: dense sampling plus local polish.

    ``domain`` is "ball", "sphere", an :class:`Hrep`, or a standard-form
    polytope object exposing ``sample(rng, count)`` and ``lmo``.  The best
    ``_POLISH_FROM`` sampled points each get ``_POLISH_STEPS`` local steps.
    """
    rng = np.random.default_rng(seed)
    value, grad = _make_evaluator(p)

    if domain in ("ball", "sphere"):
        dim = p.num_vars
        if dim > _ORACLE_MAX_DIM_ROUND:
            raise ValueError(f"oracle limited to dimension {_ORACLE_MAX_DIM_ROUND}")
        sampler = sample_ball if domain == "ball" else sample_sphere
        pts = sampler(rng, int(resolution), dim)
        vals = p.evaluate_many(pts)
        best_idx = np.argsort(vals)[:_POLISH_FROM]
        best = float(vals[best_idx[0]])
        for i in best_idx:
            if domain == "ball":
                _, fx, _, _ = _pgd_ball(value, grad, pts[i], _POLISH_STEPS, 1e-12)
            else:
                _, fx, _, _ = _pgd_sphere(value, grad, pts[i], _POLISH_STEPS, 1e-12)
            best = min(best, fx)
        return best

    if isinstance(domain, Hrep):
        if domain.dim > _ORACLE_MAX_DIM_POLY:
            raise ValueError(f"oracle limited to dimension {_ORACLE_MAX_DIM_POLY}")
        pts = _sample_hrep(domain, rng, int(resolution))
        vals = p.evaluate_many(pts)
        best_idx = np.argsort(vals)[:_POLISH_FROM]
        best = float(vals[best_idx[0]])
        project = _hrep_projector(domain)
        for i in best_idx:
            if project is not None:
                _, fx, _, _ = _pgd(value, grad, project, pts[i], _POLISH_STEPS, 1e-12)
            else:
                fx = _fw_polish(p, grad, domain.lmo, pts[i], _POLISH_STEPS)
            best = min(best, fx)
        return best

    # standard-form polytope (duck-typed): sampled mixtures plus local polish
    if hasattr(domain, "sample") and hasattr(domain, "lmo"):
        if p.num_vars > 3 * _ORACLE_MAX_DIM_POLY:
            raise ValueError("oracle limited to desk-scale polytopes")
        pts = domain.sample(rng, int(resolution))
        vals = p.evaluate_many(pts)
        best_idx = np.argsort(vals)[:_POLISH_FROM]
        best = float(vals[best_idx[0]])
        simplex = _is_canonical_simplex(domain)
        for i in best_idx:
            if simplex:
                _, fx, _, _ = _pgd(value, grad, _project_simplex, pts[i], _POLISH_STEPS, 1e-12)
            else:
                fx = _fw_polish(p, grad, domain.lmo, pts[i], _POLISH_STEPS)
            best = min(best, fx)
        return best

    raise ValueError(f"unsupported oracle domain {domain!r}")


def _sample_hrep(region: Hrep, rng: np.random.Generator, count: int) -> np.ndarray:
    """Rejection sampling from the bounding box, topped up with vertex mixes."""
    out = []
    total = 0
    attempts = 0
    while total < count and attempts < 50:
        cand = rng.uniform(region.lo, region.hi, size=(count, region.dim))
        if region.a_ub.shape[0]:
            keep = cand[np.all(cand @ region.a_ub.T <= region.b_ub + 1e-12, axis=1)]
        else:
            keep = cand
        if keep.size:
            out.append(keep)
            total += keep.shape[0]
        attempts += 1
    if total < count:
        out.append(region.start_points(rng, count - total))
    return np.vstack(out)[:count]
