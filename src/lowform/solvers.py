"""Desk-scale minimization of polynomials on balls, spheres, and polyhedra.

All solvers are multi-start local methods: projected gradient descent with
Armijo backtracking on the ball and sphere, and pairwise Frank-Wolfe with an
exact step on polyhedra.  The ball solver also minimizes the surrogate's
problem Q (:func:`lowform.approx.solve_Q`).  Objective values and gradients
come from one :class:`~lowform.poly.GradientEvaluator` per solve, a monomial
tree over p and its partials filled once per point.  The ball and sphere
descents run all their starts in lockstep, as the rows of one (starts, m)
array: each round makes every unfinished start's next Armijo trial in one
batched evaluation and drops the starts that finished.  A start stops when
its projected gradient is small or when a rejected trial predicts a decrease
below the rounding of p's value at its point, a test relative to p's scale.
Frank-Wolfe runs its starts one after another, each a random mixture of the
vertices that the region's linear-minimization oracle returns for one draw
of directions, all in one oracle call, so a region needs nothing but that
oracle.  The oracle scans a :class:`VertexTable`, which an H-rep region
builds once, by enumerating row subsets or, above a cap, by qhull after one
LP, and :func:`basic_feasible_solutions` enumerates the vertices of a
standard-form polytope in one batched solve, each with its basis, from which
:mod:`lowform.polytope` reads simplex dual certificates in place of LPs.  A
:class:`Zonotope`, the image of a box, answers in closed form.  The
brute-force oracle that checks these solvers lives with the tests, apart
from the code it checks.

Determinism: all randomness flows through a single seeded generator and
candidate results are reduced by (value, lexicographic point), so identical
(problem, options, seed) triples give bitwise-identical results.  In a
lockstep descent each start computes exactly what a one-start run would:
every value, gradient, dot product and norm of a row is taken by one
matrix-vector product or ddot per row, never by a matrix product whose
summation order could depend on the other rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import LpProblem, lp_solve
from .poly import GradientEvaluator, Polynomial
from .sampling import sample_ball, sample_sphere

# Armijo backtracking parameters of the projected-gradient solvers.
ARMIJO_INIT = 1.0
ARMIJO_SHRINK = 0.5
ARMIJO_DECREASE = 1e-4
# A rejected trial whose predicted decrease |grad . (cand - x)| is at most
# this many rounding units of p's rounding scale at x ends its start: no
# step lowers p there at float resolution.
_NOISE_ULPS = 64

# If the two best multi-start values disagree by more than this, the start
# count is doubled once.
_RESTART_GAP = 1e-4

# Leading coefficients of a fitted restriction's derivative this small,
# relative to its largest, are rounding noise and are left out of the root
# search.
_FIT_NOISE = 1e-12

# Most row subsets a vertex table enumerates (qhull builds larger H-rep ones).
_TABLE_MAX_SUBSETS = 30_000
# Row subsets whose unit-normalized determinant is below this are singular.
_SINGULAR_DET = 1e-12
# Slack, relative to 1 + |rhs| of a unit-normalized row, for keeping a
# basic solution of a standard-form polytope.
_VERTEX_TOL = 1e-9
# Least slack, relative to 1 + |rhs| of a unit-normalized row, of a center
# that qhull builds a table from: nearer a row, HiGHS's tolerance (1e-7) blurs
# it and qhull's vertices lose about 1e-17 / slack.  Such a region is flat.
_QHULL_MIN_SLACK = 1e-6
# Slack for keeping an H-rep vertex, relative to the rounding scale
# 1 + |rhs| + |row| @ |x| of its test against each row: a few rounding units,
# so that a vertex of a looser row just outside a tighter one is left out.
_ROUNDING_TOL = 1e-12


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
        if self.starts <= 0 or self.max_iter <= 0 or not 0.0 < self.tol < math.inf:
            raise ValueError("starts and max_iter must be positive, tol finite and positive")


@dataclass
class SolveResult:
    value: float
    point: np.ndarray
    status: str  # "converged" | "max_iter" | "infeasible"
    iterations: int
    starts_used: int


@dataclass
class VertexTable:
    """Convex hull of the rows of ``points``; a scan of them answers the LMO.

    Rows need not all be extreme points of the hull: a repeated or inner row
    only lengthens the scan.
    """

    points: np.ndarray

    def lmo(self, direction: np.ndarray) -> np.ndarray:
        """The first row least along ``direction``, or one such row per
        direction of a stack along the last axis, in one product that
        scores every direction by its own matrix-vector product."""
        scores = np.matmul(self.points, np.asarray(direction, dtype=float)[..., None])[..., 0]
        return np.take(self.points, np.argmin(scores, axis=-1), axis=0)


@dataclass
class Zonotope:
    """The image ell^T [-1, 1]^n of the box under the (n, m) matrix ell.

    Its linear minimization oracle is closed-form: ell^T x over the box is
    least in direction c at x = -sign(ell c), for each of a stack of
    directions by its own products.
    """

    ell: np.ndarray

    def lmo(self, direction: np.ndarray) -> np.ndarray:
        signs = np.sign(np.matmul(self.ell, np.asarray(direction)[..., None]))
        return -np.matmul(signs.swapaxes(-1, -2), self.ell)[..., 0, :]


def _solve_regular(mats: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the regular systems mats[k] @ x = rhs[k] and, in one
    batched call, their solutions.

    A system is regular when |det mats[k]| exceeds ``_SINGULAR_DET``, a
    threshold that presumes unit-normalized rows.
    """
    regular = np.abs(np.linalg.det(mats)) > _SINGULAR_DET
    return regular, np.linalg.solve(mats[regular], rhs[regular][..., None])[..., 0]


def basic_feasible_solutions(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The vertices of {x >= 0 : a @ x = b} as the rows of a table, and
    their bases.

    Every s-column subset B of the s-row matrix a with a regular a_B gives
    the basic solution x_B = a_B^-1 b, zero elsewhere.  The solutions within
    ``_VERTEX_TOL`` of x >= 0 and of a @ x = b are kept, clipped at 0, in
    subset order; a degenerate vertex appears once per basis.  Returns
    (points, bases), with bases[i] the subset B of points[i].  A
    row-rank-deficient a has no regular subset, so its table is empty.
    None when the C(n, s) subsets exceed ``_TABLE_MAX_SUBSETS``.
    """
    s, n = a.shape
    count = math.comb(n, s)
    if count > _TABLE_MAX_SUBSETS:
        return None
    norms = np.linalg.norm(a, axis=1)
    norms[norms == 0.0] = 1.0
    a, b = a / norms[:, None], b / norms
    subsets = np.array(list(itertools.combinations(range(n), s)), dtype=np.intp)
    subsets = subsets.reshape(count, s)
    regular, x_basic = _solve_regular(
        a[:, subsets].transpose(1, 0, 2), np.broadcast_to(b, subsets.shape)
    )
    points = np.zeros((x_basic.shape[0], n))
    np.put_along_axis(points, subsets[regular], x_basic, axis=1)
    scale = 1.0 + np.abs(points).max(axis=1, initial=0.0)
    keep = np.all(points >= -_VERTEX_TOL * scale[:, None], axis=1) & np.all(
        np.abs(points @ a.T - b) <= _VERTEX_TOL * (1.0 + np.abs(b)), axis=1
    )
    return np.maximum(points[keep], 0.0), subsets[regular][keep]


@dataclass
class Hrep:
    """Inequality-form region {x : a_ub @ x <= b_ub, lo <= x <= hi}.

    The box part is mandatory and finite, so the region is bounded; a
    non-finite bound raises UnboundedRegionError, a ValueError, at
    construction, as do a non-finite entry of a_ub or b_ub and any array of
    the wrong shape.  The first :meth:`lmo` call builds the region's
    :class:`VertexTable` and every call scans it; the fields must not change
    after that.
    """

    a_ub: np.ndarray
    b_ub: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.ndim != 1 or self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must be vectors of one length")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise UnboundedRegionError("lo and hi must be finite")
        self.a_ub = np.asarray(self.a_ub, dtype=float)
        if self.a_ub.size == 0:
            self.a_ub = self.a_ub.reshape(0, self.dim)
        if self.a_ub.ndim != 2 or self.a_ub.shape[1] != self.dim:
            raise ValueError(f"a_ub must be a matrix with {self.dim} columns")
        self.b_ub = np.asarray(self.b_ub, dtype=float)
        if self.b_ub.shape != self.a_ub.shape[:1]:
            raise ValueError("b_ub must have one entry per row of a_ub")
        finite = np.isfinite(self.a_ub).all() and np.isfinite(self.b_ub).all()
        if not finite or np.any(self.lo > self.hi):
            raise ValueError("a_ub and b_ub must be finite, and lo <= hi")

    @property
    def dim(self) -> int:
        return self.lo.size

    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """All constraints as rows @ x <= rhs: a_ub, then x <= hi, then -x <= -lo."""
        eye = np.eye(self.dim)
        rows = np.vstack([self.a_ub, eye, -eye])
        rhs = np.concatenate([self.b_ub, self.hi, -self.lo])
        return rows, rhs

    def lmo(self, direction: np.ndarray) -> np.ndarray:
        """Vertex minimizing direction @ x over the region, or one per
        direction of a stack: a table scan."""
        return self._vertex_table.lmo(direction)

    @cached_property
    def _vertex_table(self) -> VertexTable:
        """Points of the region, its vertices among them, as a table.

        Up to ``_TABLE_MAX_SUBSETS`` dim-subsets of the halfspaces, and in
        dimension 1, it holds the regular subsets' solutions that satisfy
        every halfspace.  Above, qhull intersects the halfspaces around the
        Chebyshev center (one LP), unless the center is within
        ``_QHULL_MIN_SLACK`` of a row: only subsets handle a flat region.  An
        empty subset table takes the center LP's point, or raises
        InfeasibleRegionError when the LP finds the region empty.
        """
        dim = self.dim
        rows, rhs = self.halfspaces()
        norms = np.linalg.norm(rows, axis=1)
        nonzero = norms > 0.0
        norms[~nonzero] = 1.0
        rows, rhs = rows / norms[:, None], rhs / norms
        center = None
        if dim > 1 and math.comb(rows.shape[0], dim) > _TABLE_MAX_SUBSETS:
            center = _chebyshev_center(rows, rhs)
            # a zero row is vacuous once the LP finds the region nonempty
            rows_q, rhs_q = rows[nonzero], rhs[nonzero]
            if np.min(rhs_q - rows_q @ center) > _QHULL_MIN_SLACK * (1.0 + np.abs(rhs).max()):
                from scipy.spatial import HalfspaceIntersection

                halfspaces = np.hstack([rows_q, -rhs_q[:, None]])
                return VertexTable(HalfspaceIntersection(halfspaces, center).intersections)
        subsets = np.array(list(itertools.combinations(range(rows.shape[0]), dim)))
        _, points = _solve_regular(rows[subsets], rhs[subsets])
        slack = _ROUNDING_TOL * (1.0 + np.abs(rhs) + np.abs(points) @ np.abs(rows).T)
        points = points[np.all(points @ rows.T <= rhs + slack, axis=1)]
        if points.shape[0] == 0:
            if center is None:
                center = _chebyshev_center(rows, rhs)
            points = center[None]
        return VertexTable(points)


def _chebyshev_center(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The center x of a largest ball in {x : rows @ x <= rhs}, by one LP:
    maximize r >= 0 subject to rows[i] @ x + r |rows[i]| <= rhs[i].
    Raises InfeasibleRegionError when the LP finds the region empty."""
    res = lp_solve(
        LpProblem(
            c=np.append(np.zeros(rows.shape[1]), -1.0),
            a_ub=np.hstack([rows, np.linalg.norm(rows, axis=1)[:, None]]),
            b_ub=rhs,
            bounds=[(None, None)] * rows.shape[1] + [(0.0, None)],
        )
    )
    if res.status != "optimal":
        raise InfeasibleRegionError("region is empty")
    return res.point[:-1]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i, one ddot per row: the rounding of a
    one-row product, whatever the other rows are."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dot(a, a))


def _ball_rows(x: np.ndarray) -> np.ndarray:
    # rows outside the ball are scaled onto it; the others divide by 1.0,
    # which is exact (fmax keeps a NaN row as it is)
    return x / np.fmax(_row_norm(x), 1.0)[:, None]


def _sphere_rows(x: np.ndarray) -> np.ndarray:
    return x / _row_norm(x)[:, None]


def _bb_rows(s: np.ndarray, y: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    # Spectral (Barzilai-Borwein) trial steps, clamped to a sane range; the
    # Armijo test keeps descent monotone regardless.
    sy = _row_dot(s, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.minimum(np.maximum(_row_dot(s, s) / sy, 1e-12), 1e6)
    return np.where(sy <= 0.0, fallback, steps)


def _descend(evaluator, starts, max_iter, tol, sphere, traces=None):
    """Projected descent on the unit ball (or sphere) from every row of
    ``starts``, in lockstep; one candidate (x, value, iterations, converged)
    per start, in start order.

    Per start this is projected gradient descent (on the sphere, along the
    tangent gradient with renormalization) with a Barzilai-Borwein trial
    step under a monotone Armijo test, halved on each rejection.  A start
    exits "converged" at projected-gradient norm < tol or when it is
    numerically stationary, and "max_iter" after ``max_iter`` accepted
    steps.  It is numerically stationary once a rejected trial's predicted
    decrease |d . (cand - x)| is within ``_NOISE_ULPS`` rounding units of
    the rounding scale S(x) = sum |c_alpha| |x^alpha| of p's value at x, or
    once its trial step underflows to 0.  The test is relative to S, so it
    does not depend on the scale of p.

    Each round makes every active start's next Armijo trial, all through one
    :meth:`GradientEvaluator.rows` call, which also gives S at the trial
    point; a start keeps S of its current point next to its value.  The
    round drops the starts that finished.  Every product is taken row by
    row, so each start computes exactly what a one-start run would.
    ``traces``, a list of one list per start, receives each start's first
    value and its value after every accepted step.
    """
    project = _sphere_rows if sphere else _ball_rows
    x = project(np.array(starts, dtype=float))
    at, sx = evaluator.rows(x)
    fx, d = at[:, 0], at[:, 1:]
    if sphere:
        d = d - _row_dot(d, x)[:, None] * x
    if traces is not None:
        for trace, value in zip(traces, fx.tolist()):
            trace.append(value)
    out_x, out_f = np.empty_like(x), np.empty_like(fx)
    out_it, out_ok = np.empty(len(x), dtype=int), np.empty(len(x), dtype=bool)
    idx = np.arange(len(x))
    t = np.full(len(x), ARMIJO_INIT)
    it = np.ones(len(x), dtype=int)
    while idx.size:
        # the stop tests of a start's iteration; a numerically stationary
        # start has t = 0
        gnorm = _row_norm(d if sphere else x - project(x - d))
        over = it > max_iter
        done = over | (gnorm < tol) | ~(t > 0.0)
        if done.any():
            out_x[idx[done]], out_f[idx[done]] = x[done], fx[done]
            out_it[idx[done]] = np.where(over[done], max_iter, it[done])
            out_ok[idx[done]] = ~over[done]
            keep = ~done
            idx, x, fx, sx, d, t, it, gnorm = (
                a[keep] for a in (idx, x, fx, sx, d, t, it, gnorm)
            )
            if not idx.size:
                break
        cand = project(x - t[:, None] * d)
        at, sc = evaluator.rows(cand)
        fc, move = at[:, 0], cand - x
        predicted = _row_dot(d, move)
        if sphere:
            # Python's float power: the rounding of a one-start run
            squares = np.array([g**2 for g in gnorm.tolist()])
            ok = fc < fx - ARMIJO_DECREASE * t * squares
        else:
            ok = fc < fx + ARMIJO_DECREASE * predicted
        # every row's step as if accepted; a rejected row keeps its state
        # and halves its trial step, or ends at a decrease below p's rounding
        stalled = ~(np.abs(predicted) > _NOISE_ULPS * np.finfo(float).eps * sx)
        d_new = at[:, 1:]
        if sphere:
            d_new = d_new - _row_dot(d_new, cand)[:, None] * cand
        halved = np.where(stalled, 0.0, t * ARMIJO_SHRINK)
        t = np.where(ok, _bb_rows(move, d_new - d, 2.0 * t), halved)
        rows_ok = ok[:, None]
        x, fx, d = np.where(rows_ok, cand, x), np.where(ok, fc, fx), np.where(rows_ok, d_new, d)
        sx = np.where(ok, sc, sx)
        it = it + ok
        if traces is not None:
            for j in np.flatnonzero(ok).tolist():
                traces[idx[j]].append(float(fc[j]))
    return list(zip(out_x, out_f.tolist(), out_it.tolist(), out_ok.tolist()))


@functools.cache
def _hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The equispaced nodes of [0, 1] after 0, as a column, and the matrix
    that maps the values, then the slopes, of a polynomial of degree
    2 * nodes - 1 at all the nodes to its coefficients, lowest first."""
    s = np.linspace(0.0, 1.0, nodes)[:, None]
    powers = np.arange(2 * nodes)
    slopes = powers * s ** np.maximum(powers - 1, 0)
    return s[1:], np.linalg.inv(np.vstack([s**powers, slopes]))


def _horner(coefs: list[float], s: float) -> float:
    out = 0.0
    for c in reversed(coefs):
        out = out * s + c
    return out


def _fit_minimum(coefs: list[float]) -> tuple[float, float] | None:
    """(value, s) at the lowest local minimum in (0, 1) of the polynomial
    with coefficients ``coefs`` (lowest first), or None."""
    dc = [i * c for i, c in enumerate(coefs[1:], 1)]
    ddc = [i * c for i, c in enumerate(dc[1:], 1)]
    top, noise = len(dc), _FIT_NOISE * max(map(abs, dc))
    while top > 1 and abs(dc[top - 1]) <= noise:
        top -= 1
    if top == 2:
        roots = [-dc[0] / dc[1]]
    elif top == 3:
        # the quadratic formula in its cancellation-free form
        c, b, a = dc[:3]
        disc = b * b - 4.0 * a * c
        q = -0.5 * (b + math.copysign(math.sqrt(max(disc, 0.0)), b))
        roots = [q / a, c / q] if disc >= 0.0 and q != 0.0 else []
    elif top > 3:
        found = np.roots(dc[top - 1 :: -1])
        roots = found.real[np.abs(found.imag) <= 1e-6 * (1.0 + np.abs(found))].tolist()
        for _ in range(3):  # Newton polish on the whole derivative
            roots = [r - _horner(dc, r) / h if (h := _horner(ddc, r)) else r for r in roots]
    else:
        roots = []
    minima = [(_horner(coefs, r), r) for r in roots if 0.0 < r < 1.0 and _horner(ddc, r) > 0.0]
    return min(minima, default=None)


def _exact_step(evaluator, x: np.ndarray, at_x: np.ndarray, d: np.ndarray, w: float):
    """Exact minimizer t of phi(t) = p(x + t d) on [0, w], with the point
    y = x + t d and ``evaluator.at(y)``.

    phi has the degree of p, so the Hermite interpolant of its values and
    slopes at k equispaced nodes of [0, w], with 2k > degree, is phi
    itself.  Node 0 is x; every other node, and an interior minimizer that
    is not a node, costs one tree fill.
    """
    k = max(2, (evaluator.degree + 2) // 2)
    if k == 2:  # the cubic Hermite interpolant, in closed form
        ys = [x + w * d]
        at_nodes = evaluator.at(ys[0])[:, None]
        f0, f1 = float(at_x[0]), float(at_nodes[0, 0])
        s0, s1 = w * float(d @ at_x[1:]), w * float(d @ at_nodes[1:, 0])
        coefs = [f0, s0, 3.0 * (f1 - f0) - 2.0 * s0 - s1, 2.0 * (f0 - f1) + s0 + s1]
    else:
        nodes, inverse = _hermite(k)
        ys = x + (w * nodes) * d
        at_nodes = evaluator.values(ys)
        slopes = w * (d @ np.hstack([at_x[1:, None], at_nodes[1:]]))
        coefs = (inverse @ np.concatenate(([at_x[0]], at_nodes[0], slopes))).tolist()
    fit = _fit_minimum(coefs)
    if fit is not None and fit[0] < at_nodes[0, -1]:
        t = w * fit[1]
        y = x + t * d
        return t, y, evaluator.at(y)
    return w, ys[-1], at_nodes[:, -1]


def _frank_wolfe(evaluator, lmo, x0, max_iter, tol, trace=None):
    """Pairwise Frank-Wolfe from x0 with an exact step.

    The run keeps x0 and every vertex the oracle has returned as weighted
    atoms whose mixture is x.  Each step moves weight t from the atom worst
    along the gradient (away) to the oracle's vertex, with t the exact
    minimizer on [0, w_away] (:func:`_exact_step`); t = w_away drops the
    away atom.  Lacoste-Julien & Jaggi, "On the global linear convergence
    of Frank-Wolfe optimization variants", NeurIPS 2015.

    Exits "converged" at Frank-Wolfe gap < tol, or when an exact step
    inside [0, w_away] does not lower p at float resolution.  A drop step
    never ends a run.
    """
    x = np.array(x0, dtype=float)
    at_x = evaluator.at(x)
    fx = float(at_x[0])
    atoms = {x.tobytes(): [x, 1.0]}
    if trace is not None:
        trace.append(fx)
    for it in range(1, max_iter + 1):
        g = at_x[1:]
        v = lmo(g)
        if float(g @ (x - v)) < tol:
            return x, fx, it, True
        key, (a, w) = max(atoms.items(), key=lambda item: g @ item[1][0])
        t, y, at_y = _exact_step(evaluator, x, at_x, v - a, w)
        if t == w:
            del atoms[key]
        elif at_y[0] >= fx:
            return x, fx, it, True
        else:
            atoms[key][1] = w - t
        atoms.setdefault(v.tobytes(), [v, 0.0])[1] += t
        x, at_x, fx = y, at_y, float(at_y[0])
        if trace is not None:
            trace.append(fx)
    return x, fx, max_iter, False


def _best_candidate(candidates):
    # (value, lexicographic point) ordering keeps multi-start reductions
    # deterministic even under exact value ties.
    return min(candidates, key=lambda c: (c[1], tuple(c[0])))


def _result(p: Polynomial, candidate, starts_used: int) -> SolveResult:
    """The result of a run (x, value, iterations, converged), valued by p."""
    x, _, iterations, converged = candidate
    return SolveResult(
        value=p.evaluate(x),
        point=np.asarray(x, dtype=float),
        status="converged" if converged else "max_iter",
        iterations=iterations,
        starts_used=starts_used,
    )


def _multi_start(p: Polynomial, run, draw_starts, opts: SolveOptions) -> SolveResult:
    """Best result of ``run``, which maps a (k, dim) array of starts to one
    candidate per start; the start count doubles once on a wide gap."""
    rng = np.random.default_rng(opts.seed)
    candidates = run(draw_starts(rng, opts.starts))
    ordered = sorted(candidates, key=lambda c: (c[1], tuple(c[0])))
    starts_used = opts.starts
    if len(ordered) >= 2 and abs(ordered[0][1] - ordered[1][1]) > _RESTART_GAP:
        candidates += run(draw_starts(rng, opts.starts))
        starts_used += opts.starts
    return _result(p, _best_candidate(candidates), starts_used)


def _minimize_ball_or_sphere(
    p: Polynomial, opts: SolveOptions | None, sphere: bool
) -> SolveResult:
    opts = opts or SolveOptions()
    evaluator = GradientEvaluator(p)
    sample = sample_sphere if sphere else sample_ball

    def run(starts):
        return _descend(evaluator, starts, opts.max_iter, opts.tol, sphere)

    return _multi_start(p, run, lambda rng, k: sample(rng, k, p.num_vars), opts)


def minimize_ball(p: Polynomial, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize p over the closed unit ball in p.num_vars dimensions."""
    return _minimize_ball_or_sphere(p, opts, sphere=False)


def minimize_sphere(p: Polynomial, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize p over the unit sphere in p.num_vars dimensions."""
    return _minimize_ball_or_sphere(p, opts, sphere=True)


def minimize_polytope(p: Polynomial, region, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize p over a polyhedral region by multi-start Frank-Wolfe.

    ``region`` must expose ``lmo(direction) -> vertex``, answering a stack
    of directions along the last axis with a stack of vertices, as
    :class:`Hrep`, :class:`VertexTable` and :class:`Zonotope` do; nothing
    else is read.  Every start, the restart draw's too, is a Dirichlet(1)
    mixture of the m + 1 vertices that the oracle returns for m + 1 Gaussian
    directions, m = p.num_vars; one oracle call answers a whole draw.
    Unlike a mixture of many vertices, such a point does not crowd the
    region's centroid, so starts land near vertices and faces as well as
    inside.
    """
    opts = opts or SolveOptions()
    evaluator = GradientEvaluator(p)
    dim = p.num_vars

    def draw(rng, count):
        vertices = region.lmo(rng.standard_normal((count, dim + 1, dim)))
        weights = rng.dirichlet(np.ones(dim + 1), size=count)
        return np.matmul(weights[:, None, :], vertices)[:, 0]

    def run(starts):
        return [_frank_wolfe(evaluator, region.lmo, x0, opts.max_iter, opts.tol) for x0 in starts]

    return _multi_start(p, run, draw, opts)
