"""Desk-scale minimization of polynomials on balls, spheres, and polyhedra.

All solvers are multi-start projected gradient descent with a
Barzilai-Borwein trial step under a monotone Armijo test (the spectral
projected gradient of Birgin, Martinez & Raydan, SIAM J. Optim. 2000), in
one lockstep loop, :func:`_descend`.  The ball solver also minimizes the
surrogate's problem Q (:func:`lowform.approx.solve_Q`).  Objective values
and gradients come from one :class:`~lowform.poly.GradientEvaluator` per
solve, a monomial tree over p and its partials filled once per point.  A
solve runs one batch of ``opts.starts`` starts, as the rows of one array:
each round makes every unfinished start's next Armijo trial in one batched
evaluation and drops the starts that finished.  A start stops when a
rejected trial predicts a decrease below the rounding of p's value at its
point, a test relative to p's scale, or after ``opts.max_iter`` steps.

Every region is a row-wise projection plus, for polyhedra, a linear map
into p's variables.  The ball and sphere descend in X itself; the sphere
takes the tangent part of the gradient, and otherwise the stop rule and the
Armijo test of every other region.  The zonotope ell^T [-1, 1]^n of a box
descends in x, clipped to the box, with X = ell^T x.  The hull of the
rows of a table, a plain array, descends in weights on the probability
simplex over the rows, with X their mixture; an H-rep region
(:class:`Hrep`) builds its table once, by enumerating row subsets or,
above a cap, by qhull after one LP.  So a polyhedral result carries its
preimage, a point of the box or a convex mixture of the rows, from which
:mod:`lowform.polytope` reads a feasible witness without an LP.
Each polyhedral start is a Dirichlet(1) mixture of the m + 1 vertices least
along m + 1 Gaussian directions.  :func:`basic_feasible_solutions`
enumerates the vertices of a standard-form polytope in one batched solve,
each with its basis, from which :mod:`lowform.polytope` reads simplex dual
certificates in place of LPs.  The brute-force oracle that checks these
solvers lives with the tests, apart from the code it checks.

Determinism: all randomness flows through a single seeded generator and
candidate results are reduced by (value, lexicographic point), so identical
(problem, options, seed) triples give bitwise-identical results.  In a
lockstep descent each start computes exactly what a one-start run would:
every value, gradient, image, dot product and norm of a row is taken by one
matrix-vector product or ddot per row, never by a matrix product whose
summation order could depend on the other rows.
"""

from __future__ import annotations

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
    seed: int = 0

    def __post_init__(self):
        if self.starts <= 0 or self.max_iter <= 0:
            raise ValueError("starts and max_iter must be positive")


@dataclass
class SolveResult:
    value: float
    point: np.ndarray
    status: str  # "converged" | "max_iter"
    iterations: int
    starts_used: int
    # a polyhedral solve's own point, whose image is ``point``: the box
    # point x, or the weights on a vertex table's rows
    preimage: np.ndarray | None = None


def _least_rows(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """The index of the first row of ``points`` least along each direction
    of a stack along the last axis, each scored by its own matrix-vector
    product."""
    scores = np.matmul(points, np.asarray(directions, dtype=float)[..., None])[..., 0]
    return np.argmin(scores, axis=-1)


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
    the wrong shape.  The first read of :attr:`points` builds the region's
    vertex table, which :func:`minimize_polytope` descends over and
    :meth:`lmo` scans; the fields must not change after that.
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
        return np.take(self.points, _least_rows(self.points, direction), axis=0)

    @cached_property
    def points(self) -> np.ndarray:
        """Points of the region, its vertices among them, as a table's rows.

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
                return HalfspaceIntersection(halfspaces, center).intersections
        subsets = np.array(list(itertools.combinations(range(rows.shape[0]), dim)))
        _, points = _solve_regular(rows[subsets], rhs[subsets])
        slack = _ROUNDING_TOL * (1.0 + np.abs(rhs) + np.abs(points) @ np.abs(rows).T)
        points = points[np.all(points @ rows.T <= rhs + slack, axis=1)]
        if points.shape[0] == 0:
            if center is None:
                center = _chebyshev_center(rows, rhs)
            points = center[None]
        return points


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


def _box_rows(x: np.ndarray) -> np.ndarray:
    return np.clip(x, -1.0, 1.0)


def _simplex_rows(v: np.ndarray) -> np.ndarray:
    """The Euclidean projection of every row onto the probability simplex,
    by sorting (Duchi, Shalev-Shwartz, Singer & Chandra, ICML 2008).

    Each row is first shifted by its maximum, which leaves its projection
    unchanged; the entries that survive then lie in [-1, 0], so their sum
    rounds at the scale of 1, not of the row.  With u a shifted row sorted in
    decreasing order and c_j = u_1 + ... + u_j - 1 summed in that order, rho
    is the last j with u_j - c_j / j > 0 (j = 1 always qualifies), and the
    projection is max(v - c_rho / rho, 0).
    """
    v = v - v.max(axis=1, keepdims=True)
    u = -np.sort(-v, axis=1)
    c = np.cumsum(u, axis=1) - 1.0
    j = np.arange(1, v.shape[1] + 1)
    rho = v.shape[1] - np.argmax((u - c / j > 0.0)[:, ::-1], axis=1)
    theta = c[np.arange(v.shape[0]), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


def _bb_rows(s: np.ndarray, y: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    # Spectral (Barzilai-Borwein) trial steps, clamped to a sane range; the
    # Armijo test keeps descent monotone regardless.
    sy = _row_dot(s, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.minimum(np.maximum(_row_dot(s, s) / sy, 1e-12), 1e6)
    return np.where(sy <= 0.0, fallback, steps)


def _descend(evaluator, starts, max_iter, project, lift=None):
    """Projected descent from every row of ``starts``, in lockstep; one
    candidate (y, value, iterations, converged) per start, in start order.

    The rows y live where ``project`` maps each row: the unit ball
    (:func:`_ball_rows`), the sphere (:func:`_sphere_rows`), the box
    [-1, 1]^k (:func:`_box_rows`) or the probability simplex
    (:func:`_simplex_rows`).  p is read at X = y or, given a (k, m)
    ``lift`` M, at X = M^T y, where its gradient in y is M grad p(X).

    Per start this is projected gradient descent in y with a Barzilai-Borwein
    trial step under a monotone Armijo test, halved on each rejection.  On
    the sphere the gradient is its tangent part, and the step from y along
    it is renormalized; the Armijo test f(cand) < f(y) + c d . (cand - y)
    is that of every other region, with d the (tangent) gradient.  A start
    has one stop rule: it exits "converged" once it is numerically
    stationary, and "max_iter" after ``max_iter`` accepted steps.  It is
    numerically stationary once a rejected trial's predicted decrease
    |d . (cand - y)| is within ``_NOISE_ULPS`` rounding units of the
    rounding scale S(X) = sum |c_alpha| |X^alpha| of p's value at X, or once
    its trial step underflows to 0.  The test is relative to S, so it does
    not depend on the scale of p.

    Each round makes every active start's next Armijo trial, all through one
    :meth:`GradientEvaluator.rows` call, which also gives S at the trial
    point; a start keeps S of its current point next to its value.  The
    round drops the starts that finished.  Every product is taken row by
    row, so each start computes exactly what a one-start run would.
    """
    sphere = project is _sphere_rows

    def oracle(y):
        # p at each row's X, its gradient in y (tangent on the sphere), and S(X)
        if lift is None:
            at, scale = evaluator.rows(y)
            g = at[:, 1:]
            if sphere:
                g = g - _row_dot(g, y)[:, None] * y
            return at[:, 0], g, scale
        at, scale = evaluator.rows(np.matmul(y[:, None, :], lift)[:, 0])
        return at[:, 0], np.matmul(lift, at[:, 1:, None])[:, :, 0], scale

    x = project(np.array(starts, dtype=float))
    fx, d, sx = oracle(x)
    out_x, out_f = np.empty_like(x), np.empty_like(fx)
    out_it, out_ok = np.empty(len(x), dtype=int), np.empty(len(x), dtype=bool)
    idx = np.arange(len(x))
    t = np.full(len(x), ARMIJO_INIT)
    it = np.ones(len(x), dtype=int)
    while idx.size:
        # the stop tests of a start's iteration; a numerically stationary
        # start has t = 0
        over = it > max_iter
        done = over | ~(t > 0.0)
        if done.any():
            out_x[idx[done]], out_f[idx[done]] = x[done], fx[done]
            out_it[idx[done]] = np.where(over[done], max_iter, it[done])
            out_ok[idx[done]] = ~over[done]
            keep = ~done
            idx, x, fx, sx, d, t, it = (a[keep] for a in (idx, x, fx, sx, d, t, it))
            if not idx.size:
                break
        cand = project(x - t[:, None] * d)
        fc, d_new, sc = oracle(cand)
        move = cand - x
        predicted = _row_dot(d, move)
        ok = fc < fx + ARMIJO_DECREASE * predicted
        # every row's step as if accepted; a rejected row keeps its state
        # and halves its trial step, or ends at a decrease below p's rounding
        stalled = ~(np.abs(predicted) > _NOISE_ULPS * np.finfo(float).eps * sx)
        halved = np.where(stalled, 0.0, t * ARMIJO_SHRINK)
        t = np.where(ok, _bb_rows(move, d_new - d, 2.0 * t), halved)
        rows_ok = ok[:, None]
        x, fx, d = np.where(rows_ok, cand, x), np.where(ok, fc, fx), np.where(rows_ok, d_new, d)
        sx = np.where(ok, sc, sx)
        it = it + ok
    return list(zip(out_x, out_f.tolist(), out_it.tolist(), out_ok.tolist()))


def _best_candidate(candidates):
    # (value, lexicographic point) ordering keeps multi-start reductions
    # deterministic even under exact value ties.
    return min(candidates, key=lambda c: (c[1], tuple(c[0])))


def _result(p: Polynomial, candidate, starts_used: int, lift=None) -> SolveResult:
    """The result of a run (y, value, iterations, converged), valued by p at
    its point y, or at X = lift^T y with y kept as the preimage."""
    y, _, iterations, converged = candidate
    point = y if lift is None else y @ lift
    return SolveResult(
        value=p.evaluate(point),
        point=np.asarray(point, dtype=float),
        status="converged" if converged else "max_iter",
        iterations=iterations,
        starts_used=starts_used,
        preimage=None if lift is None else y,
    )


def _multi_start(p: Polynomial, project, draw_starts, opts: SolveOptions, lift=None):
    """Best :func:`_descend` run of p, with ``project`` and ``lift``, from
    the rows that ``draw_starts(rng, k)`` draws, k = opts.starts."""
    starts = draw_starts(np.random.default_rng(opts.seed), opts.starts)
    candidates = _descend(GradientEvaluator(p), starts, opts.max_iter, project, lift)
    return _result(p, _best_candidate(candidates), opts.starts, lift)


def minimize_ball(p: Polynomial, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize p over the closed unit ball in p.num_vars dimensions."""
    return _multi_start(
        p, _ball_rows, lambda rng, k: sample_ball(rng, k, p.num_vars), opts or SolveOptions()
    )


def minimize_sphere(p: Polynomial, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize p over the unit sphere in p.num_vars dimensions."""
    return _multi_start(
        p, _sphere_rows, lambda rng, k: sample_sphere(rng, k, p.num_vars), opts or SolveOptions()
    )


def minimize_polytope(
    p: Polynomial, points: np.ndarray, opts: SolveOptions | None = None
) -> SolveResult:
    """Minimize p over the convex hull of the rows of ``points``, such as an
    :class:`Hrep` region's table, by multi-start projected descent in
    weights y on the probability simplex over the rows, with
    X = points^T y.  The result's ``preimage`` is the best start's y.  Rows
    need not all be extreme points of the hull: a repeated or inner row only
    adds a weight.

    Every start is a Dirichlet(1) mixture of the m + 1 rows least along
    m + 1 Gaussian directions, m = p.num_vars, kept as weights on those
    rows.  Unlike a mixture of many rows, such a point does not crowd the
    hull's centroid, so starts land near vertices and faces as well as
    inside.
    """

    def draw(rng, count):
        rows = _least_rows(points, rng.standard_normal((count, p.num_vars + 1, p.num_vars)))
        weights = np.zeros((count, points.shape[0]))
        mixtures = rng.dirichlet(np.ones(p.num_vars + 1), size=count)
        np.add.at(weights, (np.arange(count)[:, None], rows), mixtures)
        return weights

    return _multi_start(p, _simplex_rows, draw, opts or SolveOptions(), lift=points)


def minimize_zonotope(
    p: Polynomial, ell: np.ndarray, opts: SolveOptions | None = None
) -> SolveResult:
    """Minimize p over the zonotope ell^T [-1, 1]^n of the (n, m) matrix
    ell by multi-start projected descent in x, clipped to the box, with
    X = ell^T x.  The result's ``preimage`` is the best start's x.

    Every start is a Dirichlet(1) mixture of the m + 1 box vertices
    -sign(ell c) least along m + 1 Gaussian directions c, as
    :func:`minimize_polytope` draws its starts.
    """
    ell = np.asarray(ell, dtype=float)

    def draw(rng, count):
        directions = rng.standard_normal((count, p.num_vars + 1, p.num_vars))
        vertices = -np.sign(np.matmul(ell, directions[..., None]))[..., 0]
        mixtures = rng.dirichlet(np.ones(p.num_vars + 1), size=count)
        return np.matmul(mixtures[:, None, :], vertices)[:, 0]

    return _multi_start(p, _box_rows, draw, opts or SolveOptions(), lift=ell)
