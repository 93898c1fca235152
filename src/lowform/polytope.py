"""Reduce sparse polynomial optimization over polytopes to the projection.

For a standard-form feasible set Omega = {x >= 0 : A x = b} and a sparse
objective h(x) = f(ell^T x), the minimum of h over Omega is the minimum of f
over the projection P = ell^T Omega.  P is the convex hull of the images of
Omega's vertices, the basic feasible solutions, so :func:`vertex_reduce`
enumerates them in one batched solve and minimizes f once over that vertex
table.  The canonical simplex goes the same way.  For the unit box, P is
the zonotope ell^T [-1, 1]^n, whose linear minimization oracle is
closed-form, so :func:`box_reduce` minimizes f over it directly.

Both take the witness by one rule: the table row, or the zonotope oracle's
box vertex at grad f(X*), whose image is X* to rounding, as it is for a
concave f; else one LP over the domain for the point whose image is
nearest X* (:func:`_witness_lp`), clipped to the domain's bounds.

The table also answers the questions that would otherwise take LPs over
Omega.  A nonempty table shows Omega nonempty, and its first row is a
feasible point.  Each row keeps its basis B, and the multipliers y with
A_B^T y = c_B of a row minimizing c . x are a simplex dual certificate
when the reduced costs c - A^T y are >= -eps: then c . x >= y . b - eps *
sum(x) on all of Omega, and y . b is that row's value.  With c = -1 and
eps = 1/2 this proves Omega bounded and bounds sum(x) on it; with
c = ell grad f(X*) it proves that no point of Omega beats the table in
that direction.  So a request over a general polytope or the simplex
solves no LP when X* is a vertex image; each LP runs only where its
certificate fails.

The paper's Farkas cut loop, :func:`cut_loop`, is the fallback for the
cases the table cannot answer (too many bases, a row-rank-deficient A, a
failed certificate).  Every valid inequality on the projected point
X = ell^T x has the shape u . X <= lambda . b with (lambda, u) in the cone

    C = {(lambda, u) : A^T lambda - ell u >= 0}.

The cut loop alternates between minimizing f over the current outer
polyhedron and solving a separation LP over a normalized section of C; a
negative separation value certifies that the current minimizer lies outside
the projected feasible set and yields a violated cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detection import SparseForm
from .linalg import LpProblem, lp_solve
from .poly import GradientEvaluator, Polynomial
from .solvers import (
    _ROUNDING_TOL,
    Hrep,
    SolveOptions,
    SolveResult,
    VertexTable,
    Zonotope,
    basic_feasible_solutions,
    frank_wolfe,
    minimize_polytope,
)

# Sign-robust replacement for the exact "separation value is zero" stop rule.
SEPARATION_TOL = 1e-8

_MAX_CUTS = 50


class InfeasibleDomainError(ValueError):
    pass


class UnboundedDomainError(ValueError):
    pass


class UnconstrainedProjectionError(ValueError):
    """The cone contains no element with nonzero u: no cut constrains X."""


@dataclass
class Polytope:
    """Standard-form feasible set {x >= 0 : a @ x = b}; checked nonempty.

    ``table`` holds :func:`basic_feasible_solutions` of (a, b), the vertices
    with their bases, or None when the bases are over the cap or none is
    feasible (a row-rank-deficient a, say).  A table shows the set nonempty,
    and its first row is :meth:`feasible_point`; without one a phase-one LP
    checks the set nonempty at construction and gives that point.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if self.a.ndim != 2:
            raise ValueError("a must be a matrix")
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.b.size != self.a.shape[0]:
            raise ValueError("a and b disagree on row count")
        table = basic_feasible_solutions(self.a, self.b)
        self.table = table if table is not None and table[0].shape[0] else None
        self._feasible = self.table[0][0] if self.table is not None else self._phase_one()

    @property
    def num_vars(self) -> int:
        return self.a.shape[1]

    def _phase_one(self) -> np.ndarray:
        res = lp_solve(
            LpProblem(
                c=np.zeros(self.num_vars),
                a_eq=self.a,
                b_eq=self.b,
                bounds=[(0.0, None)] * self.num_vars,
            )
        )
        if res.status != "optimal":
            raise InfeasibleDomainError("polytope is empty")
        return res.point

    def feasible_point(self) -> np.ndarray:
        return self._feasible.copy()

    def lmo(self, direction: np.ndarray) -> np.ndarray:
        """Vertex minimizing direction @ x over the polytope."""
        res = lp_solve(
            LpProblem(
                c=np.asarray(direction, dtype=float),
                a_eq=self.a,
                b_eq=self.b,
                bounds=[(0.0, None)] * self.num_vars,
            )
        )
        if res.status == "unbounded":
            raise UnboundedDomainError("polytope is unbounded")
        if res.status != "optimal":
            raise InfeasibleDomainError("polytope is empty")
        return res.point

    def coordinate_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate [min, max] over the polytope; raises if unbounded."""
        n = self.num_vars
        lo = np.zeros(n)
        hi = np.zeros(n)
        for i in range(n):
            direction = np.zeros(n)
            direction[i] = 1.0
            lo[i] = direction @ self.lmo(direction)
            hi[i] = direction @ self.lmo(-direction)
        return lo, hi


@dataclass
class Cut:
    """Valid inequality u . X <= rhs = lam . b on the projected feasible set,
    with (lam, u) in the cone C."""

    u: np.ndarray
    rhs: float
    lam: np.ndarray


@dataclass
class CutSet:
    cuts: list[Cut] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cuts)

    def to_hrep(self, lo: np.ndarray, hi: np.ndarray) -> Hrep:
        m = np.asarray(lo).size
        if self.cuts:
            a_ub = np.array([c.u for c in self.cuts])
            b_ub = np.array([c.rhs for c in self.cuts])
        else:
            a_ub = np.zeros((0, m))
            b_ub = np.zeros(0)
        return Hrep(a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)


@dataclass
class PolytopeReduceResult:
    rho: float
    x_star: np.ndarray  # minimizer in the projected space R^m
    cuts: CutSet
    iterations: int
    converged: bool
    inner_values: list[float]
    witness: np.ndarray | None = None  # feasible x with ell^T x ~ x_star
    witness_gap: float | None = None


# ----------------------------------------------------------------------
# separation
# ----------------------------------------------------------------------


def _cone_lp(poly: Polytope, ell: np.ndarray, c: np.ndarray):
    """Minimize c . z over z = (lam+, lam-, u+, u-) >= 0 with entries summing
    to 1 and A^T lam >= ell u: a normalized section of the cone C."""
    at = poly.a.T
    return lp_solve(
        LpProblem(
            c=c,
            a_ub=np.hstack([-at, at, ell, -ell]),
            b_ub=np.zeros(at.shape[0]),
            a_eq=np.ones((1, c.size)),
            b_eq=np.array([1.0]),
            bounds=[(0.0, None)] * c.size,
        )
    )


def _cone_has_cut_directions(poly: Polytope, ell: np.ndarray) -> bool:
    """True when some cone element has u != 0 (the projection is constrained)."""
    s, m = poly.a.shape[0], ell.shape[1]
    res = _cone_lp(poly, ell, np.concatenate([np.zeros(2 * s), -np.ones(2 * m)]))
    return res.status == "optimal" and -res.value > 1e-12


def separation_lp(poly: Polytope, ell: np.ndarray, x_star: np.ndarray) -> tuple[float, Cut]:
    """Minimize lambda . b - u . X* over the normalized cone section.

    A value >= -SEPARATION_TOL certifies (Farkas) that X* lies in the closure
    of the projected feasible set {ell^T x : x in Omega}; otherwise the
    returned cut is violated at X*.
    """
    ell = np.asarray(ell, dtype=float)
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    s, m = poly.a.shape[0], ell.shape[1]
    res = _cone_lp(poly, ell, np.concatenate([poly.b, -poly.b, -x_star, x_star]))
    if res.status != "optimal":
        raise InfeasibleDomainError(f"separation LP ended with status {res.status}")
    z = res.point
    lam = z[:s] - z[s : 2 * s]
    u = z[2 * s : 2 * s + m] - z[2 * s + m :]
    scale = float(np.abs(lam).sum() + np.abs(u).sum())
    if scale > 1e-12:
        lam = lam / scale
        u = u / scale
    return float(res.value), Cut(u=u, rhs=float(lam @ poly.b), lam=lam)


# ----------------------------------------------------------------------
# cut loop
# ----------------------------------------------------------------------


def _interval_box(ell: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Interval-arithmetic bounds on ell^T x from per-coordinate ranges."""
    ell = np.asarray(ell, dtype=float)
    low = np.minimum(ell * lo[:, None], ell * hi[:, None]).sum(axis=0)
    high = np.maximum(ell * lo[:, None], ell * hi[:, None]).sum(axis=0)
    pad = 1e-12 * np.maximum(1.0, np.maximum(np.abs(low), np.abs(high)))
    return low - pad, high + pad


def cut_loop(
    sf: SparseForm,
    poly: Polytope,
    opts: SolveOptions | None = None,
    max_cuts: int = _MAX_CUTS,
) -> PolytopeReduceResult:
    """Minimize f(ell^T x) over a bounded standard-form polytope by cuts.

    Requires Omega nonempty (checked at construction) and bounded (checked by
    coordinate-range LPs here).  The outer polyhedron starts from an interval
    box derived from Omega's coordinate ranges and tightens by one Farkas cut
    per iteration until the separation value is >= -``SEPARATION_TOL``.  A
    constant f returns before any separation: with m = 0 there is no cut
    direction.
    """
    # Each round solves the inner problem once, so zero rounds has no minimizer.
    if max_cuts < 1:
        raise ValueError(f"max_cuts must be at least 1, got {max_cuts}")
    opts = opts or SolveOptions()
    f, ell = sf.f, np.asarray(sf.ell, dtype=float)
    lo, hi = poly.coordinate_ranges()
    if f.is_constant():
        return _constant_result(f, ell, poly.feasible_point())
    if not _cone_has_cut_directions(poly, ell):
        raise UnconstrainedProjectionError(
            "the cone contains no usable cut: projection is unconstrained"
        )
    box_lo, box_hi = _interval_box(ell, lo, hi)
    cuts = CutSet()
    # Seed with one cut from separating the origin, when it yields one.
    tau0, cut0 = separation_lp(poly, ell, np.zeros(f.num_vars))
    if tau0 < -SEPARATION_TOL and np.abs(cut0.u).sum() > 1e-12:
        cuts.cuts.append(cut0)
    inner_values: list[float] = []
    converged = False
    for _ in range(max_cuts):
        res = minimize_polytope(f, cuts.to_hrep(box_lo, box_hi), opts)
        inner_values.append(res.value)
        tau, cut = separation_lp(poly, ell, res.point)
        if tau >= -SEPARATION_TOL:
            converged = res.status == "converged"
            break
        cuts.cuts.append(cut)
    witness, witness_gap = _witness_lp(ell, res.point, (0.0, None), poly.a, poly.b)
    return PolytopeReduceResult(
        rho=res.value,
        x_star=res.point,
        cuts=cuts,
        iterations=len(inner_values),
        converged=converged,
        inner_values=inner_values,
        witness=witness,
        witness_gap=witness_gap,
    )


# ----------------------------------------------------------------------
# vertex table
# ----------------------------------------------------------------------


def _dual_certificate(poly: Polytope, c: np.ndarray, eps: float) -> np.ndarray | None:
    """Multipliers y whose reduced costs c - A^T y are all >= -eps, or None.

    Whatever y is, c . x = y . b + (c - A^T y) . x >= y . b - eps * sum(x)
    for every x in Omega.  The candidates are the bases B of the table rows
    that minimize c . x, and A_B^T y = c_B is solved for all of them in one
    batched call, so y . b is a row's value up to rounding.  None when there
    is no table or no candidate qualifies (a degenerate or ill-rounded
    basis).
    """
    if poly.table is None:
        return None
    points, bases = poly.table
    values = points @ c
    rows = bases[values == values.min()]
    y = np.linalg.solve(poly.a[:, rows].transpose(1, 2, 0), c[rows][..., None])[..., 0]
    dual_feasible = np.flatnonzero(np.min(c - y @ poly.a, axis=1) >= -eps)
    return y[dual_feasible[0]] if dual_feasible.size else None


def _certified_sum_bound(poly: Polytope) -> float | None:
    """A bound on sum(x) over Omega that proves Omega bounded, or None.

    With c = -1 and eps = 1/2, w = -A^T y >= 1/2, so a ray d >= 0 with
    A d = 0 has sum(d) <= 2 w . d = 0, and sum(x) <= w . x / min(w) =
    -y . b / min(w) on Omega.  The bound comes from y alone, never from the
    table's rows, so a table that misses a vertex cannot shrink it.
    """
    y = _dual_certificate(poly, -np.ones(poly.num_vars), 0.5)
    if y is None:
        return None
    return float((y @ poly.b) / np.max(poly.a.T @ y))


def vertex_reduce(
    sf: SparseForm, poly: Polytope, opts: SolveOptions | None = None
) -> PolytopeReduceResult:
    """Minimize f(ell^T x) over a bounded standard-form polytope, exactly.

    P = ell^T Omega is the hull of the images of Omega's basic feasible
    solutions, so one :func:`minimize_polytope` call over ``poly.table``
    finds X*; ``converged`` is that solve's status and ``iterations`` its
    Frank-Wolfe steps.  The witness is the table row whose image is X* to
    rounding (:func:`_is_rounding`), or else the point of Omega that one
    LP finds (:func:`_witness_lp`).  Two checks read dual certificates off
    the table (:func:`_dual_certificate`) and ask an LP over Omega only
    where the certificate fails: that Omega is bounded (else
    UnboundedDomainError), and that no point of P beats every table row in
    the direction grad f(X*) by more than ``SEPARATION_TOL`` (relative),
    that is, that the Frank-Wolfe gap over the true P does not exceed the
    table's.  When the second check fails the result comes from
    :func:`cut_loop`, as it does when there is no table (too many bases, or
    a row-rank-deficient A).  A constant f returns at once, with
    :meth:`Polytope.feasible_point` as the witness.
    """
    opts = opts or SolveOptions()
    ell = np.asarray(sf.ell, dtype=float)
    sum_bound = _certified_sum_bound(poly)
    if sum_bound is None:
        poly.lmo(-np.ones(poly.num_vars))  # Omega is bounded iff sum(x) is
    if sf.f.is_constant():
        return _constant_result(sf.f, ell, poly.feasible_point())
    if poly.table is None:
        return cut_loop(sf, poly, opts)
    vertices = poly.table[0]
    region = VertexTable(vertices @ ell)
    res = minimize_polytope(sf.f, region, opts)
    # The starts come from a sweep of vertex mixtures, which crowd the
    # table's centroid and can miss a basin at a vertex; the table names
    # the best vertex, so a run from it covers that basin.
    values = sf.f.evaluate_many(region.points)
    best = int(np.argmin(values))
    if values[best] < res.value - opts.tol * max(1.0, abs(res.value)):
        res = frank_wolfe(sf.f, region, region.points[best], opts)
    grad = GradientEvaluator(sf.f).grad(res.point)
    table_best = float(np.min(region.points @ grad))
    tol = SEPARATION_TOL * max(1.0, abs(table_best))
    # half of tol for the reduced costs over sum(x) <= sum_bound, half for
    # the rounding of y . b against the table's value
    y = None
    if sum_bound is not None and sum_bound > 0.0:
        y = _dual_certificate(poly, ell @ grad, tol / (2.0 * sum_bound))
    if y is None or y @ poly.b < table_best - tol / 2.0:
        lp_best = float(grad @ (ell.T @ poly.lmo(ell @ grad)))
        if lp_best < table_best - tol:
            return cut_loop(sf, poly, opts)
    row = int(np.argmin(np.abs(region.points - res.point).sum(axis=1)))
    return _one_solve_result(res, ell, vertices[row].copy(), (0.0, None), poly.a, poly.b)


def simplex_reduce(sf: SparseForm, opts: SolveOptions | None = None) -> PolytopeReduceResult:
    """:func:`vertex_reduce` on the canonical simplex {x >= 0 : sum(x) = 1}."""
    return vertex_reduce(sf, Polytope(np.ones((1, sf.ell.shape[0])), [1.0]), opts)


def box_reduce(sf: SparseForm, opts: SolveOptions | None = None) -> PolytopeReduceResult:
    """Minimize f(ell^T x) over the box [-1, 1]^n.

    One :func:`minimize_polytope` call over the zonotope ell^T [-1, 1]^n
    finds X*; ``converged`` is that solve's status and ``iterations`` its
    Frank-Wolfe steps.  The witness is the zonotope oracle's box vertex
    -sign(ell grad f(X*)) when its image is X* to rounding
    (:func:`_is_rounding`), as it is for a concave f; otherwise one LP
    finds it.  A constant f returns at once, with the box's center as the
    witness.
    """
    ell = np.asarray(sf.ell, dtype=float)
    if sf.f.is_constant():
        return _constant_result(sf.f, ell, np.zeros(ell.shape[0]))
    res = minimize_polytope(sf.f, Zonotope(ell), opts)
    vertex = -np.sign(ell @ GradientEvaluator(sf.f).grad(res.point))
    n = ell.shape[0]
    return _one_solve_result(res, ell, vertex, (-1.0, 1.0), np.zeros((0, n)), np.zeros(0))


def _is_rounding(gap: float, x_star: np.ndarray) -> bool:
    """True when an image's l1 distance ``gap`` to x_star is rounding:
    within ``_ROUNDING_TOL`` of 1 + |x_star|_1."""
    return gap <= _ROUNDING_TOL * (1.0 + np.abs(x_star).sum())


def _constant_result(f: Polynomial, ell: np.ndarray, witness: np.ndarray):
    """A constant f: every feasible point, ``witness`` among them, is a minimizer."""
    return PolytopeReduceResult(
        rho=f.constant_value(),
        x_star=ell.T @ witness,
        cuts=CutSet(),
        iterations=0,
        converged=True,
        inner_values=[],
        witness=witness,
        witness_gap=0.0,
    )


def _one_solve_result(res: SolveResult, ell, vertex, bounds, a, b) -> PolytopeReduceResult:
    """The result of one inner solve over P itself: no cuts.

    The witness is the domain's point ``vertex`` when its image is X* to
    rounding (:func:`_is_rounding`), or else one :func:`_witness_lp` over
    the domain {x : a @ x = b, x within ``bounds``}.
    """
    witness, witness_gap = vertex, float(np.abs(ell.T @ vertex - res.point).sum())
    if not _is_rounding(witness_gap, res.point):
        witness, witness_gap = _witness_lp(ell, res.point, bounds, a, b)
    return PolytopeReduceResult(
        rho=res.value,
        x_star=res.point,
        cuts=CutSet(),
        iterations=res.iterations,
        converged=res.status == "converged",
        inner_values=[res.value],
        witness=witness,
        witness_gap=witness_gap,
    )


def _witness_lp(ell: np.ndarray, x_star: np.ndarray, bounds, a: np.ndarray, b: np.ndarray):
    """x with a @ x = b and entries within ``bounds`` minimizing
    |ell^T x - x_star|_1, by slacks d+, d- >= 0 with ell^T x - d+ + d- =
    x_star, and that distance; (None, None) when the LP fails.  HiGHS may
    overstep ``bounds`` by its tolerance, so x is clipped to them."""
    n, m = ell.shape
    a_eq = np.vstack(
        [
            np.hstack([a, np.zeros((a.shape[0], 2 * m))]),
            np.hstack([ell.T, -np.eye(m), np.eye(m)]),
        ]
    )
    b_eq = np.concatenate([b, x_star])
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    res = lp_solve(
        LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, bounds=[bounds] * n + [(0.0, None)] * (2 * m))
    )
    if res.status != "optimal":
        return None, None
    x = np.clip(res.point[:n], *bounds)
    return x, float(np.abs(ell.T @ x - x_star).sum())

