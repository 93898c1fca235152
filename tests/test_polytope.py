"""Farkas cuts, the cut-generation loop, and the simplex/box shortcuts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowform.polytope as polytope
from conftest import brute_force_min, polytope_sample
from lowform.detection import SparseForm, detect_exact, extract_sparse_form
from lowform.generate import generate_instance
from lowform.linalg import LpProblem, lp_solve
from lowform.poly import Polynomial
from lowform.polytope import (
    InfeasibleDomainError,
    Polytope,
    UnboundedDomainError,
    box_reduce,
    cut_loop,
    separation_lp,
    simplex_reduce,
    vertex_reduce,
)
from lowform.solvers import Hrep, SolveOptions, Zonotope, basic_feasible_solutions


def simplex3() -> Polytope:
    return Polytope(a=np.ones((1, 3)), b=np.array([1.0]))


ELL_DIFF = np.array([[1.0], [-1.0], [0.0]])  # projection of simplex3 is [-1, 1]

OPTS = SolveOptions(seed=0)


def test_polytope_feasibility_check():
    poly = simplex3()
    x = poly.feasible_point()
    assert np.all(x >= -1e-12) and np.sum(x) == pytest.approx(1.0)
    with pytest.raises(InfeasibleDomainError):
        Polytope(a=np.array([[1.0, 1.0]]), b=np.array([-1.0]))


def test_coordinate_ranges():
    lo, hi = simplex3().coordinate_ranges()
    assert np.allclose(lo, 0.0, atol=1e-9)
    assert np.allclose(hi, 1.0, atol=1e-9)
    unbounded = Polytope(a=np.array([[1.0, -1.0]]), b=np.array([0.0]))
    with pytest.raises(UnboundedDomainError):
        unbounded.coordinate_ranges()


def test_separation_inside_boundary_outside():
    poly = simplex3()
    tau, _ = separation_lp(poly, ELL_DIFF, np.array([0.0]))
    assert tau >= -1e-9
    tau, _ = separation_lp(poly, ELL_DIFF, np.array([1.0]))
    assert tau >= -1e-9
    tau, cut = separation_lp(poly, ELL_DIFF, np.array([2.0]))
    assert tau == pytest.approx(-0.5, abs=1e-9)
    # returned cut is violated at X* = 2 but valid on the projection [-1, 1]
    assert cut.u[0] * 2.0 > cut.rhs + 1e-9
    assert cut.u[0] * 1.0 <= cut.rhs + 1e-9
    assert cut.u[0] * -1.0 <= cut.rhs + 1e-9


def test_separation_cut_cone_membership():
    poly = simplex3()
    _, cut = separation_lp(poly, ELL_DIFF, np.array([2.0]))
    residual = poly.a.T @ cut.lam - ELL_DIFF @ cut.u
    assert np.all(residual >= -1e-9)


def test_cut_loop_quadratic_simplex():
    # h = (x1 - x2)^2 attains 0 on the simplex at x = (t, t, 1-2t)
    sf = SparseForm(f=Polynomial(1, {(2,): 1.0}), ell=ELL_DIFF)
    res = cut_loop(sf, simplex3(), OPTS)
    assert res.converged
    assert res.rho == pytest.approx(0.0, abs=1e-9)
    assert res.witness is not None and res.witness_gap < 1e-8


def test_cut_loop_linear_simplex():
    # vertex images are {1, -1, 0}: minimum of X is -1
    sf = SparseForm(f=Polynomial(1, {(1,): 1.0}), ell=ELL_DIFF)
    res = cut_loop(sf, simplex3(), OPTS)
    assert res.converged
    assert res.rho == pytest.approx(-1.0, abs=1e-9)
    assert res.x_star[0] == pytest.approx(-1.0, abs=1e-8)


def test_cut_loop_constant_objective():
    sf = SparseForm(f=Polynomial(1, {(0,): 7.5}), ell=ELL_DIFF)
    res = cut_loop(sf, simplex3(), OPTS)
    assert res.converged and res.rho == 7.5
    assert len(res.cuts) <= 1 and res.iterations == 0


@pytest.mark.parametrize("loop", ["cut_loop", "box_reduce"])
def test_cut_loops_constant_objective_with_no_forms(loop):
    # m = 0: there is no cut direction, so the loop must return before separating
    sf = SparseForm(f=Polynomial.constant(0, 2.5), ell=np.zeros((3, 0)))
    if loop == "cut_loop":
        poly = simplex3()
        res = cut_loop(sf, poly, OPTS)
        feasible = np.allclose(poly.a @ res.witness, poly.b) and res.witness.min() >= 0.0
    else:
        res = box_reduce(sf, OPTS)
        feasible = np.abs(res.witness).max() <= 1.0
    assert res.converged and res.rho == 2.5 and feasible
    assert res.x_star.shape == (0,) and res.iterations == 0 and len(res.cuts) == 0


def test_cut_loops_reject_zero_cut_budget():
    sf = SparseForm(f=Polynomial(1, {(2,): 1.0}), ell=ELL_DIFF)
    with pytest.raises(ValueError, match="max_cuts"):
        cut_loop(sf, simplex3(), OPTS, max_cuts=0)


def test_cut_loop_generates_needed_facet():
    # projection of the simplex under ell = [e1, e2] is the triangle
    # {X >= 0, X1 + X2 <= 1}; the interval box alone misses the diagonal facet
    ell = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    sf = SparseForm(f=Polynomial(2, {(1, 0): -1.0, (0, 1): -1.0}), ell=ell)
    res = cut_loop(sf, simplex3(), OPTS)
    assert res.converged
    assert res.rho == pytest.approx(-1.0, abs=1e-8)
    assert len(res.cuts) >= 1
    # successive relaxation values tighten monotonically
    assert all(b >= a - 1e-7 for a, b in zip(res.inner_values, res.inner_values[1:]))


def test_cuts_valid_on_feasible_samples():
    ell = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    sf = SparseForm(f=Polynomial(2, {(1, 0): -1.0, (0, 1): -1.0}), ell=ell)
    poly = simplex3()
    res = cut_loop(sf, poly, OPTS)
    rng = np.random.default_rng(1)
    samples = polytope_sample(poly, rng, 200)
    projected = samples @ ell
    for cut in res.cuts.cuts:
        assert np.all(projected @ cut.u <= cut.rhs + 1e-8)


def simplex_images(ell: np.ndarray) -> np.ndarray:
    """The vertex table of ell^T Delta_n: images of the simplex's vertices."""
    points, _ = basic_feasible_solutions(np.ones((1, ell.shape[0])), np.array([1.0]))
    return points @ ell


def test_simplex_projection_examples():
    pts = simplex_images(ELL_DIFF)
    assert [p[0] for p in pts] == [1.0, -1.0, 0.0]
    ell = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    pts = simplex_images(ell)
    assert np.allclose(pts, [[1, 0], [0, 1], [0, 0]])


def test_simplex_projection_hull_membership():
    rng = np.random.default_rng(3)
    ell = rng.standard_normal((5, 2))
    pts = simplex_images(ell)
    weights = rng.dirichlet(np.ones(5), size=100)
    images = (weights @ np.eye(5)) @ ell
    # membership LP: each projected feasible point is a hull combination
    for img in images:
        a_eq = np.vstack([pts.T, np.ones((1, 5))])
        b_eq = np.concatenate([img, [1.0]])
        res = lp_solve(
            LpProblem(c=np.zeros(5), a_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * 5)
        )
        assert res.status == "optimal"


def test_simplex_reduce_matches_cut_loop():
    sf = SparseForm(f=Polynomial(1, {(1,): 1.0}), ell=ELL_DIFF)
    direct = simplex_reduce(sf, OPTS)
    loop = cut_loop(sf, simplex3(), OPTS)
    assert direct.rho == pytest.approx(loop.rho, abs=1e-8)
    assert direct.witness is not None


def test_box_support_examples():
    # the support of the zonotope ell^T [-1, 1]^n in direction u is u . lmo(-u)
    zono = Zonotope(np.array([[1.0], [1.0]]))
    assert np.array([1.0]) @ zono.lmo(np.array([-1.0])) == 2.0
    assert np.array([1.0]) @ zono.lmo(np.array([1.0])) == -2.0
    assert np.array([0.0]) @ zono.lmo(np.array([0.0])) == 0.0


def test_box_support_matches_vertex_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n, m = 6, 2
        ell = rng.standard_normal((n, m))
        c = rng.standard_normal(m)
        best = min(
            float(c @ (ell.T @ np.array(v)))
            for v in itertools.product([-1.0, 1.0], repeat=n)
        )
        assert c @ Zonotope(ell).lmo(c) == pytest.approx(best, abs=1e-12)


def test_box_reduce_matches_full_dimension_oracle():
    rng = np.random.default_rng(11)
    for i in range(3):
        n, m = 5, 2
        ell = rng.standard_normal((n, m))
        f = Polynomial(2, {(2, 0): 1.0, (0, 2): 0.5, (1, 0): float(rng.standard_normal()), (0, 1): 1.0})
        sf = SparseForm(f=f, ell=ell)
        res = box_reduce(sf, SolveOptions(seed=i))
        assert res.converged

        h = f.compose(ell.T)
        box = Hrep(a_ub=np.zeros((0, n)), b_ub=np.zeros(0), lo=[-1.0] * n, hi=[1.0] * n)
        oracle = brute_force_min(h, box, 100_000, seed=60 + i)
        assert abs(res.rho - oracle) < 1e-6


def _box_as_standard_form(sf: SparseForm) -> tuple[SparseForm, Polytope]:
    """[-1,1]^n rewritten as {z >= 0 : [I I I] z = e} with x = z+ - z-."""
    n, m = sf.ell.shape
    poly = Polytope(a=np.hstack([np.eye(n), np.eye(n), np.eye(n)]), b=np.ones(n))
    return SparseForm(f=sf.f, ell=np.vstack([sf.ell, -sf.ell, np.zeros((n, m))])), poly


def test_box_consistency_with_standard_form_rewrite():
    # the zonotope route and the general Farkas loop must agree.
    rng = np.random.default_rng(13)
    n, m = 4, 2
    ell = rng.standard_normal((n, m))
    f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): -0.5, (1, 0): 0.3})
    sf_box = SparseForm(f=f, ell=ell)
    direct = box_reduce(sf_box, SolveOptions(seed=1))
    general = cut_loop(*_box_as_standard_form(sf_box), SolveOptions(seed=1))

    assert direct.converged and general.converged
    assert abs(direct.rho - general.rho) < 1e-6


def test_box_reduce_corpus_matches_cut_loop_and_oracle():
    # m from 1 to 3, degrees 3 and 4.  On case 57 (m = 2, degree 4), steps
    # fitted as cubics let the cut loop report convergence at -1.17260; the
    # minimum is -1.17974.
    for s in [*range(16), 57]:
        m = [1, 2, 2, 3][s % 4]
        n = m + 2 + s % 5
        inst = generate_instance(s, n, m, [3, 4][s % 2])
        sf = extract_sparse_form(inst.h, detect_exact(inst.h).basis)
        res = box_reduce(sf, SolveOptions(seed=s))
        general = cut_loop(*_box_as_standard_form(sf), SolveOptions(seed=s))
        assert res.converged and general.converged, s
        assert abs(res.rho - general.rho) <= 1e-6 * max(1.0, abs(res.rho)), s
        box = Hrep(a_ub=np.zeros((0, n)), b_ub=np.zeros(0), lo=[-1.0] * n, hi=[1.0] * n)
        assert res.rho <= brute_force_min(inst.h, box, 100_000, seed=s + 1) + 1e-6, s
        assert np.abs(res.witness).max() <= 1.0 and res.witness_gap < 1e-8, s
        assert len(res.cuts) == 0 and res.inner_values == [res.rho]


def _spy_lp(monkeypatch) -> list:
    calls = []
    real = polytope.lp_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(polytope, "lp_solve", counted)
    return calls


def test_box_witness_of_a_concave_f_is_the_oracle_vertex(monkeypatch):
    rng = np.random.default_rng(23)
    sf = SparseForm(f=concave_quadratic(rng, 2), ell=rng.standard_normal((6, 2)))
    calls = _spy_lp(monkeypatch)
    res = box_reduce(sf, OPTS)
    assert res.converged and not calls
    assert np.array_equal(np.abs(res.witness), np.ones(6))
    assert res.witness_gap <= 1e-12 * (1.0 + np.abs(res.x_star).sum())


def test_box_witness_of_an_interior_minimizer_takes_one_lp(monkeypatch):
    # f(X) = |X - t|^2 with t the image of an interior point of the box
    rng = np.random.default_rng(29)
    ell = rng.standard_normal((6, 2))
    t = ell.T @ rng.uniform(-0.5, 0.5, 6)
    f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0 * t[0], (0, 1): -2.0 * t[1],
                       (0, 0): float(t @ t)})
    calls = _spy_lp(monkeypatch)
    res = box_reduce(SparseForm(f=f, ell=ell), OPTS)
    assert res.converged and len(calls) == 1
    assert np.abs(res.witness).max() <= 1.0
    assert np.abs(res.x_star - t).max() <= 1e-6 and res.witness_gap <= 1e-8


# ----------------------------------------------------------------------
# vertex_reduce: one solve over the images of Omega's basic solutions
# ----------------------------------------------------------------------


def concave_quadratic(rng: np.random.Generator, m: int) -> Polynomial:
    """c . X - X^T Q X with Q positive definite: its minima sit at vertices."""
    g = rng.standard_normal((m, m))
    q = g @ g.T / m + 0.1 * np.eye(m)
    terms = {tuple(int(i == j) for i in range(m)): float(c)
             for j, c in enumerate(rng.standard_normal(m))}
    for j in range(m):
        for k in range(j, m):
            exp = [0] * m
            exp[j] += 1
            exp[k] += 1
            terms[tuple(exp)] = -float(q[j, k]) * (1.0 if j == k else 2.0)
    return Polynomial(m, terms)


def random_standard_form(rng: np.random.Generator, n: int, s: int) -> Polytope:
    """{x >= 0 : A x = A x0}: a positive first row keeps it bounded, and the
    interior point x0 keeps it nonempty."""
    a = np.vstack([rng.uniform(0.1, 1.0, (1, n)), rng.uniform(-1.0, 1.0, (s - 1, n))])
    return Polytope(a=a, b=a @ rng.dirichlet(np.ones(n)))


@st.composite
def standard_form_problems(draw):
    n = draw(st.integers(2, 7))
    s = draw(st.integers(1, min(3, n - 1)))
    m = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poly = random_standard_form(rng, n, s)
    return SparseForm(f=concave_quadratic(rng, m), ell=rng.standard_normal((n, m))), poly


@settings(max_examples=40, deadline=None)
@given(standard_form_problems())
def test_vertex_reduce_matches_cut_loop(case):
    sf, poly = case
    res = vertex_reduce(sf, poly, OPTS)
    ref = cut_loop(sf, poly, OPTS)
    assert res.converged and not res.cuts.cuts
    assert abs(res.rho - ref.rho) <= 1e-6 * max(1.0, abs(res.rho))
    w = res.witness
    assert np.abs(poly.a @ w - poly.b).max() <= 1e-9
    assert w.min() >= 0.0
    assert np.allclose(sf.ell.T @ w, res.x_star, rtol=0.0, atol=1e-9)
    assert res.witness_gap <= 1e-9


@settings(max_examples=40, deadline=None)
@given(standard_form_problems())
def test_vertex_witness_is_read_off_the_table(case):
    # a concave f's X* is a vertex image, so the witness is a table row; it
    # must be the point HiGHS's convex weights over the table give
    sf, poly = case
    res = vertex_reduce(sf, poly, OPTS)
    vertices = poly.table[0]
    w = res.witness
    assert any(np.array_equal(w, row) for row in vertices)
    assert np.abs(poly.a @ w - poly.b).max() <= 1e-7 and w.min() >= 0.0
    assert res.witness_gap <= 1e-12 * (1.0 + np.abs(res.x_star).sum())
    k = vertices.shape[0]
    lp = lp_solve(LpProblem(
        c=np.zeros(k),
        a_eq=np.vstack([(vertices @ sf.ell).T, np.ones((1, k))]),
        b_eq=np.append(res.x_star, 1.0),
        bounds=[(0.0, None)] * k,
    ))
    assert lp.status == "optimal"
    lp_witness = np.maximum(lp.point, 0.0) @ vertices
    assert np.abs(w - lp_witness).max() <= 1e-12 * np.abs(lp_witness).max()


@st.composite
def interior_minimizer_problems(draw):
    """A random bounded polytope and f(X) = |X - t|^2, convex, with t the
    image of a mixture of all of Omega's vertices: X* = t is no vertex
    image."""
    n = draw(st.integers(2, 7))
    s = draw(st.integers(1, min(3, n - 1)))
    m = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poly = random_standard_form(rng, n, s)
    ell = rng.standard_normal((n, m))
    vertices = poly.table[0]
    t = ell.T @ (rng.dirichlet(np.ones(vertices.shape[0])) @ vertices)
    terms = {(0,) * m: float(t @ t)}
    for j, e in enumerate(np.eye(m, dtype=int)):
        terms[tuple(2 * e)] = 1.0
        terms[tuple(e)] = -2.0 * float(t[j])
    return SparseForm(f=Polynomial(m, terms), ell=ell), poly


@settings(max_examples=40, deadline=None)
@given(interior_minimizer_problems())
def test_vertex_witness_of_an_interior_minimizer_comes_from_the_lp(case):
    # X* is no table row's image, so one LP over Omega finds the witness
    sf, poly = case
    res = vertex_reduce(sf, poly, OPTS)
    w = res.witness
    assert not any(np.array_equal(w, row) for row in poly.table[0])
    assert w.min() >= 0.0
    assert np.abs(poly.a @ w - poly.b).max() <= 1e-9
    assert np.abs(sf.ell.T @ w - res.x_star).sum() <= 1e-9
    assert res.witness_gap <= 1e-9


@pytest.mark.parametrize("m, seed", [(4, 2), (5, 1)])
def test_cut_loop_matches_vertex_reduce_at_m_4_and_5(monkeypatch, m, seed):
    # Omega = {x >= 0 : sum(x) = 1, B x = B x0} in R^8.  The inner regions
    # are 4- and 5-dimensional; at m = 5 the cuts pass the subset cap, and
    # qhull builds those tables after one center LP each.  At m = 4 the
    # result depends on Hrep's own starts.
    import scipy.spatial

    import lowform.solvers as solvers

    inst = generate_instance(300 + seed, 8, m, 3)
    sf = SparseForm(inst.f0, inst.ell0)
    rng = np.random.default_rng(seed)
    b_rows, x0 = rng.uniform(0.0, 1.0, (2, 8)), rng.dirichlet(np.ones(8))
    poly = Polytope(np.vstack([np.ones((1, 8)), b_rows]), np.concatenate([[1.0], b_rows @ x0]))
    builds = []
    real_hull, real_lp = scipy.spatial.HalfspaceIntersection, solvers.lp_solve
    monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection",
                        lambda *a: builds.append("qhull") or real_hull(*a))
    monkeypatch.setattr(solvers, "lp_solve", lambda prob: builds.append("lp") or real_lp(prob))
    res = cut_loop(sf, poly, SolveOptions(seed=seed))
    assert builds == ["lp", "qhull"] * (len(builds) // 2)
    assert (len(builds) > 0) == (m == 5)
    exact = vertex_reduce(sf, Polytope(poly.a, poly.b), SolveOptions(seed=seed))
    assert res.converged and exact.converged
    assert abs(res.rho - exact.rho) <= 1e-9


def _lp_min(poly: Polytope, c: np.ndarray) -> float:
    """min c . x over the polytope, by HiGHS."""
    bounds = [(0.0, None)] * poly.num_vars
    return lp_solve(LpProblem(c=c, a_eq=poly.a, b_eq=poly.b, bounds=bounds)).value


@st.composite
def certificate_cases(draw):
    """A random bounded polytope, a direction, a tolerance and a row mask
    that keeps at least one row of its vertex table."""
    n = draw(st.integers(2, 7))
    s = draw(st.integers(1, min(3, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poly = random_standard_form(rng, n, s)
    keep = rng.random(poly.table[0].shape[0]) < 0.5
    keep[rng.integers(keep.size)] = True
    eps = draw(st.sampled_from([1e-12, 1e-8, 1e-3, 0.1, 0.5]))
    return poly, rng.standard_normal(n), eps, keep


@settings(max_examples=60, deadline=None)
@given(certificate_cases())
def test_dual_certificate_from_the_vertex_table(case):
    poly, c, eps, keep = case
    ones = np.ones(poly.num_vars)
    max_sum = -_lp_min(poly, -ones)
    lp_best = _lp_min(poly, c)
    # complete: the full table proves the polytope bounded and finds min c . x
    sum_bound = polytope._certified_sum_bound(poly)
    assert sum_bound is not None and max_sum <= sum_bound * (1.0 + 1e-9)
    table_min = float(np.min(poly.table[0] @ c))
    y = polytope._dual_certificate(poly, c, 1e-9 / sum_bound)
    assert y is not None
    assert y @ poly.b == pytest.approx(table_min, rel=1e-9, abs=1e-9)
    assert lp_best >= table_min - 1e-9 * sum_bound - 1e-9 * max(1.0, abs(table_min))
    # sound: a table that misses rows certifies nothing false
    points, bases = poly.table
    poly.table = points[keep], bases[keep]
    sum_bound = polytope._certified_sum_bound(poly)
    assert sum_bound is None or max_sum <= sum_bound * (1.0 + 1e-9)
    table_min = float(np.min(points[keep] @ c))
    if polytope._dual_certificate(poly, c, eps) is not None:
        assert lp_best >= table_min - eps * max_sum - 1e-9 * max(1.0, abs(table_min))


def test_sum_bound_ignores_the_rows_of_an_incomplete_table():
    # {x >= 0 : x1 + x2 + 0.6 x3 = 1} without its vertex x3 = 5/3: e1's basis
    # still certifies (reduced costs 0, 0, -0.4 >= -1/2), and its multiplier
    # bounds sum(x) by 5/3, the true maximum, not by the rows' 1
    poly = Polytope(a=np.array([[1.0, 1.0, 0.6]]), b=np.array([1.0]))
    points, bases = poly.table
    poly.table = points[:2], bases[:2]
    assert polytope._certified_sum_bound(poly) == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_dual_certificate_never_bounds_a_ray():
    # {x >= 0 : x1 - x2 = 0} holds the ray (1, 1); its table is the origin twice
    poly = Polytope(a=np.array([[1.0, -1.0]]), b=np.array([0.0]))
    assert poly.table[0].shape[0] == 2
    assert polytope._dual_certificate(poly, -np.ones(2), 0.5) is None
    assert polytope._certified_sum_bound(poly) is None


def _spy_cut_loop(monkeypatch):
    calls = []
    real = polytope.cut_loop

    def spied(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(polytope, "cut_loop", spied)
    return calls


@pytest.mark.parametrize("kind", ["duplicated_row", "over_cap"])
def test_vertex_reduce_falls_back_to_cut_loop(monkeypatch, kind):
    rng = np.random.default_rng(17)
    if kind == "duplicated_row":
        # A is row-rank-deficient: no basis is regular, the table is empty
        base = random_standard_form(rng, 5, 2)
        poly = Polytope(a=np.vstack([base.a, base.a[1]]), b=np.append(base.b, base.b[1]))
        assert basic_feasible_solutions(poly.a, poly.b)[0].shape == (0, 5)
        assert poly.table is None
    else:
        # C(18, 9) = 48,620 bases exceed the table cap
        poly = random_standard_form(rng, 18, 9)
        assert poly.table is None and basic_feasible_solutions(poly.a, poly.b) is None
    sf = SparseForm(f=concave_quadratic(rng, 2), ell=rng.standard_normal((poly.num_vars, 2)))
    calls = _spy_cut_loop(monkeypatch)
    res = vertex_reduce(sf, poly, OPTS)
    assert len(calls) == 1
    assert res.converged and res.rho == cut_loop(sf, poly, OPTS).rho


def test_vertex_reduce_gap_check_catches_incomplete_table(monkeypatch):
    # drop the vertex e2, whose image -1 is where f = X is least: the
    # certificate at X* = 0 fails (e2's reduced cost is -1), the LP finds
    # e2, so the table is not P and the cut loop answers
    poly = simplex3()
    points, bases = poly.table
    poly.table = points[[0, 2]], bases[[0, 2]]
    calls = _spy_cut_loop(monkeypatch)
    sf = SparseForm(f=Polynomial(1, {(1,): 1.0}), ell=ELL_DIFF)
    res = vertex_reduce(sf, poly, OPTS)
    assert len(calls) == 1 and res.rho == pytest.approx(-1.0, abs=1e-9)


def test_vertex_reduce_constant_objective(monkeypatch):
    # the table's first row is the witness: no LP, not even phase one
    calls = _spy_cut_loop(monkeypatch)
    lps = _spy_lp(monkeypatch)
    sf = SparseForm(f=Polynomial(1, {(0,): 7.5}), ell=ELL_DIFF)
    poly = simplex3()
    res = vertex_reduce(sf, poly, OPTS)
    assert res.converged and res.rho == 7.5
    assert res.iterations == 0 and res.inner_values == [] and not calls and not lps
    assert np.allclose(poly.a @ res.witness, poly.b) and res.witness.min() >= 0.0
    assert np.allclose(res.x_star, ELL_DIFF.T @ res.witness)


def test_vertex_reduce_rejects_unbounded_polytope():
    sf = SparseForm(f=Polynomial(1, {(1,): 1.0}), ell=np.array([[1.0], [0.0]]))
    with pytest.raises(UnboundedDomainError):
        vertex_reduce(sf, Polytope(a=np.array([[1.0, -1.0]]), b=np.array([0.0])), OPTS)


def test_basic_feasible_solutions_are_the_vertices():
    # {x >= 0 : x1 + x2 + x3 = 1, x1 - x2 = 0}: vertices (1/2, 1/2, 0) and e3
    a = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    verts, bases = basic_feasible_solutions(a, np.array([1.0, 0.0]))
    assert np.allclose(np.unique(verts.round(12), axis=0), [[0, 0, 1], [0.5, 0.5, 0]])
    # each row is the basic solution of its basis: zero off it, a @ x = b on it
    for x, basis in zip(verts, bases):
        assert not np.delete(x, basis).any()
        assert np.allclose(a[:, basis] @ x[basis], [1.0, 0.0])
