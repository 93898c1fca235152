"""Farkas cuts, the cut-generation loop, and the simplex/box shortcuts."""

import itertools

import numpy as np
import pytest

from conftest import brute_force_min
from lowform.detection import SparseForm
from lowform.linalg import LpProblem, lp_solve
from lowform.poly import Polynomial
from lowform.polytope import (
    Cut,
    InfeasibleDomainError,
    Polytope,
    UnboundedDomainError,
    box_cut_loop,
    box_support,
    cut_loop,
    separation_lp,
    simplex_projection,
    simplex_reduce,
)
from lowform.solvers import Hrep, SolveOptions


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


def test_cut_loops_reject_zero_cut_budget():
    sf = SparseForm(f=Polynomial(1, {(2,): 1.0}), ell=ELL_DIFF)
    with pytest.raises(ValueError, match="max_cuts"):
        cut_loop(sf, simplex3(), OPTS, max_cuts=0)
    with pytest.raises(ValueError, match="max_cuts"):
        box_cut_loop(sf, OPTS, max_cuts=0)


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
    samples = poly.sample(rng, 200)
    projected = samples @ ell
    for cut in res.cuts.cuts:
        assert np.all(projected @ cut.u <= cut.rhs + 1e-8)


def test_simplex_projection_examples():
    pts = simplex_projection(ELL_DIFF)
    assert [p[0] for p in pts] == [1.0, -1.0, 0.0]
    ell = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    pts = simplex_projection(ell)
    assert np.allclose(pts, [[1, 0], [0, 1], [0, 0]])


def test_simplex_projection_hull_membership():
    rng = np.random.default_rng(3)
    ell = rng.standard_normal((5, 2))
    pts = np.array(simplex_projection(ell))
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
    assert box_support(np.array([[1.0], [1.0]]), np.array([1.0])) == 2.0
    assert box_support(np.array([[1.0], [1.0]]), np.array([0.0])) == 0.0


def test_box_support_matches_vertex_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n, m = 6, 2
        ell = rng.standard_normal((n, m))
        u = rng.standard_normal(m)
        direction = ell @ u
        best = max(
            float(direction @ np.array(v))
            for v in itertools.product([-1.0, 1.0], repeat=n)
        )
        assert box_support(ell, u) == pytest.approx(best, abs=1e-12)


def test_box_cut_loop_matches_full_dimension_oracle():
    rng = np.random.default_rng(11)
    for i in range(3):
        n, m = 5, 2
        ell = rng.standard_normal((n, m))
        f = Polynomial(2, {(2, 0): 1.0, (0, 2): 0.5, (1, 0): float(rng.standard_normal()), (0, 1): 1.0})
        sf = SparseForm(f=f, ell=ell)
        res = box_cut_loop(sf, SolveOptions(seed=i))
        assert res.converged

        h = f.compose(ell.T)
        box = Hrep(a_ub=np.zeros((0, n)), b_ub=np.zeros(0), lo=[-1.0] * n, hi=[1.0] * n)
        oracle = brute_force_min(h, box, 100_000, seed=60 + i)
        assert abs(res.rho - oracle) < 1e-6


def test_box_consistency_with_standard_form_rewrite():
    # [-1,1]^n rewritten as {z >= 0 : [I I I] z = e} with x = z+ - z-;
    # the support-function loop and the general Farkas loop must agree.
    rng = np.random.default_rng(13)
    n, m = 4, 2
    ell = rng.standard_normal((n, m))
    f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): -0.5, (1, 0): 0.3})
    sf_box = SparseForm(f=f, ell=ell)
    direct = box_cut_loop(sf_box, SolveOptions(seed=1))

    a = np.hstack([np.eye(n), np.eye(n), np.eye(n)])
    poly = Polytope(a=a, b=np.ones(n))
    ell_lifted = np.vstack([ell, -ell, np.zeros((n, m))])
    sf_std = SparseForm(f=f, ell=ell_lifted)
    general = cut_loop(sf_std, poly, SolveOptions(seed=1))

    assert direct.converged and general.converged
    assert abs(direct.rho - general.rho) < 1e-6


def test_cut_dataclass_box_cuts_have_no_multiplier():
    sf = SparseForm(
        f=Polynomial(1, {(1,): 1.0}), ell=np.array([[1.0], [0.5], [-0.25]])
    )
    res = box_cut_loop(sf, OPTS)
    assert res.converged
    for cut in res.cuts.cuts:
        assert isinstance(cut, Cut) and cut.lam is None
        assert cut.rhs == pytest.approx(box_support(sf.ell, cut.u), abs=1e-12)
