"""Multi-start solvers on balls, spheres, polyhedra, plus the oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lowform.solvers as solvers
from conftest import (
    brute_force_min,
    hrep_contains,
    hrep_linprog_vertex,
    random_polynomial,
    reference_evaluate,
    serial_multi_start,
)
from lowform.detection import SparseForm
from lowform.generate import generate_instance
from lowform.poly import GradientEvaluator, Polynomial
from lowform.solvers import (
    Hrep,
    InfeasibleRegionError,
    SolveOptions,
    VertexTable,
    _ball_rows,
    _descend,
    _simplex_rows,
    _sphere_rows,
    minimize_ball,
    minimize_polytope,
    minimize_sphere,
    minimize_zonotope,
)
from lowform.sphere import reduce_sphere

OPTS = SolveOptions(seed=0)


def test_minimize_ball_convex():
    p = Polynomial(1, {(2,): 2.0})
    res = minimize_ball(p, OPTS)
    assert res.status == "converged"
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert abs(res.point[0]) < 1e-6


def test_minimize_ball_boundary():
    p = Polynomial(1, {(1,): 1.0})
    res = minimize_ball(p, OPTS)
    assert res.value == pytest.approx(-1.0, abs=1e-10)
    assert res.point[0] == pytest.approx(-1.0, abs=1e-9)


def test_minimize_ball_matches_oracle_quartics():
    rng = np.random.default_rng(2)
    for i in range(8):
        m = int(rng.integers(1, 3))
        p = random_polynomial(rng, m, 4)
        res = minimize_ball(p, SolveOptions(seed=i))
        oracle = brute_force_min(p, "ball", 50_000, seed=100 + i)
        assert res.value <= oracle + 1e-6
        assert abs(res.value - oracle) < 1e-6


def test_minimize_sphere_linear():
    p = Polynomial(2, {(1, 0): 1.0})
    res = minimize_sphere(p, OPTS)
    assert res.value == pytest.approx(-1.0, abs=1e-10)
    assert np.allclose(res.point, [-1.0, 0.0], atol=1e-6)


def test_minimize_sphere_kernel_direction():
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})  # (x1+x2)^2
    res = minimize_sphere(p, OPTS)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    r = 1 / math.sqrt(2)
    assert np.allclose(np.abs(res.point), [r, r], atol=1e-6)


def test_minimize_polytope_interval():
    region = Hrep(a_ub=np.zeros((0, 1)), b_ub=np.zeros(0), lo=[-1.0], hi=[1.0])
    lin = minimize_polytope(Polynomial(1, {(1,): 1.0}), region, OPTS)
    assert lin.value == pytest.approx(-1.0, abs=1e-10)
    quad = minimize_polytope(Polynomial(1, {(2,): 1.0}), region, OPTS)
    assert quad.value == pytest.approx(0.0, abs=1e-12)


def test_minimize_polytope_matches_oracle():
    rng = np.random.default_rng(4)
    for i in range(6):
        m = int(rng.integers(1, 3))
        rows = rng.standard_normal((3, m))
        rhs = rng.uniform(0.5, 1.5, 3)
        region = Hrep(a_ub=rows, b_ub=rhs, lo=[-1.5] * m, hi=[1.5] * m)
        p = random_polynomial(rng, m, 4)
        res = minimize_polytope(p, region, SolveOptions(seed=i))
        oracle = brute_force_min(p, region, 50_000, seed=200 + i)
        assert res.value <= oracle + 1e-6
        assert abs(res.value - oracle) < 1e-6
        assert hrep_contains(region, res.point, tol=1e-8)


def test_oracle_examples():
    p = Polynomial(2, {(1, 0): 1.0})
    assert brute_force_min(p, "sphere", 100_000, seed=1) == pytest.approx(-1.0, abs=1e-6)
    norm2 = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    assert brute_force_min(norm2, "ball", 100_000, seed=1) == pytest.approx(0.0, abs=1e-9)


def test_oracle_self_consistency_resolution():
    rng = np.random.default_rng(6)
    p = random_polynomial(rng, 2, 4)
    lo = brute_force_min(p, "sphere", 50_000, seed=3)
    hi = brute_force_min(p, "sphere", 100_000, seed=4)
    assert abs(lo - hi) < 1e-6


def test_oracle_dimension_cap():
    p = Polynomial(7, {(2, 0, 0, 0, 0, 0, 0): 1.0})
    with pytest.raises(ValueError):
        brute_force_min(p, "ball", 1000, seed=0)


def test_feasibility_of_results():
    rng = np.random.default_rng(8)
    p = random_polynomial(rng, 2, 3)
    ball = minimize_ball(p, OPTS)
    assert np.linalg.norm(ball.point) <= 1 + 1e-8
    sph = minimize_sphere(p, OPTS)
    assert abs(np.linalg.norm(sph.point) - 1) <= 1e-8
    assert abs(ball.value - p.evaluate(ball.point)) < 1e-12
    assert abs(sph.value - p.evaluate(sph.point)) < 1e-12


def test_monotone_descent_traces():
    rng = np.random.default_rng(9)
    p = random_polynomial(rng, 2, 4)
    evaluator = GradientEvaluator(p)
    starts = np.array([[0.4, -0.3], [0.6, 0.8], [-0.9, 0.1]])
    for project in (_ball_rows, _sphere_rows):
        traces = [[] for _ in starts]
        _descend(evaluator, starts, 200, 1e-9, project, traces=traces)
        for trace in traces:
            assert len(trace) >= 2
            assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    # over an H-rep square, from the weights whose image is its center
    region = Hrep(a_ub=np.zeros((0, 2)), b_ub=np.zeros(0), lo=[-1, -1], hi=[1, 1])
    rows = region.points.shape[0]
    trace = []
    _descend(evaluator, np.full((1, rows), 1.0 / rows), 200, 1e-9, _simplex_rows,
             lift=region.points, traces=[trace])
    assert len(trace) >= 2
    assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 4),
    degree=st.integers(2, 5),
    starts=st.sampled_from([1, 2, 7, 32]),
    max_iter=st.sampled_from([3, 20, 500]),
    tol=st.sampled_from([1e-9, 1e-12]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=2, degree=4, starts=32, max_iter=500, tol=1e-9, seed=0)
@example(m=3, degree=5, starts=7, max_iter=3, tol=1e-12, seed=1)
def test_lockstep_descent_equals_serial_runs_bitwise(m, degree, starts, max_iter, tol, seed):
    # the lockstep solvers on the ball, the sphere, a zonotope (x clipped to
    # the box) and a vertex table (weights projected onto the simplex)
    # return exactly the best of the serial one-start runs from the same
    # drawn starts, restart included
    rng = np.random.default_rng(seed)
    p = random_polynomial(rng, m, degree)
    ell, points = rng.standard_normal((m + 2, m)), rng.standard_normal((m + 3, m))
    opts = SolveOptions(starts=starts, max_iter=max_iter, tol=tol, seed=seed)
    for domain, minimize, lift in (
        ("ball", minimize_ball, None),
        ("sphere", minimize_sphere, None),
        ("box", lambda p, opts: minimize_zonotope(p, ell, opts), ell),
        ("simplex", lambda p, opts: minimize_polytope(p, VertexTable(points), opts), points),
    ):
        res = minimize(p, opts)
        value, point, iterations, status, used = serial_multi_start(
            p, domain, starts, max_iter, tol, seed, lift=lift
        )
        point = np.asarray(point, dtype=float)
        assert np.float64(res.value).tobytes() == np.float64(value).tobytes(), domain
        if lift is not None:
            assert res.preimage.tobytes() == point.tobytes(), domain
            point = point @ lift
        assert res.point.tobytes() == point.tobytes(), domain
        assert (res.iterations, res.status, res.starts_used) == (iterations, status, used), domain


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), degree=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(m=3, degree=4, seed=0)
def test_rounding_scale_stop_matches_the_step_floor(m, degree, seed):
    # stopping a start once a rejected trial predicts a decrease below p's
    # rounding finds the best value that halving down to a step of 1e-16 finds
    p = random_polynomial(np.random.default_rng(seed), m, degree)
    for domain, minimize in (("ball", minimize_ball), ("sphere", minimize_sphere)):
        res = minimize(p, SolveOptions(seed=seed))
        floor_value = serial_multi_start(p, domain, 32, 500, 1e-9, seed, min_step_floor=True)[0]
        assert abs(res.value - floor_value) <= 1e-12 * max(1.0, abs(floor_value)), domain


def test_reduced_quartic_takes_few_evaluation_rounds(monkeypatch):
    # the reduced ball problem of generate_instance(0, n=10, m=3, degree=4):
    # 19 rounds of GradientEvaluator.rows; 93 when every start halved its
    # trial step down to 1e-16 before stopping
    inst = generate_instance(0, 10, 3, 4)
    g = reduce_sphere(SparseForm(f=inst.f0, ell=inst.ell0)).g
    calls = []
    real = GradientEvaluator.rows

    def counted(self, points):
        calls.append(len(points))
        return real(self, points)

    monkeypatch.setattr(GradientEvaluator, "rows", counted)
    res = minimize_ball(g, SolveOptions(seed=0))
    assert res.status == "converged" and res.starts_used == 32
    assert len(calls) <= 30


def test_every_start_of_a_steep_convex_octic_reaches_its_minimum():
    # 1e8 (x1^8 + x2^8) plus a convex quadratic: S falls by nine orders of
    # magnitude from the starts to the minimizer, so a stop rule that read
    # S at the start would end the runs up to 1e-11 apart
    p = Polynomial(2, {(8, 0): 1e8, (0, 8): 1e8, (2, 0): 10.0, (1, 1): -3.0,
                       (0, 2): 10.0, (1, 0): -1.0, (0, 1): 0.5})
    starts = np.array([[1.0, 0.0], [0.0, -1.0], [-0.7, 0.7], [0.6, 0.8], [-0.5, -0.5]])
    values = [value for _, value, _, _ in _descend(GradientEvaluator(p), starts, 500, 1e-9,
                                                    _ball_rows)]
    assert max(values) - min(values) <= 1e-15


@pytest.mark.parametrize("terms, start, sphere", [
    ({}, [0.0, 0.0], False),
    ({}, [0.0, 1.0], True),
    ({(0, 0): 2.5}, [0.3, -0.4], False),
    ({(0, 0): 2.5}, [0.6, 0.8], True),
    # S(x) = 0 at the start; x1 + 4 x1^2 rejects its first trial there
    ({(1, 0): 1.0, (1, 1): 1.0}, [0.0, 0.0], False),
    ({(1, 0): 1.0, (1, 1): 1.0}, [0.0, 1.0], True),
    ({(1, 0): 1.0, (2, 0): 4.0}, [0.0, 0.0], False),
], ids=["zero-ball", "zero-sphere", "constant-ball", "constant-sphere",
        "x1+x1x2-ball", "x1+x1x2-sphere", "x1+4x1^2-ball"])
def test_degenerate_descents_converge(terms, start, sphere):
    p = Polynomial(2, terms)
    evaluator = GradientEvaluator(p)
    assert evaluator.rows(np.array([start]))[1][0] == abs(terms.get((0, 0), 0.0))
    ((x, value, iterations, converged),) = _descend(
        evaluator, np.array([start]), 500, 1e-9, _sphere_rows if sphere else _ball_rows
    )
    assert converged and iterations < 500
    assert value <= p.evaluate(np.array(start)) and value == p.evaluate(x)
    if not sphere and (2, 0) in terms:
        assert value == pytest.approx(-1.0 / 16.0, abs=1e-15)  # at x1 = -1/8


SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


SKEWED = Polynomial(2, {(2, 0): 1.0, (1, 1): 1.8, (0, 2): 1.0, (1, 0): -0.24, (0, 1): -0.14})


@pytest.mark.parametrize("region", [
    VertexTable(SQUARE),
    Hrep(a_ub=np.zeros((0, 2)), b_ub=np.zeros(0), lo=[-1.0, -1.0], hi=[1.0, 1.0]),
], ids=["VertexTable", "Hrep"])
def test_polytope_descent_reaches_interior_minimizer(region):
    # x^2 + 1.8xy + y^2 - 0.24x - 0.14y: Hessian eigenvalues 3.8 and 0.2, and
    # its minimizer (0.3, -0.2) lies inside the square, off every vertex; the
    # weights of the best start mix the square's rows into it
    res = minimize_polytope(SKEWED, region, OPTS)
    assert res.status == "converged"
    assert np.abs(res.point - [0.3, -0.2]).max() < 1e-7
    weights = res.preimage
    assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-15
    assert res.point.tobytes() == (weights @ region.points).tobytes()


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_polytope_descent_matches_dense_grid(degree):
    # no point of a dense grid of the square, evaluated by the reference
    # term loop, is below the descent's minimum over the square's table,
    # and the minimizer is the mixture of the table's rows by its weights
    grid = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, 201)] * 2), axis=-1).reshape(-1, 2)
    for seed in range(20):
        p = random_polynomial(np.random.default_rng([degree, seed]), 2, degree)
        res = minimize_polytope(p, VertexTable(SQUARE), SolveOptions(seed=seed))
        assert res.status == "converged", seed
        assert np.abs(res.point).max() <= 1.0 + 1e-15 and res.preimage.min() >= 0.0
        assert res.value == pytest.approx(reference_evaluate(p, res.point), abs=1e-12)
        assert res.value <= reference_evaluate(p, grid).min() + 1e-12, seed


@pytest.mark.parametrize("cubic", [0.0, 1e-10, 1e-6])
def test_descent_to_the_minimum_of_a_near_quadratic(cubic):
    # p(s) = (s - 0.3)^2 + cubic s^3 over the interval [0, 1], as the hull
    # of the rows 0 and 1 and as the zonotope of the box [-1, 1] under 1/2
    # (shifted to [-1/2, 1/2]): the descent reaches the root of p' that the
    # cancellation-free quadratic formula gives
    root = 0.6 / (1.0 + math.sqrt(1.0 + 1.8 * cubic))
    p = Polynomial(1, {(2,): 1.0, (1,): -0.6, (0,): 0.09, (3,): cubic})
    half = Polynomial(1, {(2,): 1.0, (1,): 0.4, (0,): 0.04}) + cubic * Polynomial(
        1, {(3,): 1.0, (2,): 1.5, (1,): 0.75, (0,): 0.125})  # p(s + 1/2)
    for res, s in (
        (minimize_polytope(p, VertexTable(np.array([[0.0], [1.0]])), OPTS), 0.0),
        (minimize_zonotope(half, np.array([[0.5]]), OPTS), 0.5),
    ):
        assert res.status == "converged"
        assert res.point[0] + s == pytest.approx(root, abs=1e-8)
        assert res.value == pytest.approx((root - 0.3) ** 2 + cubic * root**3, abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1.0, -1.0]), min_size=1, max_size=8))
@example([0.5, 0.5])
@example([1.0, 1.0, 1.0])
@example([-3.0])
def test_simplex_rows_satisfy_kkt(entries):
    # the projection w of v onto the probability simplex is its KKT point:
    # w >= 0, sum(w) = 1, and one theta with v - w = theta where w > 0 and
    # v <= theta where w = 0
    v = np.array(entries)
    w = _simplex_rows(np.vstack([v, np.zeros_like(v)]))[0]
    scale = np.finfo(float).eps * 4.0 * (1.0 + np.abs(v).max()) * v.size
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= scale
    support = w > 0.0
    assert support.any()
    theta = v[support] - w[support]
    assert theta.max() - theta.min() <= scale
    assert np.all(v[~support] <= theta.mean() + scale)


def test_determinism_bitwise():
    rng = np.random.default_rng(10)
    p = random_polynomial(rng, 2, 4)
    a = minimize_ball(p, SolveOptions(seed=42))
    b = minimize_ball(p, SolveOptions(seed=42))
    assert a.value == b.value
    assert a.point.tobytes() == b.point.tobytes()
    assert a.iterations == b.iterations and a.starts_used == b.starts_used
    c = minimize_sphere(p, SolveOptions(seed=42))
    d = minimize_sphere(p, SolveOptions(seed=42))
    assert c.value == d.value and c.point.tobytes() == d.point.tobytes()


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(starts=0)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolveOptions(tol=tol)


# ----------------------------------------------------------------------
# the vertex-table LMO of Hrep
# ----------------------------------------------------------------------

# Row entries are 0 or of moderate size, so that the LP solver's own
# small-coefficient cleanup does not change the region it is given.
_ENTRY = st.sampled_from([0.0]) | st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)


@st.composite
def bounded_regions(draw, dims=st.integers(1, 5), row_counts=lambda dim: st.integers(0, 6)):
    """A box in a dimension drawn from ``dims`` plus rows, as many as
    ``row_counts(dim)`` draws, that keep a drawn point x0 feasible.

    Rows are random, parallel to an earlier row (same or opposite side), or
    exact duplicates; a slack of 0 puts x0 on the row, which makes vertices
    degenerate when several rows share it.
    """
    dim = draw(dims)
    vec = st.lists(_ENTRY, min_size=dim, max_size=dim).map(np.array)
    lo = np.array(draw(st.lists(st.floats(-2.0, -0.1), min_size=dim, max_size=dim)))
    hi = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=dim, max_size=dim)))
    t = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)))
    x0 = lo + t * (hi - lo)
    rows, rhs = [], []
    for _ in range(draw(row_counts(dim))):
        kind = draw(st.sampled_from(["random", "parallel", "duplicate"])) if rows else "random"
        if kind == "duplicate":
            rows.append(rows[-1])
            rhs.append(rhs[-1])
            continue
        if kind == "parallel":
            a = draw(st.sampled_from([-1.0, 0.5, 2.0])) * rows[draw(st.integers(0, len(rows) - 1))]
        else:
            a = draw(vec)
        slack = draw(st.sampled_from([0.0]) | st.floats(0.0, 2.0))
        rows.append(a)
        rhs.append(float(a @ x0) + slack)
    region = Hrep(a_ub=np.array(rows).reshape(-1, dim), b_ub=rhs, lo=lo, hi=hi)
    direction = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    return region, np.array(direction)


def _assert_lmo_matches_linprog(region: Hrep, direction: np.ndarray):
    v = region.lmo(direction)
    opt = float(direction @ hrep_linprog_vertex(region, direction))
    assert abs(direction @ v - opt) <= 1e-9 * max(1.0, abs(opt))
    assert hrep_contains(region, v)


@settings(max_examples=300, deadline=None)
@given(bounded_regions())
def test_vertex_table_lmo_matches_linprog(case):
    _assert_lmo_matches_linprog(*case)


def _counting_lp(monkeypatch):
    calls = []
    real = solvers.lp_solve

    def counted(prob):
        calls.append(prob)
        return real(prob)

    monkeypatch.setattr(solvers, "lp_solve", counted)
    return calls


def test_vertex_table_lmo_solves_no_lp(monkeypatch):
    calls = _counting_lp(monkeypatch)
    region = Hrep(a_ub=[[1.0, 1.0]], b_ub=[1.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = region.lmo(rng.standard_normal(2))
        assert hrep_contains(region, v)
    assert np.allclose(region.lmo(np.array([-1.0, -2.0])), [0.0, 1.0])
    assert calls == []


# C(rows + 2 dim, dim) exceeds the subset cap from 24 rows in dimension 4
# and from 13 rows in dimension 5
_ABOVE_CAP_ROWS = {4: st.integers(24, 30), 5: st.integers(13, 18)}


@settings(max_examples=40, deadline=None)
@given(bounded_regions(st.sampled_from([4, 5]), _ABOVE_CAP_ROWS.get), st.data())
def test_lmo_above_the_subset_cap_matches_linprog(case, data):
    # qhull builds the table after one LP for the Chebyshev center (a flat
    # region enumerates its subsets after that LP); no lmo call solves one
    region, direction = case
    rows = region.halfspaces()[0].shape[0]
    assert math.comb(rows, region.dim) > solvers._TABLE_MAX_SUBSETS
    coordinate = st.floats(-1.0, 1.0)
    more = data.draw(st.lists(st.lists(coordinate, min_size=region.dim, max_size=region.dim),
                              min_size=1, max_size=5))
    directions = [direction] + [np.array(d) for d in more]
    with pytest.MonkeyPatch.context() as patch:
        calls = _counting_lp(patch)
        for d in directions:
            region.lmo(d)
        assert len(calls) == 1
    for d in directions:
        _assert_lmo_matches_linprog(region, d)


def test_hrep_lmo_solves_no_lp_in_dimension_4(monkeypatch):
    # the skewed quadratic of test_polytope_descent_reaches_interior_minimizer
    # plus z^2 + w^2, over [-1, 1]^4: minimizer (0.3, -0.2, 0, 0)
    calls = _counting_lp(monkeypatch)
    box4 = Hrep(a_ub=np.zeros((0, 4)), b_ub=np.zeros(0), lo=[-1.0] * 4, hi=[1.0] * 4)
    assert np.allclose(box4.lmo(np.array([1.0, -1.0, 2.0, -2.0])), [-1, 1, -1, 1])
    p = Polynomial(4, {(2, 0, 0, 0): 1.0, (1, 1, 0, 0): 1.8, (0, 2, 0, 0): 1.0,
                       (1, 0, 0, 0): -0.24, (0, 1, 0, 0): -0.14,
                       (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0})
    res = minimize_polytope(p, box4, OPTS)
    assert res.status == "converged"
    assert np.abs(res.point - [0.3, -0.2, 0.0, 0.0]).max() < 1e-7
    assert calls == []


@pytest.mark.parametrize("a_ub, b_ub, lo, hi", [
    ([[1.0, 1.0], [1.0, 1.0]], [1.0], [0.0] * 4, [1.0] * 4),  # 2 columns, not 4
    ([1.0, 1.0, 1.0, 1.0], [1.0], [0.0] * 4, [1.0] * 4),  # a flat a_ub
    ([[1.0, 1.0]], [1.0, 2.0], [0.0, 0.0], [1.0, 1.0]),  # b_ub too long
    ([[1.0, 1.0]], [[1.0]], [0.0, 0.0], [1.0, 1.0]),  # b_ub not a vector
    ([], [], [0.0, 0.0], [1.0, 1.0, 1.0]),  # lo and hi disagree
    ([], [], 0.0, 1.0),  # scalar bounds
    ([[1.0, 1.0]], [1.0], [0.0, -np.inf], [1.0, 1.0]),  # infinite bounds
    ([[1.0, 1.0]], [1.0], [0.0, 0.0], [np.inf, 2.0]),
    ([[1.0, 1.0]], [1.0], [0.0, np.nan], [1.0, 1.0]),
    ([[np.nan, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0]),  # NaN rows
    ([[1.0, 1.0]], [np.nan], [0.0, 0.0], [1.0, 1.0]),
    ([], [], [1.0, 0.0], [0.0, 1.0]),  # lo above hi
    ([[np.inf, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0]),  # infinite rows
    ([[1.0, 1.0]], [-np.inf], [0.0, 0.0], [1.0, 1.0]),
])
def test_malformed_region_is_rejected(a_ub, b_ub, lo, hi):
    # the descent needs a bounded region, and the box is its only guarantee
    with pytest.raises(ValueError):
        Hrep(a_ub=a_ub, b_ub=b_ub, lo=lo, hi=hi)


def test_empty_region_raises(monkeypatch):
    calls = _counting_lp(monkeypatch)
    region = Hrep(a_ub=[[1.0, 1.0]], b_ub=[-1.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
    with pytest.raises(InfeasibleRegionError):
        region.lmo(np.array([1.0, 0.0]))
    assert len(calls) == 1  # the table came out empty; one LP confirmed it
    with pytest.raises(InfeasibleRegionError):
        minimize_polytope(Polynomial(2, {(1, 0): 1.0}), region, OPTS)
