"""Polynomial arithmetic, composition, and exact ball moments."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    coefficient_distance,
    expectation_uniform_ball,
    finite_difference_gradient,
    fraction_ball_moment,
    graded_lex_exponents,
    mc_ball_points,
    mc_expectation,
    random_polynomial,
    reference_add,
    reference_ball_moment_gram,
    reference_compose,
    reference_evaluate,
    reference_gradient,
    reference_mul,
    reference_partial,
    reference_pow,
    reference_sub,
    reference_terms,
)
from lowform.generate import generate_instance
from lowform.poly import (
    DROP_TOL,
    DimensionMismatchError,
    GradientEvaluator,
    Polynomial,
    ball_moment_gram,
    ball_moments,
    graded_monomials,
    monomial_values,
    partial_terms,
    unique_rows,
)
from lowform.sampling import sample_ball


def _partials(p: Polynomial) -> list[Polynomial]:
    """The partials of p, read off ``partial_terms``."""
    var, exps, coefs = partial_terms(p.exps, p.coefs)
    return [
        Polynomial.from_arrays(p.num_vars, exps[var == i], coefs[var == i])
        for i in range(p.num_vars)
    ]


def test_evaluate_examples():
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0})
    assert p.evaluate([1.0, 1.0]) == pytest.approx(3.0)
    assert Polynomial.zero(3).evaluate([0.3, -1.0, 2.0]) == 0.0
    square = Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})  # (x1+x2)^2
    r = 1 / math.sqrt(2)
    assert square.evaluate([r, -r]) == pytest.approx(0.0, abs=1e-15)


def test_evaluate_dimension_mismatch():
    p = Polynomial(2, {(1, 0): 1.0})
    with pytest.raises(DimensionMismatchError):
        p.evaluate([1.0, 2.0, 3.0])


def test_gradient_examples():
    p = Polynomial(2, {(2, 1): 1.0})  # x1^2 x2
    gx, gy = _partials(p)
    assert gx.terms == {(1, 1): 2.0}
    assert gy.terms == {(2, 0): 1.0}

    const = Polynomial.constant(3, 5.0)
    assert all(g.terms == {} for g in _partials(const))

    square = Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})
    gx, gy = _partials(square)
    assert gx.terms == {(1, 0): 2.0, (0, 1): 2.0}
    assert gy.terms == {(1, 0): 2.0, (0, 1): 2.0}


def test_compose_examples():
    # X^2 with X := x1 + x2
    p = Polynomial(1, {(2,): 1.0})
    q = p.compose(np.array([[1.0, 1.0]]))
    assert q.terms == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}

    # identity substitution leaves the polynomial unchanged
    rng = np.random.default_rng(0)
    p = random_polynomial(rng, 3, 3)
    assert p.compose(np.eye(3)) == p

    # X1 X2 with X1 := x1, X2 := c * x2
    p = Polynomial(2, {(1, 1): 1.0})
    assert p.compose(np.diag([1.0, 2.5])).terms == {(1, 1): 2.5}

    # no target variables: the constant p(0)
    p = Polynomial(2, {(0, 0): 3.0, (1, 1): 1.0})
    assert p.compose(np.zeros((2, 0))) == Polynomial.constant(0, 3.0)


def test_compose_rejects_bad_shapes():
    p = Polynomial(2, {(1, 1): 1.0})
    for bad in (np.ones((1, 2)), np.ones((3, 2)), np.ones(2), np.ones((2, 2, 1))):
        with pytest.raises(DimensionMismatchError):
            p.compose(bad)
    with pytest.raises(ValueError):
        p.compose([[1.0], [1.0, 2.0]])  # rows of different widths


def test_compose_rejects_forms_above_degree_one():
    # the substitution is a matrix, so only linear forms can be written;
    # forms given as polynomials, such as a square, are refused
    p = Polynomial(2, {(1, 1): 1.0})
    square = Polynomial(1, {(2,): 1.0})
    with pytest.raises(TypeError):
        p.compose([square, Polynomial.variable(1, 0)])
    with pytest.raises(TypeError):
        Polynomial.zero(1).compose([square])


def ball_moment(alpha, n: int) -> float:
    """The library's E[x^alpha] on the unit n-ball: ball_moments of one row."""
    return float(ball_moments(np.array([alpha], dtype=np.int64).reshape(1, n), n)[0])


def test_ball_moment_examples():
    assert ball_moment((0, 0, 0, 0), 4) == 1.0
    assert ball_moment((1, 2), 2) == 0.0
    assert ball_moment((2, 0, 0), 3) == pytest.approx(0.2, abs=1e-15)


def test_ball_moments_equal_scalar_form_bitwise():
    # every exponent of degree <= 8 in n <= 5, odd entries included, against
    # the Fraction formula, one exponent at a time
    for n in range(6):
        alphas = graded_lex_exponents(n, 8)
        got = ball_moments(np.array(alphas, dtype=np.int64).reshape(len(alphas), n), n)
        want = np.array([fraction_ball_moment(alpha, n) for alpha in alphas])
        assert got.tobytes() == want.tobytes(), n
    with pytest.raises(DimensionMismatchError):
        ball_moments(np.zeros((2, 3), dtype=np.int64), 2)
    with pytest.raises(ValueError):
        ball_moments(np.array([[2, -2]]), 2)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), slots=st.lists(st.integers(0, 39), max_size=8))
@example(n=1, slots=[0] * 8)
@example(n=40, slots=list(range(8)))
def test_ball_moment_equals_fraction_formula_bitwise(n, slots):
    # alpha = 2 beta with |beta| <= 8: each slot adds 1 to beta at slot mod n
    alpha = [0] * n
    for i in slots:
        alpha[i % n] += 2
    assert ball_moment(alpha, n).hex() == fraction_ball_moment(alpha, n).hex()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    partitions=st.lists(st.lists(st.integers(1, 4), max_size=6), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=40, partitions=[[4, 4, 3, 2, 1, 1], [1], []], seed=0)
def test_ball_moments_of_a_batch_of_permuted_partitions_bitwise(n, partitions, seed):
    # each partition beta is placed at 4 random sets of positions, so rows
    # share a partition in different columns; one copy of each gets an odd
    # entry, whose moment is 0
    rng = np.random.default_rng(seed)
    rows = []
    for beta in partitions:
        beta = np.array(beta[:n], dtype=np.int64)
        for copy in range(4):
            alpha = np.zeros(n, dtype=np.int64)
            alpha[rng.permutation(n)[: beta.size]] = 2 * beta
            if copy == 3:
                alpha[rng.integers(n)] += 1
            rows.append(alpha)
    rows = np.array(rows)[rng.permutation(len(rows))]
    want = np.array([fraction_ball_moment(alpha.tolist(), n) for alpha in rows])
    assert ball_moments(rows, n).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    degree=st.integers(0, 6),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=16, unique=True),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8, degree=6, picks=[0, 1, 2, 3, 4, 5, 10**6], k=2, seed=0)
def test_ball_moment_gram_matches_fraction_pair_sum(n, degree, picks, k, seed):
    # monomials of degree <= 6, so the pairs reach degree 12.  Both sides
    # sum at most u^2 rounded products, so they may differ by the rounding
    # bound of such a sum: u^2 ulps of its absolute terms' total, which is
    # the Gram of |C| (every nonzero ball moment is positive)
    table = graded_lex_exponents(n, degree)
    monos = np.array(sorted({table[-1 - i % len(table)] for i in picks}), dtype=np.int64)
    coefs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(k, monos.shape[0]))
    got = ball_moment_gram(monos, coefs)
    want = reference_ball_moment_gram(monos, coefs)
    scale = reference_ball_moment_gram(monos, np.abs(coefs))
    bound = (monos.shape[0] ** 2 + 4) * np.finfo(float).eps * scale
    assert np.all(np.abs(got - want) <= bound), np.abs(got - want).max()


@st.composite
def _nonnegative_rows(draw):
    """Up to 60 rows of one width in 1..60, entries up to 2**40: copies of a
    few rows that each differ from the last in one entry, some followed by
    their successor in lexicographic order (the last entry below the top
    raised by one and the entries after it set to 0, a carry at the largest
    digit), so rows repeat and nearly equal rows fall in one packed word."""
    width = draw(st.integers(1, 60))
    top = draw(st.sampled_from([1, 4, 12, 2**20, 2**40]))
    entry = st.integers(0, top)
    pool = [draw(st.lists(entry, min_size=width, max_size=width))]
    for col, value in draw(st.lists(st.tuples(st.integers(0, width - 1), entry), max_size=6)):
        pool.append(pool[-1][:col] + [value] + pool[-1][col + 1 :])
        below = [j for j, e in enumerate(pool[-1]) if e < top]
        if draw(st.booleans()) and below:
            j = below[-1]
            pool.append(pool[-1][:j] + [pool[-1][j] + 1] + [0] * (width - 1 - j))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), width)


@settings(max_examples=300, deadline=None)
@given(rows=_nonnegative_rows())
@example(rows=np.zeros((0, 3), dtype=np.int64))
@example(rows=np.array([[2**40, 0, 7]], dtype=np.int64))
@example(rows=np.tile(np.arange(60, dtype=np.int64) % 5, (500, 1)))
@example(rows=np.array([[0] * 19 + [4, 0], [0] * 20 + [4], [4] + [0] * 20], dtype=np.int64))
@example(rows=np.array([[2, 4, 4], [3, 0, 0], [2, 4, 3]], dtype=np.int64))
def test_unique_rows_matches_numpy(rows):
    got_rows, got_inverse = unique_rows(rows)
    want_rows, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert got_rows.dtype == want_rows.dtype and got_inverse.dtype == want_inverse.dtype
    assert got_rows.shape == want_rows.shape and np.array_equal(got_rows, want_rows)
    assert got_inverse.shape == want_inverse.shape and np.array_equal(got_inverse, want_inverse)


def test_ball_moment_against_monte_carlo():
    est, se = mc_ball_moment_cached((2, 0, 0), 3)
    assert abs(0.2 - est) <= 3 * se


def mc_ball_moment_cached(alpha, n):
    pts = mc_ball_points(n, 200_000, seed=99)
    vals = np.ones(len(pts))
    for i, a in enumerate(alpha):
        if a:
            vals = vals * pts[:, i] ** a
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(pts)))


def test_expectation_examples():
    assert expectation_uniform_ball(Polynomial.constant(3, 1.0)) == 1.0
    assert expectation_uniform_ball(Polynomial(2, {(1, 1): 1.0})) == 0.0
    p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    assert expectation_uniform_ball(p) == pytest.approx(0.5, abs=1e-15)


def test_expectation_matches_monte_carlo_corpus():
    # 50 random polynomials, n <= 5, degree <= 6; one shared sample batch per
    # n keeps this fast without weakening the per-polynomial 3-sigma check.
    rng = np.random.default_rng(7)
    batches = {n: mc_ball_points(n, 1_000_000, seed=100 + n) for n in range(1, 6)}
    for _ in range(50):
        n = int(rng.integers(1, 6))
        p = random_polynomial(rng, n, int(rng.integers(1, 7)))
        est, se = mc_expectation(p, batches[n])
        exact = expectation_uniform_ball(p)
        assert abs(exact - est) <= 3 * max(se, 1e-12), (n, p.terms)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = random_polynomial(rng, n, int(rng.integers(1, 5)))
        grads = reference_gradient(p)
        for _ in range(20):
            x = rng.uniform(-1, 1, n)
            exact = np.array([g.evaluate(x) for g in grads])
            approx = finite_difference_gradient(p, x)
            scale = max(1.0, float(np.linalg.norm(exact)))
            assert np.linalg.norm(exact - approx) / scale < 1e-6


def test_substitution_is_ring_homomorphism():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        p = random_polynomial(rng, n, 2)
        q = random_polynomial(rng, n, 2)
        A = rng.standard_normal((n, k))
        sub = lambda r: r.compose(A)
        assert coefficient_distance(sub(p * q), sub(p) * sub(q)) < 1e-10
        assert coefficient_distance(sub(p + q), sub(p) + sub(q)) < 1e-10


def test_evaluate_commutes_with_substitution():
    rng = np.random.default_rng(17)
    p = random_polynomial(rng, 3, 4)
    A = rng.standard_normal((3, 2))
    q = p.compose(A)
    for _ in range(50):
        t = rng.uniform(-1, 1, 2)
        via_forms = p.evaluate(A @ t)
        direct = q.evaluate(t)
        assert abs(direct - via_forms) <= 1e-9 * max(1.0, abs(via_forms))


def test_drop_tolerance_invariant():
    p = Polynomial(1, {(1,): 1.0, (0,): 1e-16})
    assert p.terms == {(1,): 1.0}
    tiny = Polynomial(1, {(1,): 1.0}) - Polynomial(1, {(1,): 1.0 - 1e-16})
    assert all(abs(c) >= DROP_TOL for c in tiny.terms.values())


def test_zero_num_vars_constant():
    c = Polynomial.constant(0, 4.5)
    assert c.evaluate([]) == 4.5
    assert _partials(c) == []
    assert expectation_uniform_ball(c) == 4.5


def test_json_round_trip_graded_lex():
    p = Polynomial(2, {(0, 2): 3.0, (1, 0): 2.0, (0, 0): 1.0, (2, 0): -1.0})
    data = p.to_json_dict()
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e))
    assert Polynomial.from_json_dict(data) == p


@pytest.mark.parametrize("terms", [
    [{"exp": [1, 0], "coef": float("nan")}],
    [{"exp": [1, 0], "coef": float("inf")}],
    [{"exp": [1.7, 0], "coef": 1.0}],
    [{"exp": [True, 0], "coef": 1.0}],
    [{"exp": [1, 0], "coef": 1.0}, {"exp": [1, 0], "coef": 2.0}],
    [{"exp": [1, 0], "coef": 1.0}, {"exp": [1, 0], "coef": -1.0}],  # they would cancel
    [{"exp": [1, 0], "coef": "1.5"}],
    [{"exp": [1, 0], "coef": True}],
    [{"exp": [1, 0], "coef": None}],
    [{"exp": [1, 0], "coef": [1.0]}],
])
def test_from_json_dict_rejects_what_the_constructor_repairs(terms):
    with pytest.raises(ValueError):
        Polynomial.from_json_dict({"num_vars": 2, "terms": terms})


def test_from_json_dict_accepts_integral_float_exponents():
    data = {"num_vars": 2, "terms": [{"exp": [2.0, 0], "coef": 1.5}]}
    assert Polynomial.from_json_dict(data).terms == {(2, 0): 1.5}


@pytest.mark.parametrize("terms", [
    {(1, 0): float("nan"), (0, 1): 1.0},
    {(1, 0): float("inf")},
    {(1, 0): -float("inf"), (0, 1): 1.0},
    {(1.7, 0): 1.0},
    {(1, float("inf")): 1.0},
    {(-1, 0): 1.0},
])
def test_constructors_reject_instead_of_repairing(terms):
    with pytest.raises(ValueError):
        Polynomial(2, terms)
    with pytest.raises(ValueError):
        Polynomial.from_arrays(2, np.array(list(terms)), list(terms.values()))


def test_graded_monomials_counts():
    assert graded_monomials(3, 2).shape == (10, 3)  # C(5,3)
    assert graded_monomials(0, 4).shape == (1, 0)


def test_graded_monomials_match_graded_lex_enumeration():
    # the order in which gen and random_polynomial draw their coefficients
    for k in range(7):
        for d in range(6):
            rows = graded_monomials(k, d)
            assert rows.dtype == np.int64
            assert [tuple(r) for r in rows.tolist()] == graded_lex_exponents(k, d), (k, d)


def test_power_and_degree():
    p = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})
    assert (p**2).terms == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
    assert (p**0).terms == {(0, 0): 1.0}
    assert p.degree() == 1 and (p**3).degree() == 3
    assert Polynomial.zero(2).degree() == 0


# ----------------------------------------------------------------------
# the monomial-tree kernel against the term-loop references
# ----------------------------------------------------------------------


def _poly_case(n: int, degree: int, kind: str, rng: np.random.Generator) -> Polynomial:
    if kind == "zero":
        return Polynomial.zero(n)
    if kind == "constant" or n == 0 or degree == 0:
        return Polynomial.constant(n, float(rng.standard_normal()))
    return random_polynomial(rng, n, degree, density=1.0 if kind == "dense" else 0.3)


def _magnitude(p: Polynomial, x) -> float:
    """sum_t |c_t| |x|^e_t: bounds every partial sum of p(x) in magnitude."""
    return float(reference_evaluate(
        Polynomial(p.num_vars, {e: abs(c) for e, c in p.terms.items()}), np.abs(x)
    ))


_KINDS = st.sampled_from(["zero", "constant", "sparse", "dense"])


def _assert_same_terms(got: Polynomial, want: dict, num_vars: int) -> None:
    """got holds exactly the term map ``want``, rows in graded-lex order.  The
    array operations sum each coefficient in the reference's order, so the
    coefficients agree bit for bit."""
    assert got.num_vars == num_vars
    assert got.terms == want
    assert list(got.terms) == sorted(want, key=lambda e: (sum(e), e))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 6),
    degree=st.integers(0, 5),
    kind_p=_KINDS,
    kind_q=_KINDS,
    power=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, degree=0, kind_p="constant", kind_q="zero", power=2, seed=0)
@example(n=6, degree=5, kind_p="dense", kind_q="dense", power=1, seed=1)
@example(n=3, degree=2, kind_p="sparse", kind_q="constant", power=3, seed=2)
def test_arithmetic_matches_reference(n, degree, kind_p, kind_q, power, seed):
    rng = np.random.default_rng(seed)
    p = _poly_case(n, degree, kind_p, rng)
    q = _poly_case(n, degree, kind_q, rng)
    a, b = p.terms, q.terms
    _assert_same_terms(p + q, reference_add(a, b), n)
    _assert_same_terms(p - q, reference_sub(a, b), n)
    _assert_same_terms(-p, reference_mul(a, -1.0), n)
    _assert_same_terms(p * q, reference_mul(a, b), n)
    c = float(rng.standard_normal())
    _assert_same_terms(p * c, reference_mul(a, c), n)
    _assert_same_terms(c * p, reference_mul(a, c), n)
    power = min(power, 6 // max(p.degree(), 1))  # keeps p**power small
    _assert_same_terms(p**power, reference_pow(a, power, n), n)
    for i, got in enumerate(_partials(p)):
        _assert_same_terms(got, reference_partial(a, i), n)

    # merging: repeated exponents in any row order, summed in that order
    exps = np.vstack([p.exps, q.exps, p.exps[::-1]])
    coefs = np.concatenate([p.coefs, q.coefs, rng.standard_normal(p.coefs.size)])
    order = rng.permutation(coefs.size)
    merged = Polynomial.from_arrays(n, exps[order], coefs[order])
    pairs = zip(map(tuple, exps[order].tolist()), coefs[order].tolist())
    _assert_same_terms(merged, reference_terms(n, pairs), n)
    assert Polynomial(n, merged.terms) == merged

    for r in (p, q, merged):
        assert Polynomial.from_json_dict(json.loads(json.dumps(r.to_json_dict()))) == r


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 6),
    k=st.integers(0, 6),
    degree=st.integers(0, 5),
    kind=_KINDS,
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, k=3, degree=0, kind="constant", seed=0)
@example(n=4, k=0, degree=3, kind="dense", seed=1)  # no target variables: p(0)
@example(n=5, k=5, degree=4, kind="dense", seed=2)  # k = n
@example(n=3, k=2, degree=3, kind="zero", seed=3)
@example(n=8, k=8, degree=4, kind="dense", seed=4)  # a deeper Horner walk
def test_compose_matches_reference(n, k, degree, kind, seed):
    rng = np.random.default_rng(seed)
    p = _poly_case(n, degree, kind, rng)
    A = rng.standard_normal((n, k))
    got = p.compose(A)
    want = reference_compose(p, A)
    assert got.num_vars == k
    # every coefficient of the image is a sum of products bounded by p's
    # magnitude at the 1-norms of the rows of A
    norms = np.abs(A).sum(axis=1)
    assert coefficient_distance(got, want) <= 1e-12 * max(1.0, _magnitude(p, norms))
    assert all(abs(c) >= DROP_TOL for c in got.terms.values())


def test_compose_rotation_round_trip_at_n_24():
    # a dense quartic in 24 variables (20,475 terms): an n -> n compose that
    # would hold C(27, 4) x C(28, 4) floats (2.9 GB) if every node carried the
    # image of its own monomial
    h = generate_instance(1, 24, 3, 4, 0.05).h
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((24, 24)))
    h.evaluate(np.zeros(24))  # builds the monomial tree
    tracemalloc.start()
    try:
        rotated = h.compose(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20

    back = rotated.compose(Q.T)
    assert np.array_equal(back.exps, h.exps)
    assert np.abs(back.coefs - h.coefs).max() <= 1e-12

    pts = sample_ball(np.random.default_rng(1), 50, 24)
    want = h.evaluate_many(pts @ Q.T)
    got = rotated.evaluate_many(pts)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 6),
    degree=st.integers(0, 5),
    kind=_KINDS,
    num_points=st.sampled_from([0, 1, 7]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, degree=0, kind="constant", num_points=3, seed=0)
@example(n=3, degree=4, kind="zero", num_points=2, seed=0)
def test_evaluate_matches_reference(n, degree, kind, num_points, seed):
    rng = np.random.default_rng(seed)
    p = _poly_case(n, degree, kind, rng)
    pts = rng.uniform(-1.5, 1.5, (num_points, n))
    many = p.evaluate_many(pts)
    assert many.shape == (num_points,)
    for x, value in zip(pts, many):
        tol = 1e-12 * max(1.0, _magnitude(p, x))
        want = reference_evaluate(p, x)
        assert abs(value - want) <= tol
        assert abs(p.evaluate(x) - want) <= tol


def test_evaluate_many_across_block_boundaries():
    rng = np.random.default_rng(21)
    p = random_polynomial(rng, 4, 4)
    block = p._kernel()[0].block_size()
    for num_points in (block - 1, block, block + 1, 2 * block + 1):
        pts = rng.uniform(-1.0, 1.0, (num_points, 4))
        got = p.evaluate_many(pts)
        want = reference_evaluate(p, pts)
        assert got.shape == (num_points,)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, _magnitude(p, np.ones(4)))


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(0, 5),
    k=st.integers(0, 8),
    extra=st.sampled_from(["none", "zero row", "repeated rows"]),
    num_points=st.sampled_from([0, 1, 6]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=3, k=0, extra="none", num_points=4, seed=0)
@example(dim=2, k=3, extra="zero row", num_points=4, seed=0)
@example(dim=4, k=5, extra="repeated rows", num_points=6, seed=1)
def test_monomial_values_matches_reference(dim, k, extra, num_points, seed):
    # entry (t, j) is the single monomial x^exponents[t] at point j, as the
    # reference term loop takes it; repeated rows get the same values
    rng = np.random.default_rng(seed)
    exponents = rng.integers(0, 4, (k, dim))
    if extra == "zero row":
        exponents = np.vstack([exponents, np.zeros((1, dim), dtype=np.int64)])
    elif extra == "repeated rows" and k:
        exponents = np.vstack([exponents, exponents[rng.integers(0, k, 3)]])
    pts = rng.uniform(-1.5, 1.5, (num_points, dim))
    got = monomial_values(exponents, pts)
    assert got.shape == (exponents.shape[0], num_points)
    for row, values in zip(exponents, got):
        want = reference_evaluate(Polynomial(dim, {tuple(row.tolist()): 1.0}), pts)
        assert np.all(np.abs(values - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    for a, b in zip(*np.nonzero(np.all(exponents[:, None] == exponents[None], axis=2))):
        assert got[a].tobytes() == got[b].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 5),
    degree=st.integers(0, 5),
    kind=_KINDS,
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, degree=0, kind="constant", seed=0)
@example(n=2, degree=3, kind="zero", seed=0)
def test_gradient_evaluator_matches_reference(n, degree, kind, seed):
    rng = np.random.default_rng(seed)
    p = _poly_case(n, degree, kind, rng)
    grads = reference_gradient(p)
    evaluator = GradientEvaluator(p)
    pts = rng.uniform(-1.0, 1.0, (4, n))
    batch, scales = evaluator.rows(pts)
    assert batch.shape == (4, 1 + n)
    for x, row in zip(pts, batch):
        tol = 1e-12 * max(1.0, _magnitude(p, x) * max(degree, 1))
        want_value = reference_evaluate(p, x)
        want_grad = np.array([reference_evaluate(g, x) for g in grads], dtype=float)
        assert np.max(np.abs(row - np.concatenate([[want_value], want_grad]))) <= tol
        fd = finite_difference_gradient(p, x)
        scale = max(1.0, float(np.linalg.norm(want_grad)))
        assert np.linalg.norm(row[1:] - fd) / scale < 1e-6
    # each row is what a batch of its point alone gives, bit for bit, with
    # the rounding scale of p there
    for x, row, got in zip(pts, batch, scales):
        alone, alone_scale = evaluator.rows(x[None])
        assert row.tobytes() == alone[0].tobytes()
        assert got.tobytes() == alone_scale[0].tobytes()
        assert abs(got - _magnitude(p, x)) <= 1e-13 * _magnitude(p, x)
    # the remembered point follows the argument's contents, not its identity
    if n:
        x = pts[:1].copy()
        evaluator.rows(x)
        x[0, 0] += 0.25
        got = evaluator.rows(x)[0][0, 0]
        assert abs(got - reference_evaluate(p, x[0])) <= 1e-12 * max(1.0, _magnitude(p, x[0]))
