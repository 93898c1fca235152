"""Polynomial arithmetic, composition, and exact ball moments."""

import math

import numpy as np
import pytest

from conftest import (
    finite_difference_gradient,
    mc_ball_points,
    mc_expectation,
    random_polynomial,
)
from lowform.poly import (
    DROP_TOL,
    DimensionMismatchError,
    Polynomial,
    ball_monomial_moment,
    ball_moments,
    expectation_uniform_ball,
    monomials_up_to,
    substitute_linear,
)


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
    gx, gy = p.gradient()
    assert gx.terms == {(1, 1): 2.0}
    assert gy.terms == {(2, 0): 1.0}

    const = Polynomial.constant(3, 5.0)
    assert all(g.terms == {} for g in const.gradient())

    square = Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})
    gx, gy = square.gradient()
    assert gx.terms == {(1, 0): 2.0, (0, 1): 2.0}
    assert gy.terms == {(1, 0): 2.0, (0, 1): 2.0}


def test_substitute_linear_examples():
    # X^2 with X := x1 + x2
    p = Polynomial(1, {(2,): 1.0})
    q = substitute_linear(p, [Polynomial.linear_form([1.0, 1.0])])
    assert q.terms == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}

    # identity substitution leaves the polynomial unchanged
    rng = np.random.default_rng(0)
    p = random_polynomial(rng, 3, 3)
    identity = [Polynomial.variable(3, i) for i in range(3)]
    assert substitute_linear(p, identity) == p

    # X1 X2 with X1 := x1, X2 := c * x2
    p = Polynomial(2, {(1, 1): 1.0})
    q = substitute_linear(
        p, [Polynomial.linear_form([1.0, 0.0]), Polynomial.linear_form([0.0, 2.5])]
    )
    assert q.terms == {(1, 1): 2.5}


def test_substitute_linear_rejects_bad_forms():
    p = Polynomial(2, {(1, 1): 1.0})
    with pytest.raises(DimensionMismatchError):
        substitute_linear(p, [Polynomial.linear_form([1.0])])  # wrong count
    with pytest.raises(DimensionMismatchError):
        substitute_linear(
            p, [Polynomial.linear_form([1.0]), Polynomial.linear_form([1.0, 2.0])]
        )
    with pytest.raises(ValueError):
        substitute_linear(p, [Polynomial(1, {(2,): 1.0}), Polynomial.linear_form([1.0])])


def test_ball_moment_examples():
    assert ball_monomial_moment((0, 0, 0, 0), 4) == 1.0
    assert ball_monomial_moment((1, 2), 2) == 0.0
    assert ball_monomial_moment((2, 0, 0), 3) == pytest.approx(0.2, abs=1e-15)


def test_ball_moments_equal_scalar_form_bitwise():
    # every exponent of degree <= 8 in n <= 5, odd entries included
    for n in range(6):
        alphas = list(monomials_up_to(n, 8))
        got = ball_moments(np.array(alphas, dtype=np.int64).reshape(len(alphas), n), n)
        want = np.array([ball_monomial_moment(alpha, n) for alpha in alphas])
        assert got.tobytes() == want.tobytes(), n
    with pytest.raises(DimensionMismatchError):
        ball_moments(np.zeros((2, 3), dtype=np.int64), 2)
    with pytest.raises(ValueError):
        ball_moments(np.array([[2, -2]]), 2)


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
        grads = p.gradient()
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
        forms = [
            Polynomial.linear_form(rng.standard_normal(k), constant=float(rng.standard_normal()))
            for _ in range(n)
        ]
        sub = lambda r: r.compose(forms)
        assert sub(p * q).coefficient_distance(sub(p) * sub(q)) < 1e-10
        assert sub(p + q).coefficient_distance(sub(p) + sub(q)) < 1e-10


def test_evaluate_commutes_with_substitution():
    rng = np.random.default_rng(17)
    p = random_polynomial(rng, 3, 4)
    forms = [Polynomial.linear_form(rng.standard_normal(2)) for _ in range(3)]
    q = substitute_linear(p, forms)
    for _ in range(50):
        t = rng.uniform(-1, 1, 2)
        via_forms = p.evaluate([f.evaluate(t) for f in forms])
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
    assert c.gradient() == []
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
])
def test_from_json_dict_rejects_what_the_constructor_repairs(terms):
    with pytest.raises(ValueError):
        Polynomial.from_json_dict({"num_vars": 2, "terms": terms})


def test_from_json_dict_accepts_integral_float_exponents():
    data = {"num_vars": 2, "terms": [{"exp": [2.0, 0], "coef": 1.5}]}
    assert Polynomial.from_json_dict(data).terms == {(2, 0): 1.5}


def test_monomials_up_to_counts():
    assert len(list(monomials_up_to(3, 2))) == 10  # C(5,3)
    assert list(monomials_up_to(0, 4)) == [()]


def test_power_and_degree():
    p = Polynomial.linear_form([1.0, 1.0])
    assert (p**2).terms == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
    assert (p**0).terms == {(0, 0): 1.0}
    assert p.degree() == 1 and (p**3).degree() == 3
    assert Polynomial.zero(2).degree() == 0
