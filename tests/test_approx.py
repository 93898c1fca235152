"""Conditional-expectation surrogates, cubature, and surrogate optimization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_min,
    coefficient_distance,
    expectation_uniform_ball,
    fraction_ball_moment,
    hhat_eval,
    hhat_eval_many,
    mc_ball_points,
    mc_l2_error,
    reference_compose,
    sin_principal_angle,
    tail_sum,
    y_mass,
)
from lowform.approx import (
    LiftedPolynomial,
    SpectrumSplit,
    build_cubature,
    choose_m,
    conditional_expectation_cubature,
    conditional_expectation_exact,
    l2_error,
    solve_Q,
    split_spectrum,
)
from lowform.detection import extract_sparse_form
from lowform.generate import generate_instance
from lowform.poly import Polynomial, monomials_up_to
from lowform.solvers import SolveOptions, minimize_ball

OPTS = SolveOptions(seed=0)


def axes_split(n: int, m: int) -> SpectrumSplit:
    eye = np.eye(n)
    return SpectrumSplit(
        ell=eye[:, :m],
        s=eye[:, m:],
        lambda_head=np.ones(m),
        lambda_tail=np.zeros(n - m),
    )


def test_split_spectrum_exactly_sparse_tail():
    inst = generate_instance(40, 5, 2, 3)
    split = split_spectrum(inst.h, 2)
    assert tail_sum(split) < 1e-10
    assert sin_principal_angle(split.ell, inst.ell0) < 1e-7
    frame = np.hstack([split.ell, split.s])
    assert np.allclose(frame.T @ frame, np.eye(5), atol=1e-8)


def test_split_spectrum_perturbed():
    # h = (x1+x2)^2 + 0.01 x3^2: gradient mass concentrates on two directions
    h = Polynomial(3, {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 2, 0): 1.0, (0, 0, 2): 0.01})
    split = split_spectrum(h, 2)
    assert float(split.lambda_tail.sum()) < float(split.lambda_head.sum())
    assert list(split.lambda_head) == sorted(split.lambda_head, reverse=True)
    assert float(split.lambda_head.min()) >= float(split.lambda_tail.max()) - 1e-12


def test_split_spectrum_shapes_and_bounds():
    inst = generate_instance(41, 4, 2, 3, epsilon=0.1)
    split = split_spectrum(inst.h, 3)
    assert split.lambda_tail.size == 1 and split.s.shape == (4, 1)
    with pytest.raises(ValueError):
        split_spectrum(inst.h, 0)
    with pytest.raises(ValueError):
        split_spectrum(inst.h, 4)


def test_choose_m_spectral_gap():
    inst = generate_instance(42, 5, 2, 3, epsilon=1e-4)
    assert choose_m(inst.h) == 2
    assert choose_m(Polynomial.constant(3, 1.0)) == 0


def test_conditional_expectation_tail_square():
    # h = x3^2 with head (e1, e2): average of (Y v)^2 over E_1 is Y^2 / 3
    h = Polynomial(3, {(0, 0, 2): 1.0})
    fhat = conditional_expectation_exact(h, axes_split(3, 2))
    assert coefficient_distance(fhat.poly, Polynomial(3, {(0, 0, 2): 1 / 3})) < 1e-14


def test_conditional_expectation_exactly_sparse_is_f():
    inst = generate_instance(43, 5, 2, 3)
    split = split_spectrum(inst.h, 2)
    fhat = conditional_expectation_exact(inst.h, split)
    assert y_mass(fhat) < 1e-12
    sf = extract_sparse_form(inst.h, split.ell)
    x_only = Polynomial(2, {e[:2]: c for e, c in fhat.poly.terms.items()})
    assert coefficient_distance(x_only, sf.f) < 1e-10


def test_conditional_expectation_odd_tail_vanishes():
    h = Polynomial(3, {(0, 0, 1): 1.0})
    fhat = conditional_expectation_exact(h, axes_split(3, 2))
    assert fhat.poly.terms == {}


def test_even_y_purity_random():
    for i in range(5):
        inst = generate_instance(60 + i, 4, 2, 3, epsilon=0.2)
        split = split_spectrum(inst.h, 2)
        fhat = conditional_expectation_exact(inst.h, split)
        assert fhat.odd_y_violation() < 1e-12


def test_build_cubature_dim1():
    rule = build_cubature(1, 3, seed=0)
    assert np.allclose(sorted(rule.nodes.ravel()), [-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert np.allclose(rule.weights, [0.5, 0.5])
    for alpha, target in [((0,), 1.0), ((1,), 0.0), ((2,), 1 / 3), ((3,), 0.0)]:
        assert rule.moments(np.array([alpha]))[0] == pytest.approx(target, abs=1e-12)


def test_build_cubature_higher_dims():
    for dim, degree in [(2, 4), (3, 4), (2, 6)]:
        rule = build_cubature(dim, degree, seed=1)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(rule.weights > 0)
        for alpha in monomials_up_to(dim, degree):
            target = fraction_ball_moment(alpha, dim)
            assert rule.moments(np.array([alpha]))[0] == pytest.approx(target, abs=1e-8)
            if sum(alpha) % 2 == 1:
                assert rule.moments(np.array([alpha]))[0] == pytest.approx(0.0, abs=1e-15)


def test_cubature_path_matches_exact_path():
    h = Polynomial(3, {(0, 0, 2): 1.0})
    rule = build_cubature(1, 3, seed=0)
    fhat = conditional_expectation_cubature(h, axes_split(3, 2), rule)
    assert coefficient_distance(fhat.poly, Polynomial(3, {(0, 0, 2): 1 / 3})) < 1e-12

    for i in range(3):
        inst = generate_instance(70 + i, 4, 2, 4, epsilon=0.1)
        split = split_spectrum(inst.h, 2)
        exact = conditional_expectation_exact(inst.h, split)
        rule = build_cubature(2, inst.h.degree(), seed=i)
        cub = conditional_expectation_cubature(inst.h, split, rule)
        assert coefficient_distance(exact.poly, cub.poly) < 1e-8


def test_cubature_surrogate_at_points():
    # fhat(X, Y) = sum_j w_j h(ell X + Y s v_j), summed by direct evaluation
    inst = generate_instance(76, 5, 2, 4, epsilon=0.1)
    split = split_spectrum(inst.h, 2)
    rule = build_cubature(3, 4, seed=3)
    fhat = conditional_expectation_cubature(inst.h, split, rule)
    rng = np.random.default_rng(8)
    for point in mc_ball_points(3, 20, seed=12):
        x, y = point[:2], point[2] * rng.choice([-1.0, 1.0])
        pts = x @ split.ell.T + y * (rule.nodes @ split.s.T)
        expected = float(rule.weights @ inst.h.evaluate_many(pts))
        got = fhat.poly.evaluate(np.append(x, y))
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected)), (x, y)


def test_cubature_degree_deficiency_rejected():
    inst = generate_instance(75, 4, 2, 4)
    split = split_spectrum(inst.h, 2)
    rule = build_cubature(2, 2, seed=0)
    with pytest.raises(ValueError):
        conditional_expectation_cubature(inst.h, split, rule)


def test_solve_q_tail_square():
    fhat = LiftedPolynomial(2, Polynomial(3, {(0, 0, 2): 1 / 3}))
    res = solve_Q(fhat, OPTS)
    assert res.rho == pytest.approx(0.0, abs=1e-10)
    assert np.linalg.norm(res.point[:2]) == pytest.approx(1.0, abs=1e-6)


def test_solve_q_no_y_terms_reduces_to_ball():
    inst = generate_instance(44, 5, 2, 3)
    split = split_spectrum(inst.h, 2)
    fhat = conditional_expectation_exact(inst.h, split)
    res = solve_Q(fhat, OPTS)
    x_only = Polynomial(2, {e[:2]: c for e, c in fhat.poly.terms.items()})
    ball = minimize_ball(x_only, OPTS)
    assert abs(res.rho - ball.value) < 1e-8


def test_hhat_eval_examples():
    h = Polynomial(3, {(0, 0, 2): 1.0})
    split = axes_split(3, 2)
    fhat = conditional_expectation_exact(h, split)
    assert hhat_eval(fhat, split, np.array([0.0, 0.0, 0.5])) == pytest.approx(1 / 3)
    # boundary: projection on the unit circle forces Y = 0
    assert hhat_eval(fhat, split, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        hhat_eval(fhat, split, np.array([2.0, 0.0, 0.0]))


def test_hhat_equals_h_for_exactly_sparse():
    inst = generate_instance(45, 5, 2, 3)
    split = split_spectrum(inst.h, 2)
    fhat = conditional_expectation_exact(inst.h, split)
    pts = mc_ball_points(5, 100, seed=9)
    hv = inst.h.evaluate_many(pts)
    sv = hhat_eval_many(fhat, split, pts)
    assert np.max(np.abs(hv - sv)) < 1e-9


def test_l2_error_examples():
    inst = generate_instance(46, 5, 2, 3)
    split = split_spectrum(inst.h, 2)
    fhat = conditional_expectation_exact(inst.h, split)
    assert l2_error(inst.h, fhat, split) < 1e-12


def test_l2_error_monotone_in_epsilon():
    values = {}
    for eps in (0.1, 0.01):
        inst = generate_instance(47, 4, 2, 3, epsilon=eps)
        split = split_spectrum(inst.h, 2)
        fhat = conditional_expectation_exact(inst.h, split)
        values[eps] = l2_error(inst.h, fhat, split)
    assert values[0.01] < values[0.1]


def _surrogate_on_path(inst, m: int, path: str):
    split = split_spectrum(inst.h, m)
    if path == "exact":
        return split, conditional_expectation_exact(inst.h, split)
    rule = build_cubature(inst.n - m, inst.h.degree(), seed=inst.seed)
    return split, conditional_expectation_cubature(inst.h, split, rule)


# Derandomized: a 4-standard-error bound is a statistical test, and a fixed
# example set keeps it from failing at random.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 3),
    extra=st.integers(1, 3),
    degree=st.integers(2, 4),
    epsilon=st.floats(0.01, 0.3),
    path=st.sampled_from(["exact", "cubature"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_l2_error_matches_monte_carlo(m, extra, degree, epsilon, path, seed):
    inst = generate_instance(seed, m + extra, m, degree, epsilon=epsilon)
    split, fhat = _surrogate_on_path(inst, m, path)
    exact = l2_error(inst.h, fhat, split)
    estimate, se = mc_l2_error(inst.h, fhat, split, 200_000, seed=seed)
    assert abs(exact - estimate) <= 4.0 * se, (exact, estimate, se)


@pytest.mark.parametrize("path", ["exact", "cubature"])
def test_l2_error_matches_expectation_of_square(path):
    for i in range(6):
        m = 1 + i % 3
        inst = generate_instance(60 + i, m + 1 + i % 3, m, 2 + i % 3, epsilon=0.1)
        split, fhat = _surrogate_on_path(inst, m, path)
        d = inst.h - reference_compose(fhat.to_ball_polynomial(), split.ell.T)
        expected = expectation_uniform_ball(d * d)
        assert abs(l2_error(inst.h, fhat, split) - expected) <= 1e-12 * expected, i


def test_tower_property_mean_preserved():
    for i in range(5):
        inst = generate_instance(80 + i, 4, 2, 3, epsilon=0.15)
        split = split_spectrum(inst.h, 2)
        fhat = conditional_expectation_exact(inst.h, split)
        pts = mc_ball_points(4, 200_000, seed=i)
        diff = inst.h.evaluate_many(pts) - hhat_eval_many(fhat, split, pts)
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(diff.mean()) <= 3 * max(se, 1e-12)


def test_conditional_expectation_matches_per_y_monte_carlo():
    inst = generate_instance(90, 4, 2, 3, epsilon=0.2)
    split = split_spectrum(inst.h, 2)
    fhat = conditional_expectation_exact(inst.h, split)
    rng = np.random.default_rng(5)
    d = 2
    for _ in range(4):
        y = rng.uniform(-0.6, 0.6, 2)
        tau = math.sqrt(1.0 - float(y @ y))
        v = mc_ball_points(d, 200_000, seed=int(rng.integers(1 << 30)))
        pts = y @ split.ell.T + tau * (v @ split.s.T)
        vals = inst.h.evaluate_many(pts)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        exact = fhat.poly.evaluate(np.concatenate([y, [tau]]))
        assert abs(exact - vals.mean()) <= 3 * max(se, 1e-12)


def test_to_ball_polynomial_eliminates_y():
    fhat = LiftedPolynomial(2, Polynomial(3, {(0, 0, 2): 1 / 3, (1, 0, 0): 0.5}))
    q = fhat.to_ball_polynomial()
    # (1 - X1^2 - X2^2)/3 + X1/2
    expected = Polynomial(
        2, {(0, 0): 1 / 3, (2, 0): -1 / 3, (0, 2): -1 / 3, (1, 0): 0.5}
    )
    assert coefficient_distance(q, expected) < 1e-14
    odd = LiftedPolynomial(1, Polynomial(2, {(0, 1): 1.0}))
    with pytest.raises(ValueError):
        odd.to_ball_polynomial()
    # an odd-Y coefficient 1e-13 of the largest is rounding noise: dropped,
    # not folded into the Y^0 terms
    noisy = LiftedPolynomial(
        2, Polynomial(3, {(0, 0, 2): 1e10 / 3, (1, 0, 0): 5e9, (0, 1, 1): 1e-3})
    )
    assert coefficient_distance(noisy.to_ball_polynomial(), expected * 1e10) < 1e-5


def test_equality_of_surrogate_minima_mini():
    # instance 131 has its surrogate minimum inside the ball, at Y = 0.93,
    # where f-hat's Y terms count; at 95 and 96 it lies on |X| = 1
    for i, seed in enumerate((95, 96, 131)):
        inst = generate_instance(seed, 4, 2, 3, epsilon=0.1)
        split = split_spectrum(inst.h, 2)
        fhat = conditional_expectation_exact(inst.h, split)
        via_q = solve_Q(fhat, SolveOptions(seed=i))
        # fhat is even in Y, so its sphere minimum is its Y >= 0 minimum
        oracle = brute_force_min(fhat.poly, "sphere", 100_000, seed=7000 + i)
        assert abs(via_q.rho - oracle) < 1e-6


def test_l2_ratio_stays_bounded_over_epsilon_family():
    ratios = []
    for eps in (0.1, 0.01, 0.001):
        inst = generate_instance(99, 4, 2, 3, epsilon=eps)
        split = split_spectrum(inst.h, 2)
        fhat = conditional_expectation_exact(inst.h, split)
        err = l2_error(inst.h, fhat, split)
        ratios.append(err / tail_sum(split))
    assert max(ratios) / min(ratios) < 100.0
    assert max(ratios) < 50.0
