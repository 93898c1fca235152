"""Sparsity detection, extraction, and verification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    coefficient_distance,
    mc_ball_points,
    random_polynomial,
    reference_gradient,
    reference_moment_matrix,
    sin_principal_angle,
)
from lowform.detection import (
    RankNotStabilizedError,
    SparseForm,
    detect_exact,
    detect_randomized,
    extract_sparse_form,
    gradient_spectrum,
    moment_matrix,
    verify_sparse_form,
)
from lowform.generate import generate_instance
from lowform.poly import Polynomial

SQUARE = Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})  # (x1+x2)^2


def test_moment_matrix_rank_one():
    # gradient of (x1+x2)^2 is 2(x1+x2)(1,1); E[4(x1+x2)^2] = 4(1/4+1/4) = 2
    assert np.allclose(moment_matrix(SQUARE), [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)


def test_moment_matrix_constant_and_linear():
    assert np.allclose(moment_matrix(Polynomial.constant(3, 2.0)), np.zeros((3, 3)))
    h = Polynomial(2, {(1, 0): 1.0})
    assert np.allclose(moment_matrix(h), [[1.0, 0.0], [0.0, 0.0]])


def _moment_case(n: int, degree: int, kind: str, seed: int) -> Polynomial:
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return Polynomial.zero(n)
    if kind == "constant" or n == 0:
        return Polynomial.constant(n, float(rng.standard_normal()))
    if kind == "single":  # a polynomial in one variable only
        j = int(rng.integers(n))
        return Polynomial(n, {
            tuple(k if i == j else 0 for i in range(n)): float(rng.standard_normal())
            for k in range(degree + 1)
        })
    if kind == "full":  # m = n: gradients span every direction
        return generate_instance(seed, n, n, max(degree, 2)).h
    return random_polynomial(rng, n, degree, density=0.3)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 8),
    degree=st.integers(0, 5),
    kind=st.sampled_from(["zero", "constant", "single", "full", "sparse"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, degree=0, kind="zero", seed=0)
@example(n=3, degree=2, kind="zero", seed=0)
@example(n=4, degree=0, kind="constant", seed=1)
@example(n=5, degree=4, kind="full", seed=2)
@example(n=8, degree=5, kind="full", seed=3)
@example(n=6, degree=5, kind="single", seed=4)
def test_moment_matrix_matches_reference(n, degree, kind, seed):
    h = _moment_case(n, degree, kind, seed)
    got = moment_matrix(h)
    want = reference_moment_matrix(h)
    assert got.shape == (n, n)
    assert np.array_equal(got, got.T)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= 1e-12 * scale


def test_moment_matrix_is_psd_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(5):
        h = random_polynomial(rng, 4, 3)
        m = moment_matrix(h)
        assert np.allclose(m, m.T, atol=1e-10)
        assert np.linalg.eigvalsh(m).min() > -1e-10


def test_detect_exact_examples():
    rep = detect_exact(gradient_spectrum(SQUARE))
    assert rep.m == 1
    assert np.allclose(np.abs(rep.basis[:, 0]), [1 / math.sqrt(2)] * 2, atol=1e-10)
    assert rep.spectrum == pytest.approx([4.0, 0.0], abs=1e-12)

    full = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    assert detect_exact(gradient_spectrum(full)).m == 2

    const = detect_exact(gradient_spectrum(Polynomial.constant(3, 1.5)))
    assert const.m == 0 and const.basis.shape == (3, 0)


def test_detect_randomized_examples():
    for seed in range(3):
        rep = detect_randomized(SQUARE, seed=seed)
        assert rep.m == 1
        assert np.allclose(np.abs(rep.basis[:, 0]), [1 / math.sqrt(2)] * 2, atol=1e-9)

    linear = Polynomial(3, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0})
    rep = detect_randomized(linear, seed=0)
    assert rep.m == 1 and rep.samples_used == 2
    assert rep.spectrum == [1, 1]


def test_detect_randomized_agrees_with_exact_on_dense():
    rng = np.random.default_rng(5)
    for i in range(8):
        h = random_polynomial(rng, 3, 3, density=0.9)
        exact = detect_exact(gradient_spectrum(h))
        rand = detect_randomized(h, seed=i)
        assert rand.m == exact.m == 3


def test_detect_randomized_stabilization_error():
    h = random_polynomial(np.random.default_rng(0), 4, 3, density=0.9)
    with pytest.raises(RankNotStabilizedError):
        detect_randomized(h, seed=0, max_k=3)  # full-rank gradients need 5 samples


def test_extract_examples():
    basis = np.array([[1.0], [1.0]]) / math.sqrt(2)
    sf = extract_sparse_form(SQUARE, basis)
    assert coefficient_distance(sf.f, Polynomial(1, {(2,): 2.0})) < 1e-12
    assert verify_sparse_form(SQUARE, sf, seed=0) < 1e-12

    h = Polynomial(2, {(1, 0): 1.0})
    sf = extract_sparse_form(h, np.array([[1.0], [0.0]]))
    assert sf.f == Polynomial(1, {(1,): 1.0})

    const = Polynomial.constant(3, 2.5)
    sf = extract_sparse_form(const, np.zeros((3, 0)))
    assert sf.f.num_vars == 0 and sf.f.constant_value() == 2.5


def test_extract_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        extract_sparse_form(SQUARE, np.array([[1.0], [1.0]]))


def test_verify_detects_wrong_form():
    h = Polynomial(2, {(2, 0): 1.0})  # x1^2
    wrong = SparseForm(f=Polynomial(1, {(2,): 1.0}), ell=np.array([[0.0], [1.0]]))
    assert verify_sparse_form(h, wrong, seed=1) > 0.01

    const = Polynomial.constant(2, 3.0)
    sf = SparseForm(f=Polynomial.constant(0, 3.0), ell=np.zeros((2, 0)))
    assert verify_sparse_form(const, sf, seed=1) == 0.0


def test_round_trip_small_corpus():
    # (seed, n, m, degree): ten m = 2 instances, then m = 0 and m = n, n = 1
    cases = [(500 + i, 6, 2, 3) for i in range(10)]
    cases += [(510, 5, 0, 3), (511, 4, 4, 3), (512, 1, 1, 4), (513, 1, 0, 2)]
    for i, (seed, n, m, degree) in enumerate(cases):
        inst = generate_instance(seed, n, m, degree)
        rep = detect_exact(gradient_spectrum(inst.h))
        assert rep.m == m
        sf = extract_sparse_form(inst.h, rep.basis)
        assert sf.f.num_vars == m
        assert verify_sparse_form(inst.h, sf, seed=i) < 1e-8
        assert sin_principal_angle(rep.basis, inst.ell0) < 1e-7


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 7),
    m=st.integers(0, 3),
    degree=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=6, m=2, degree=4, seed=7)
def test_detection_invariant_under_orthogonal_change_of_variables(n, m, degree, seed):
    m = min(m, n)
    inst = generate_instance(seed, n, m, degree)
    rep = detect_exact(gradient_spectrum(inst.h))
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    # h(Q y) = f0((Q^T ell0)^T y): the same m, and the span turned by Q^T
    turned = detect_exact(gradient_spectrum(inst.h.compose(q)))
    assert turned.m == rep.m == m
    assert sin_principal_angle(turned.basis, q.T @ rep.basis) < 1e-9
    top = max(rep.spectrum[0], 1.0)
    assert np.max(np.abs(np.subtract(turned.spectrum, rep.spectrum))) <= 1e-12 * top


def test_subspace_contains_gradients():
    inst = generate_instance(77, 7, 2, 4)
    rep = detect_exact(gradient_spectrum(inst.h))
    grads = reference_gradient(inst.h)
    pts = mc_ball_points(7, 100, seed=3)
    grad_vals = np.column_stack([g.evaluate_many(pts) for g in grads])
    proj = np.eye(7) - rep.basis @ rep.basis.T
    norms = np.linalg.norm(grad_vals, axis=1)
    keep = norms > 1e-12
    ratios = np.linalg.norm(grad_vals[keep] @ proj.T, axis=1) / norms[keep]
    assert ratios.max() < 1e-7


def test_dense_polynomials_are_full_rank():
    rng = np.random.default_rng(9)
    for i in range(20):
        n = int(rng.integers(2, 7))
        h = random_polynomial(rng, n, 3, density=0.9)
        assert detect_exact(gradient_spectrum(h)).m == n
        assert detect_randomized(h, seed=i).m == n


def test_report_fields():
    rep = detect_exact(gradient_spectrum(SQUARE), rank_tol=1e-6)
    assert rep.method == "exact" and rep.samples_used is None
    assert rep.rank_tol == 1e-6
    assert np.allclose(rep.basis.T @ rep.basis, np.eye(rep.m), atol=1e-8)
    rnd = detect_randomized(SQUARE, seed=1)
    assert rnd.method == "randomized" and rnd.samples_used == len(rnd.spectrum)
