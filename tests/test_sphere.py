"""Sphere-to-ball reduction and minimizer lifting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lowform.linalg
import lowform.sphere
from conftest import brute_force_min, coefficient_distance, random_polynomial
from lowform.detection import SparseForm, detect_exact, extract_sparse_form, gradient_spectrum
from lowform.generate import generate_instance
from lowform.linalg import RankDeficientError
from lowform.poly import Polynomial
from lowform.solvers import SolveOptions, minimize_ball
from lowform.sphere import NoSphereLiftError, lift_minimizer, reduce_sphere


def test_reduce_sphere_scaling():
    # f(X) = X^2 with ell = (1,1)^T: L = sqrt(2), g(y) = 2 y^2
    sf = SparseForm(f=Polynomial(1, {(2,): 1.0}), ell=np.array([[1.0], [1.0]]))
    prob = reduce_sphere(sf)
    assert prob.L[0, 0] == pytest.approx(math.sqrt(2))
    assert coefficient_distance(prob.g, Polynomial(1, {(2,): 2.0})) < 1e-12


def test_reduce_sphere_orthonormal_shortcut():
    inst = generate_instance(321, 5, 2, 3)
    sf = extract_sparse_form(inst.h, detect_exact(gradient_spectrum(inst.h)).basis)
    prob = reduce_sphere(sf)
    assert np.allclose(prob.L, np.eye(2), atol=1e-10)
    assert coefficient_distance(prob.g, sf.f) < 1e-10


def test_reduce_sphere_linear_form():
    sf = SparseForm(f=Polynomial(1, {(1,): 1.0}), ell=np.array([[1.0], [0.0], [0.0]]))
    prob = reduce_sphere(sf)
    res = minimize_ball(prob.g, SolveOptions(seed=0))
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def _frame(rng, n, m, singular_values):
    """An n x m ell with the given singular values and random singular vectors."""
    u = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :m]
    v = np.linalg.qr(rng.standard_normal((m, m)))[0]
    return u @ np.diag(singular_values) @ v


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 6),
    m=st.integers(1, 5),
    radius=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, m=1, radius=0.0, seed=0)
@example(n=6, m=5, radius=1.0, seed=1)
def test_reduce_sphere_roots_and_lift_on_random_frames(n, m, radius, seed):
    # L is the symmetric root of ell^T ell, L_inv its inverse, and a lifted
    # point lies on the sphere with ell^T x = L y
    m = min(m, n - 1)
    rng = np.random.default_rng(seed)
    ell = _frame(rng, n, m, rng.uniform(0.5, 3.0, m))
    prob = reduce_sphere(SparseForm(f=random_polynomial(rng, m, 2), ell=ell))
    gram = ell.T @ ell
    assert np.array_equal(prob.L, prob.L.T)
    assert np.abs(prob.L @ prob.L - gram).max() <= 1e-12 * np.abs(gram).max()
    assert np.abs(prob.L_inv @ prob.L - np.eye(m)).max() <= 1e-12
    direction = rng.standard_normal(m)
    y = radius * direction / np.linalg.norm(direction)
    x = lift_minimizer(prob, y)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    assert np.abs(ell.T @ x - prob.L @ y).max() <= 1e-12


def test_reduce_sphere_roots_of_a_diagonal_gram_matrix():
    ell = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    sf = SparseForm(f=Polynomial(2, {(1, 1): 1.0}), ell=ell)
    prob = reduce_sphere(sf)
    assert np.allclose(prob.L, np.diag([2.0, 3.0]), rtol=0.0, atol=1e-15)
    assert np.allclose(prob.L_inv, np.diag([0.5, 1.0 / 3.0]), rtol=0.0, atol=1e-15)


def test_sphere_route_factors_one_m_by_m_and_one_n_by_n_matrix(monkeypatch):
    # reduce_sphere takes L and L_inv from one eigendecomposition of ell^T ell;
    # lift_minimizer adds only the n x n one of ell ell^T for its kernel
    # direction
    shapes = []
    original = lowform.linalg.sym_eig

    def spy(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(lowform.linalg, "sym_eig", spy)
    monkeypatch.setattr(lowform.sphere, "sym_eig", spy)
    ell = _frame(np.random.default_rng(4), 5, 2, [0.5, 2.0])
    prob = reduce_sphere(SparseForm(f=Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0}), ell=ell))
    lift_minimizer(prob, np.array([0.3, -0.4]))
    assert sorted(shapes) == [(2, 2), (5, 5)]


def test_reduce_sphere_rejects_dependent_columns():
    sf = SparseForm(
        f=Polynomial(2, {(1, 1): 1.0}), ell=np.array([[1.0, 2.0], [1.0, 2.0]])
    )
    with pytest.raises(RankDeficientError):
        reduce_sphere(sf)


def test_lift_interior_point_uses_kernel():
    h = Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})
    sf = SparseForm(f=Polynomial(1, {(2,): 1.0}), ell=np.array([[1.0], [1.0]]))
    prob = reduce_sphere(sf)
    x = lift_minimizer(prob, np.array([0.0]))
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    r = 1 / math.sqrt(2)
    assert np.allclose(np.abs(x), [r, r], atol=1e-12)
    assert h.evaluate(x) == pytest.approx(prob.g.evaluate([0.0]), abs=1e-12)


def test_lift_boundary_point_orthonormal():
    inst = generate_instance(654, 4, 2, 3)
    sf = extract_sparse_form(inst.h, detect_exact(gradient_spectrum(inst.h)).basis)
    prob = reduce_sphere(sf)
    y = np.array([0.6, 0.8])
    x = lift_minimizer(prob, y)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-9
    assert np.allclose(sf.ell.T @ x, prob.L @ y, atol=1e-10)


def test_lift_m_equals_n():
    sf = SparseForm(f=Polynomial(2, {(2, 0): 1.0}), ell=np.eye(2))
    prob = reduce_sphere(sf)
    with pytest.raises(NoSphereLiftError):
        lift_minimizer(prob, np.array([0.3, 0.0]))
    x = lift_minimizer(prob, np.array([0.6, 0.8]))
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_lift_rejects_outside_ball():
    sf = SparseForm(f=Polynomial(1, {(1,): 1.0}), ell=np.array([[1.0], [0.0]]))
    prob = reduce_sphere(sf)
    with pytest.raises(ValueError):
        lift_minimizer(prob, np.array([1.5]))


def test_value_equivalence_mini_corpus():
    for i in range(6):
        inst = generate_instance(800 + i, 5, 2, 3)
        sf = extract_sparse_form(inst.h, detect_exact(gradient_spectrum(inst.h)).basis)
        prob = reduce_sphere(sf)
        res = minimize_ball(prob.g, SolveOptions(seed=i))
        oracle = brute_force_min(inst.h, "sphere", 100_000, seed=50 + i)
        assert abs(res.value - oracle) < 1e-6
        x_star = lift_minimizer(prob, res.point)
        assert abs(np.linalg.norm(x_star) - 1.0) < 1e-9
        assert abs(inst.h.evaluate(x_star) - res.value) < 1e-8
