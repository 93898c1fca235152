"""Eigendecomposition, rank, PSD roots of a Gram matrix, orthonormalization,
and LP wrapper."""

import itertools
import math

import numpy as np
import pytest

from conftest import lp_vertex_enumeration
from lowform.linalg import (
    LpStalledError,
    LpProblem,
    NonSymmetricError,
    RankDeficientError,
    lp_solve,
    numeric_rank,
    orthonormalize,
    sym_eig,
)
from lowform.detection import SparseForm
from lowform.poly import Polynomial
from lowform.sphere import reduce_sphere


def test_sym_eig_identity():
    eig = sym_eig(np.eye(3))
    assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])


def test_sym_eig_diag():
    eig = sym_eig(np.diag([2.0, 0.0]))
    assert np.allclose(eig.eigenvalues, [2.0, 0.0])
    assert np.allclose(np.abs(eig.eigenvectors), np.eye(2))


def test_sym_eig_rank_one():
    # characteristic polynomial of [[2,2],[2,2]] is l^2 - 4l: roots 4 and 0
    eig = sym_eig(np.array([[2.0, 2.0], [2.0, 2.0]]))
    assert np.allclose(eig.eigenvalues, [4.0, 0.0], atol=1e-12)
    assert np.allclose(eig.eigenvectors[:, 0], [1 / math.sqrt(2)] * 2)


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_numeric_rank_examples():
    assert numeric_rank(np.array([4.0, 0.0]), 1e-8) == 1
    assert numeric_rank(np.zeros(4), 1e-8) == 0
    assert numeric_rank(np.array([1.0, 1e-6, 1e-12]), 1e-8) == 2
    assert numeric_rank(np.array([]), 1e-8) == 0


def _gram_roots(ell):
    # reduce_sphere factors ell^T ell once and carries its symmetric root L
    # and the inverse root L_inv
    m = ell.shape[1]
    f = Polynomial(m, {(1,) + (0,) * (m - 1): 1.0})
    prob = reduce_sphere(SparseForm(f=f, ell=ell))
    return prob.L, prob.L_inv


def test_psd_inv_sqrt():
    ell = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    assert np.allclose(_gram_roots(ell)[1], np.diag([0.5, 1.0 / 3.0]))
    with pytest.raises(RankDeficientError):
        _gram_roots(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))


def test_orthonormalize_examples():
    q = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(np.abs(orthonormalize(q)), q)

    single = orthonormalize(np.array([[1.0], [1.0], [0.0]]))
    assert np.allclose(np.abs(single[:, 0]), [1 / math.sqrt(2)] * 2 + [0.0])

    with pytest.raises(RankDeficientError):
        orthonormalize(np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_orthonormalize_sign_convention():
    q = orthonormalize(np.array([[-3.0], [0.0], [1.0]]))
    assert q[0, 0] > 0  # first nonnegligible entry flipped positive


def test_sym_eig_reconstruction_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(1, 13))
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2
        eig = sym_eig(a)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        norm = max(np.linalg.norm(a), 1e-300)
        assert np.linalg.norm(recon - a) < 1e-8 * norm
        assert np.linalg.norm(eig.eigenvectors.T @ eig.eigenvectors - np.eye(dim)) < 1e-8


def test_psd_sqrt_squares_back_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(1, 9))
        b = rng.standard_normal((dim, dim))
        a = b @ b.T
        s = _gram_roots(b.T)[0]
        assert np.linalg.norm(s @ s - a) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_lp_examples():
    res = lp_solve(LpProblem(c=np.array([1.0]), bounds=[(1.0, None)]))
    assert res.status == "optimal" and res.value == pytest.approx(1.0)

    res = lp_solve(LpProblem(c=np.array([-1.0]), bounds=[(0.0, 3.0)]))
    assert res.value == pytest.approx(-3.0) and res.point[0] == pytest.approx(3.0)

    res = lp_solve(LpProblem(c=np.array([1.0]), bounds=[(None, 0.0)]))
    assert res.status == "unbounded"

    res = lp_solve(
        LpProblem(
            c=np.array([1.0]),
            a_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([0.0, -1.0]),
            bounds=[(None, None)],
        )
    )
    assert res.status == "infeasible"


@pytest.mark.parametrize("kind", ["ub", "eq"])
def test_lp_keeps_rows_too_small_for_highs(kind):
    # 1.2e-38 x <= -1.2e-38 (or = -1.2e-38) on [-1, 1] leaves only x = -1;
    # HiGHS alone drops the row's entry and returns x = 1
    row, rhs = np.array([[1.2e-38]]), np.array([-1.2e-38])
    rows = {"a_ub": row, "b_ub": rhs} if kind == "ub" else {"a_eq": row, "b_eq": rhs}
    res = lp_solve(LpProblem(c=np.array([-1.0]), bounds=[(-1.0, 1.0)], **rows))
    assert res.status == "optimal" and res.point[0] == -1.0
    # a tiny row next to an ordinary one: only the tiny one is rescaled
    res = lp_solve(
        LpProblem(
            c=np.array([-1.0, -1.0]),
            a_ub=np.array([[1e-12, 0.0], [0.0, 2.0]]),
            b_ub=np.array([5e-13, 1.0]),
            bounds=[(None, 1.0), (None, 1.0)],
        )
    )
    assert np.allclose(res.point, [0.5, 0.5], rtol=0.0, atol=1e-12)


def test_lp_separation_shape_vs_sign_pattern_oracle():
    # Cone section for the simplex in R^3 with ell = (1,-1,0): the cone is
    # {lambda >= |u|}; minimizing lambda*b - u*X* over |lambda|+|u| = 1 at
    # X* = 2 has value -1/2 (take lambda = u = 1/2).  The oracle scans the
    # normalized diamond densely, restricted to the cone.
    x_star = 2.0

    def oracle():
        best = np.inf
        for lam_sign, u_sign in itertools.product([1, -1], repeat=2):
            for frac in np.linspace(0.0, 1.0, 20001):
                lam = lam_sign * frac
                u = u_sign * (1.0 - frac)
                if lam >= abs(u):  # cone membership
                    best = min(best, lam * 1.0 - u * x_star)
        return best

    # split formulation: variables (lam+, lam-, u+, u-)
    ell = np.array([1.0, -1.0, 0.0])
    a_rows = []
    for i in range(3):
        a_rows.append([-1.0, 1.0, ell[i], -ell[i]])
    res = lp_solve(
        LpProblem(
            c=np.array([1.0, -1.0, -x_star, x_star]),
            a_ub=np.array(a_rows),
            b_ub=np.zeros(3),
            a_eq=np.ones((1, 4)),
            b_eq=np.array([1.0]),
            bounds=[(0.0, None)] * 4,
        )
    )
    assert res.status == "optimal"
    assert res.value == pytest.approx(oracle(), abs=1e-4)
    assert res.value == pytest.approx(-0.5, abs=1e-9)
    assert res.value < 0  # X* = 2 lies outside the projected interval [-1, 1]


def test_lp_matches_vertex_enumeration_corpus():
    rng = np.random.default_rng(21)
    solved = 0
    while solved < 25:
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        a_ub = rng.standard_normal((k, n))
        b_ub = rng.uniform(0.5, 2.0, k)
        bounds = [(-2.0, 2.0)] * n
        c = rng.standard_normal(n)
        res = lp_solve(LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, bounds=bounds))
        oracle = lp_vertex_enumeration(c, a_ub, b_ub, None, None, bounds)
        assert res.status == "optimal" and oracle is not None
        assert res.value == pytest.approx(oracle, abs=1e-9)
        point = res.point
        assert np.all(a_ub @ point <= b_ub + 1e-8)
        solved += 1

def test_lp_iteration_cap_raises_stalled():
    rng = np.random.default_rng(0)
    n = 40
    prob = LpProblem(
        c=rng.standard_normal(n),
        a_ub=rng.standard_normal((60, n)),
        b_ub=rng.uniform(1, 2, 60),
        bounds=[(-5.0, 5.0)] * n,
    )
    with pytest.raises(LpStalledError):
        lp_solve(prob, max_iter=1)
