"""Shared corpora and independent oracles for the test suite.

Oracles here deliberately avoid library code paths they are checking:
ball moments are estimated by rejection sampling from the cube (not the
library's Gaussian sampler), gradients by central finite differences, LPs
by exhaustive vertex enumeration, and the gradient moment matrix by a
term-pair double loop over scalar moments rather than the library's
G K G^T form.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np
import pytest

from lowform.generate import Instance, generate_instance
from lowform.poly import Polynomial, ball_monomial_moment, monomials_up_to

# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------


def mc_ball_points(n: int, num: int, seed: int) -> np.ndarray:
    """Uniform ball samples by rejection from the cube."""
    rng = np.random.default_rng(seed)
    chunks = []
    total = 0
    while total < num:
        cand = rng.uniform(-1.0, 1.0, size=(max(num, 10_000), n))
        keep = cand[(cand**2).sum(axis=1) <= 1.0]
        chunks.append(keep)
        total += keep.shape[0]
    return np.vstack(chunks)[:num]


def mc_ball_moment(alpha, n: int, num: int, seed: int):
    """(estimate, standard error) of E[x^alpha] on the unit ball."""
    pts = mc_ball_points(n, num, seed)
    vals = np.ones(num)
    for i, a in enumerate(alpha):
        if a:
            vals = vals * pts[:, i] ** a
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(num))


def mc_expectation(p: Polynomial, pts: np.ndarray):
    """(estimate, standard error) of E[p] over precomputed ball samples."""
    vals = p.evaluate_many(pts)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


def finite_difference_gradient(p: Polynomial, x: np.ndarray, step: float = 1e-5):
    """Central finite differences, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(p.num_vars)
    for i in range(p.num_vars):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (p.evaluate(hi) - p.evaluate(lo)) / (2 * step)
    return out


def lp_vertex_enumeration(c, a_ub, b_ub, a_eq, b_eq, bounds):
    """Brute-force LP oracle: enumerate basic points from active constraints.

    Collects every constraint as a hyperplane (inequalities, equalities, and
    finite bounds), solves all n-subsets, keeps feasible points, and returns
    the best objective value (None if no feasible basic point exists).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    planes = []
    if a_ub is not None:
        for row, rhs in zip(np.atleast_2d(a_ub), np.atleast_1d(b_ub)):
            planes.append((np.asarray(row, dtype=float), float(rhs)))
    eqs = []
    if a_eq is not None:
        for row, rhs in zip(np.atleast_2d(a_eq), np.atleast_1d(b_eq)):
            eqs.append((np.asarray(row, dtype=float), float(rhs)))
    for i, (lo, hi) in enumerate(bounds):
        e = np.zeros(n)
        e[i] = 1.0
        if lo is not None:
            planes.append((e.copy(), float(lo)))
        if hi is not None:
            planes.append((e.copy(), float(hi)))

    def feasible(x):
        if a_ub is not None and np.any(np.atleast_2d(a_ub) @ x > np.atleast_1d(b_ub) + 1e-9):
            return False
        for row, rhs in eqs:
            if abs(row @ x - rhs) > 1e-9:
                return False
        for i, (lo, hi) in enumerate(bounds):
            if lo is not None and x[i] < lo - 1e-9:
                return False
            if hi is not None and x[i] > hi + 1e-9:
                return False
        return True

    best = None
    need = n - len(eqs)
    for subset in itertools.combinations(range(len(planes)), max(need, 0)):
        rows = [planes[k][0] for k in subset] + [row for row, _ in eqs]
        rhs = [planes[k][1] for k in subset] + [r for _, r in eqs]
        mat = np.array(rows)
        if mat.shape[0] != n or abs(np.linalg.det(mat)) < 1e-12:
            continue
        x = np.linalg.solve(mat, np.array(rhs))
        if feasible(x):
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


def reference_moment_matrix(h: Polynomial) -> np.ndarray:
    """n x n matrix with entries E[dh/dx_i * dh/dx_j] on the unit ball.

    Entries are exact: the product of two gradient components is integrated
    term by term with closed-form monomial moments.  Terms are bucketed by
    exponent parity first, since a product monomial has nonzero moment only
    when both factors share the same parity pattern.
    """
    n = h.num_vars
    grads = h.gradient()
    buckets = []
    for g in grads:
        by_parity: dict[tuple, list] = defaultdict(list)
        for exp, coef in g.terms.items():
            by_parity[tuple(e & 1 for e in exp)].append((exp, coef))
        buckets.append(by_parity)

    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            acc = 0.0
            small, large = buckets[i], buckets[j]
            if len(large) < len(small):
                small, large = large, small
            for parity, terms_i in small.items():
                terms_j = large.get(parity)
                if not terms_j:
                    continue
                for exp_a, coef_a in terms_i:
                    for exp_b, coef_b in terms_j:
                        combined = tuple(a + b for a, b in zip(exp_a, exp_b))
                        acc += coef_a * coef_b * ball_monomial_moment(combined, n)
            matrix[i, j] = matrix[j, i] = acc
    return matrix


def random_polynomial(rng: np.random.Generator, num_vars: int, degree: int,
                      density: float = 0.6) -> Polynomial:
    terms = {}
    for exp in monomials_up_to(num_vars, degree):
        if rng.random() < density:
            terms[exp] = float(rng.standard_normal())
    if not terms:
        terms[(0,) * num_vars] = 1.0
    return Polynomial(num_vars, terms)


def sin_principal_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Sine of the largest principal angle between two column spans."""
    if u.shape[1] == 0 and v.shape[1] == 0:
        return 0.0
    if u.shape[1] != v.shape[1]:
        return 1.0
    proj = np.eye(u.shape[0]) - u @ u.T
    return float(np.linalg.norm(proj @ v, 2))


# ----------------------------------------------------------------------
# shared corpora (session scope: generated once per run)
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def detection_corpus() -> list[Instance]:
    """50 exactly sparse instances, n <= 10, m <= 3, degree <= 4."""
    rng = np.random.default_rng(20_240_501)
    out = []
    for i in range(50):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(1, 4))
        degree = int(rng.integers(2, 5))
        out.append(generate_instance(10_000 + i, n, m, degree))
    return out


@pytest.fixture(scope="session")
def sphere_corpus() -> list[Instance]:
    """30 sparse instances, n <= 6, m <= 2, degree <= 4."""
    rng = np.random.default_rng(20_240_502)
    out = []
    for i in range(30):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, 3))
        degree = int(rng.integers(2, 5))
        out.append(generate_instance(20_000 + i, n, m, degree))
    return out


@pytest.fixture(scope="session")
def approx_corpus() -> list[Instance]:
    """10 perturbed instances, n <= 5, m <= 2, with nonzero tails."""
    rng = np.random.default_rng(20_240_503)
    out = []
    for i in range(10):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, 3))
        eps = float(rng.uniform(0.02, 0.2))
        out.append(generate_instance(30_000 + i, n, m, 3, epsilon=eps))
    return out
