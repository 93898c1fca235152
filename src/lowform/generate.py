"""Seeded test-instance generator: sparse polynomials plus optional noise.

Instances have the shape h = f0(ell0^T x) + epsilon * g0 with a random inner
polynomial f0 in m variables, a random orthonormal frame ell0, and a random
dense perturbation g0.  Ground truth (f0, ell0, epsilon) is kept alongside h
so detection and reduction results can be checked end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import gradient_spectrum
from .linalg import numeric_rank, orthonormalize
from .poly import Polynomial, graded_monomials

_INNER_ATTEMPTS = 50  # draws of f0 before giving up


@dataclass
class Instance:
    h: Polynomial
    f0: Polynomial
    ell0: np.ndarray
    g0: Polynomial | None
    epsilon: float
    n: int
    m: int
    degree: int
    seed: int


def _random_polynomial(
    rng: np.random.Generator, num_vars: int, degree: int, density: float = 0.7
) -> Polynomial:
    terms = {}
    for exp in graded_monomials(num_vars, degree).tolist():
        if rng.random() < density:
            terms[tuple(exp)] = float(rng.standard_normal())
    return Polynomial(num_vars, terms)


def _nondegenerate_inner(rng: np.random.Generator, m: int, degree: int) -> Polynomial:
    """Random f0 whose gradients genuinely span all m directions."""
    for _ in range(_INNER_ATTEMPTS):
        f0 = _random_polynomial(rng, m, degree)
        if f0.degree() < max(degree, 1):
            continue
        eig = gradient_spectrum(f0)
        if numeric_rank(eig.eigenvalues, 1e-8) < m:
            continue
        top = float(eig.eigenvalues[0])
        if m and float(eig.eigenvalues[m - 1]) < 1e-4 * top:
            continue  # nearly degenerate direction; would make rank decisions flaky
        return f0
    raise RuntimeError("could not draw a nondegenerate inner polynomial")


def generate_instance(
    seed: int, n: int, m: int, degree: int, epsilon: float = 0.0
) -> Instance:
    """Deterministic instance h = f0(ell0^T x) + epsilon * g0."""
    if m > n:
        raise ValueError(f"m = {m} exceeds n = {n}")
    if m < 0 or n < 1 or degree < 1:
        raise ValueError("need n >= 1, m >= 0, degree >= 1")
    rng = np.random.default_rng(seed)
    if m:
        ell0 = orthonormalize(rng.standard_normal((n, m)))
        f0 = _nondegenerate_inner(rng, m, degree)
        h = f0.compose(ell0.T)
    else:
        ell0 = np.zeros((n, 0))
        f0 = Polynomial.constant(0, float(rng.standard_normal()))
        h = Polynomial.constant(n, f0.constant_value())
    g0 = None
    if epsilon:
        g0 = _random_polynomial(rng, n, degree, density=1.0)
        h = h + epsilon * g0
    return Instance(
        h=h, f0=f0, ell0=ell0, g0=g0, epsilon=float(epsilon),
        n=n, m=m, degree=degree, seed=seed,
    )
