"""Detect when a polynomial depends on only a few linear forms.

A polynomial h in n variables is a function of m linear forms exactly when
its gradients span an m-dimensional subspace V.  Two routes find m and an
orthonormal basis of V:

* the exact route builds the matrix E[grad h grad h^T] under the uniform
  distribution on the unit ball (in closed form, as G K G^T over the
  gradient coefficient matrix G and the ball moments K of monomial pairs)
  and reads m off its numeric rank, taking the eigenvectors of the nonzero
  eigenvalues as the basis;
* the randomized route stacks gradients at random ball points until the rank
  of the Gram matrix stops growing, which identifies m with probability one.

Given a basis, the sparse form h(x) = f(basis^T x) is recovered by linear
substitution and can be audited on random points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_RANK_TOL, SymEig, numeric_rank, orthonormalize, sym_eig
from .poly import (
    GradientEvaluator,
    Polynomial,
    ball_moment_gram,
    partial_terms,
    unique_rows,
)
from .sampling import sample_ball

# ball samples behind the extraction residual of verify_sparse_form
VERIFY_POINTS = 200


class RankNotStabilizedError(RuntimeError):
    """The sampled Gram rank kept growing; fall back to the exact method."""


@dataclass
class DetectionReport:
    """Outcome of a sparsity detection run.

    ``spectrum`` holds the full eigenvalue list of the gradient moment matrix
    for the exact method, and the trace of Gram ranks (one per sample count)
    for the randomized method.  ``samples_used`` is None for the exact method.
    """

    m: int
    basis: np.ndarray
    spectrum: list
    method: str
    samples_used: int | None
    rank_tol: float


@dataclass
class SparseForm:
    """Pair (f, ell) representing h(x) = f(ell^T x)."""

    f: Polynomial
    ell: np.ndarray


def moment_matrix(h: Polynomial) -> np.ndarray:
    """n x n matrix with entries E[dh/dx_i * dh/dx_j] on the unit ball.

    The gradient is read off h's exponent matrix by index shift, as a
    coefficient matrix G (n x u) over the u distinct gradient monomials, so
    the result is G K G^T with K[a, b] the ball moment of monomial a times
    monomial b (see ``ball_moment_gram``).
    """
    n = h.num_vars
    var, shifted, partial_coefs = partial_terms(h.exps, h.coefs)
    if not var.size:
        return np.zeros((n, n))
    monos, column = unique_rows(shifted)
    grad = np.zeros((n, monos.shape[0]))
    grad[var, column] = partial_coefs
    return ball_moment_gram(monos, grad)


def gradient_spectrum(h: Polynomial) -> SymEig:
    """Eigendecomposition of h's gradient moment matrix, eigenvalues descending.

    Every spectral decision about h reads this one object: :func:`detect_exact`
    takes m and the frame from it, and ``approx``'s :func:`choose_m` and
    :func:`split_spectrum` the head/tail split, so a run computes it once.
    """
    return sym_eig(moment_matrix(h))


def detect_exact(eig: SymEig, rank_tol: float = DEFAULT_RANK_TOL) -> DetectionReport:
    """Exact detection from ``eig = gradient_spectrum(h)``: m is its numeric
    rank and the basis its top-m eigenvectors."""
    m = numeric_rank(eig.eigenvalues, rank_tol)
    return DetectionReport(
        m=m,
        basis=orthonormalize(eig.eigenvectors[:, :m]),
        spectrum=[float(v) for v in eig.eigenvalues],
        method="exact",
        samples_used=None,
        rank_tol=rank_tol,
    )


def detect_randomized(
    h: Polynomial,
    seed: int = 0,
    rank_tol: float = DEFAULT_RANK_TOL,
    max_k: int | None = None,
) -> DetectionReport:
    """Randomized detection from gradients at uniform ball samples.

    The gradients at all ``max_k`` samples come from one fill of h's gradient
    tree; the run takes them one sample at a time and stops at the first k
    where the numeric rank of the Gram matrix matches the previous one.
    The basis comes from the same eigendecomposition of the k x k Gram: the
    gradients times its top m eigenvectors span the gradients' column space.
    Raises :class:`RankNotStabilizedError` when the rank is still growing at
    ``max_k`` samples (default n + 2).
    """
    n = h.num_vars
    if max_k is None:
        max_k = n + 2
    if max_k < 2:
        raise ValueError("max_k must be at least 2")
    rng = np.random.default_rng(seed)
    points = sample_ball(rng, max_k, n)
    gradients = GradientEvaluator(h).rows(points)[0].T[1:]  # column k: grad h at point k

    rank_trace: list[int] = []
    prev_rank = None
    for k in range(1, max_k + 1):
        stacked = gradients[:, :k]
        gram = stacked.T @ stacked
        eig = sym_eig((gram + gram.T) / 2.0)
        ranks = numeric_rank(eig.eigenvalues, rank_tol)
        rank_trace.append(ranks)
        if prev_rank is not None and ranks == prev_rank:
            return DetectionReport(
                m=ranks,
                basis=orthonormalize(stacked @ eig.eigenvectors[:, :ranks]),
                spectrum=rank_trace,
                method="randomized",
                samples_used=k,
                rank_tol=rank_tol,
            )
        prev_rank = ranks
    raise RankNotStabilizedError(
        f"gradient rank did not stabilize within {max_k} samples"
    )


def extract_sparse_form(h: Polynomial, basis: np.ndarray) -> SparseForm:
    """Recover f with h(x) = f(basis^T x) for an orthonormal basis.

    With orthonormal columns the pseudo-inverse of the basis is its
    transpose, so f is simply h composed with x := basis @ X.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != h.num_vars:
        raise ValueError(
            f"basis must have shape ({h.num_vars}, m), got {basis.shape}"
        )
    m = basis.shape[1]
    gram = basis.T @ basis
    if m and float(np.abs(gram - np.eye(m)).max()) > 1e-8:
        raise ValueError("basis columns are not orthonormal")
    return SparseForm(f=h.compose(basis), ell=basis.copy())


def verify_sparse_form(h: Polynomial, sf: SparseForm, seed: int = 0) -> float:
    """Max relative reconstruction residual of f(ell^T x) against h over
    ``VERIFY_POINTS`` uniform ball samples."""
    rng = np.random.default_rng(seed)
    pts = sample_ball(rng, VERIFY_POINTS, h.num_vars)
    h_vals = h.evaluate_many(pts)
    f_vals = sf.f.evaluate_many(pts @ sf.ell)
    return float(np.max(np.abs(h_vals - f_vals) / np.maximum(1.0, np.abs(h_vals))))
