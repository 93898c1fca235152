"""Reduce sphere-constrained sparse problems to low-dimensional ball problems.

If h(x) = f(ell^T x) with linearly independent columns of ell, minimizing h
over the unit sphere in R^n equals minimizing g(y) = f(L y) over the closed
unit ball in R^m, where L is the symmetric square root of ell^T ell.  A
minimizer y* of the reduced problem lifts back to a sphere point with the
same objective value.  ell^T ell is factored once: its eigendecomposition
gives the rank check, L and the L^-1 of the lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import SparseForm
from .linalg import RankDeficientError, numeric_rank, sym_eig
from .poly import Polynomial


class NoSphereLiftError(ValueError):
    """No sphere point maps to the requested reduced point (m = n interior)."""


@dataclass
class ReducedBallProblem:
    """Reduced problem min g(y) over the unit ball in R^m; ``L`` and ``L_inv``
    are the symmetric square root of ell^T ell and its inverse."""

    g: Polynomial
    L: np.ndarray
    L_inv: np.ndarray
    source: SparseForm


def reduce_sphere(sf: SparseForm) -> ReducedBallProblem:
    """Build the reduced ball problem from a sparse form.

    Requires linearly independent columns of ``sf.ell``; when the columns are
    orthonormal, L is the identity and g coincides with f.
    """
    ell = np.asarray(sf.ell, dtype=float)
    eig = sym_eig(ell.T @ ell)
    if numeric_rank(eig.eigenvalues) < ell.shape[1]:
        raise RankDeficientError("columns of ell are linearly dependent")
    vecs, roots = eig.eigenvectors, np.sqrt(eig.eigenvalues)
    L = vecs @ np.diag(roots) @ vecs.T
    L_inv = vecs @ np.diag(1.0 / roots) @ vecs.T
    L, L_inv = (L + L.T) / 2.0, (L_inv + L_inv.T) / 2.0
    return ReducedBallProblem(g=sf.f.compose(L), L=L, L_inv=L_inv, source=sf)


def lift_minimizer(prob: ReducedBallProblem, y_star: np.ndarray) -> np.ndarray:
    """Map a reduced-ball point to a sphere point with the same value.

    Returns x on the unit sphere with ell^T x = L @ y_star, hence
    h(x) = g(y_star).  The residual norm is supplied by any unit vector in
    the kernel of ell^T; when m = n that kernel is empty, so interior points
    (|y| < 1) cannot be lifted and raise :class:`NoSphereLiftError`.
    """
    ell = np.asarray(prob.source.ell, dtype=float)
    n, m = ell.shape
    y = np.asarray(y_star, dtype=float).reshape(-1)
    if y.size != m:
        raise ValueError(f"y_star has length {y.size}, expected {m}")
    norm_y = float(np.linalg.norm(y))
    if norm_y > 1.0 + 1e-10:
        raise ValueError(f"|y_star| = {norm_y} exceeds 1")

    base = ell @ (prob.L_inv @ y)
    if m == n:
        if norm_y < 1.0 - 1e-8:
            raise NoSphereLiftError("m = n leaves no kernel direction and |y*| < 1")
        return base / np.linalg.norm(base)

    # Any zero-eigenvalue eigenvector of ell @ ell^T spans a kernel direction;
    # the eigenvector sign convention makes the choice deterministic.
    eig = sym_eig(ell @ ell.T)
    w = eig.eigenvectors[:, -1]
    residual = np.sqrt(max(0.0, 1.0 - norm_y**2))
    return base + residual * w
