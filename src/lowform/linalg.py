"""Dense symmetric eigendecompositions, numeric rank, orthonormal bases, and small LPs.

Everything here operates on small dense matrices (desk-scale dimensions), so
the implementations lean on LAPACK via numpy and on scipy's HiGHS LP solver
behind thin, contract-checked wrappers.  Eigenvalues are always reported in
descending order and eigenvector signs are normalized (first component of
nonnegligible magnitude is positive) so downstream reports are deterministic.
No matrix roots are taken here: ``sphere.py`` derives its two from one sym_eig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative eigenvalue threshold that decides numeric rank everywhere.
DEFAULT_RANK_TOL = 1e-8

_SIGN_EPS = 1e-12
_SYM_TOL = 1e-10  # sym_eig: largest asymmetry, relative to max(1, max |a|)
_INDEPENDENCE_TOL = 1e-10  # orthonormalize: smallest |R_ii|, relative to max |a|

# HiGHS drops constraint-matrix entries below this magnitude (its
# small_matrix_value option).
_HIGHS_SMALL_MATRIX_VALUE = 1e-9


class LinalgError(ValueError):
    """Input violates a linear-algebra precondition."""


class NonSymmetricError(LinalgError):
    pass


class RankDeficientError(LinalgError):
    pass


class LpFailure(RuntimeError):
    """The LP solver could not classify the problem."""


class LpStalledError(LpFailure):
    """Iteration cap reached before the LP was solved."""


def fix_column_signs(matrix: np.ndarray) -> np.ndarray:
    """Flip column signs so the first nonnegligible entry is positive."""
    out = np.array(matrix, dtype=float, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > _SIGN_EPS)
        if idx.size and col[idx[0]] < 0:
            out[:, j] = -col
    return out


@dataclass
class SymEig:
    """Full spectrum of a symmetric matrix, eigenvalues descending.

    Column i of ``eigenvectors`` corresponds to ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(matrix: np.ndarray) -> SymEig:
    """Eigendecomposition of a symmetric matrix, descending eigenvalues."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        scale = max(1.0, float(np.abs(a).max()))
        if float(np.abs(a - a.T).max()) > _SYM_TOL * scale:
            raise NonSymmetricError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(vals)[::-1]
    return SymEig(vals[order], fix_column_signs(vecs[:, order]))


def numeric_rank(eigenvalues: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of eigenvalues above ``rel_tol`` times the largest one."""
    vals = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if vals.size == 0:
        return 0
    threshold = rel_tol * max(float(vals[0]), 1e-300)
    return int(np.sum(vals > threshold))


def orthonormalize(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis with the same column span, deterministic signs."""
    a = np.asarray(columns, dtype=float)
    if a.ndim != 2:
        raise LinalgError(f"expected a matrix of columns, got shape {a.shape}")
    if a.shape[1] == 0:
        return a.copy()
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    scale = max(float(np.abs(a).max()), 1e-300)
    if np.any(diag <= _INDEPENDENCE_TOL * scale):
        raise RankDeficientError("columns are linearly dependent within tolerance")
    return fix_column_signs(q)


# ----------------------------------------------------------------------
# small dense linear programs
# ----------------------------------------------------------------------


@dataclass
class LpProblem:
    """min c @ x subject to a_ub @ x <= b_ub, a_eq @ x = b_eq, bounds.

    ``bounds`` is one (lo, hi) pair per variable with None meaning
    unbounded; variables are free by default (unlike scipy's x >= 0).
    """

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: list[tuple[float | None, float | None]] | None = None


@dataclass
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: float | None
    point: np.ndarray | None


def _scale_small_rows(a, b):
    """Divide each row of a whose largest magnitude is below HiGHS's
    small_matrix_value, and its entry of b, by that magnitude, so that HiGHS
    does not drop the whole row; other rows are left as they are."""
    if a is None:
        return a, b
    a = np.asarray(a, dtype=float)
    size = np.abs(a).max(axis=1, initial=0.0)
    small = (size > 0.0) & (size < _HIGHS_SMALL_MATRIX_VALUE)
    if not small.any():
        return a, b
    scale = np.where(small, size, 1.0)
    return a / scale[:, None], np.asarray(b, dtype=float) / scale


def lp_solve(problem: LpProblem, max_iter: int = 50_000) -> LpResult:
    """Solve a small dense LP; returns a basic optimal solution when optimal.

    Constraint rows too small for HiGHS to keep are rescaled first.  scipy
    is imported here, so a process that solves no LP never loads it.
    """
    from scipy.optimize import linprog

    c = np.asarray(problem.c, dtype=float).reshape(-1)
    bounds = problem.bounds if problem.bounds is not None else [(None, None)] * c.size
    a_ub, b_ub = _scale_small_rows(problem.a_ub, problem.b_ub)
    a_eq, b_eq = _scale_small_rows(problem.a_eq, problem.b_eq)
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs-ds",
        options={"maxiter": max_iter},
    )
    if res.status == 0:
        return LpResult("optimal", float(res.fun), np.asarray(res.x, dtype=float))
    if res.status == 1:
        raise LpStalledError(f"LP stalled after {max_iter} iterations")
    if res.status == 2:
        return LpResult("infeasible", None, None)
    if res.status == 3:
        return LpResult("unbounded", None, None)
    raise LpFailure(f"LP solver failed: {res.message}")
