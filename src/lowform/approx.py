"""Conditional-expectation surrogates for approximately sparse polynomials.

When h is only approximately a function of m linear forms, split the spectrum
of the gradient moment matrix into a head frame ell (top m eigenvectors) and
a tail frame s.  Averaging h over the tail directions conditional on the head
coordinates gives a surrogate that is again a polynomial, in the m head
coordinates X plus one extra variable Y standing for sqrt(1 - |X|^2):

    fhat(X, Y) = E[ h(ell X + Y s v) ],   v uniform on the (n-m)-ball.

Both routes rotate h once into the orthogonal frame [ell s], giving
h~(X, Z) = h(ell X + s Z), and map each term c X^alpha Z^beta to
c E[v^beta] X^alpha Y^|beta|.  They differ only in the source of the tail
moments E[v^beta]: the exact route uses closed-form ball moments, and a
cubature rule on the (n-m)-ball provides an alternative source that must
agree coefficientwise.  Ball symmetry makes fhat even in Y, so the surrogate
restricted to Y^2 = 1 - |X|^2 is a genuine polynomial model of h.

Minimizing the surrogate is one polynomial problem Q over the m-ball: on
Y = sqrt(1 - |X|^2), fhat equals B(X) = ``fhat.to_ball_polynomial()``, as
fhat is even in Y, so Q minimizes B over |X| <= 1.

The L2 error E[(h - hhat)^2] of hhat(x) = fhat(ell^T x, sqrt(1 - |ell^T x|^2))
is exact: hhat is a polynomial, as fhat is even in Y, so the error is a sum
of ball moments, taken by the kernel of detection's moment matrix.

The cubature rule's weights come from a nonnegative least squares solved
here in numpy, so neither path loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .linalg import SymEig
from .poly import Polynomial, ball_moment_gram, ball_moments, graded_monomials, monomial_values
from .sampling import sample_ball
from .solvers import SolveOptions, SolveResult, minimize_ball

_ODD_Y_TOL = 1e-12
# choose_m keeps the head whose spectral tail fraction falls below this
CHOOSE_M_TAIL = 1e-2


class CubatureConstructionError(RuntimeError):
    """Moment matching failed; fall back to the exact path."""


@dataclass
class SpectrumSplit:
    """Head/tail eigendecomposition of the gradient moment matrix.

    ``ell`` holds the top-m orthonormal eigenvectors, ``s`` the remaining
    n - m; ``lambda_head`` and ``lambda_tail`` are the matching eigenvalues
    in descending order.
    """

    ell: np.ndarray
    s: np.ndarray
    lambda_head: np.ndarray
    lambda_tail: np.ndarray

    @property
    def n(self) -> int:
        return self.ell.shape[0]

    @property
    def m(self) -> int:
        return self.ell.shape[1]


@dataclass(frozen=True)
class LiftedPolynomial:
    """Surrogate polynomial in (X_1, ..., X_m, Y); Y is the last variable,
    so m is one less than ``poly.num_vars``."""

    poly: Polynomial

    @property
    def m(self) -> int:
        return self.poly.num_vars - 1

    def odd_y_violation(self) -> float:
        """Largest |coefficient| among odd-Y terms (zero for valid lifts)."""
        odd = self.poly.exps[:, -1] % 2 == 1
        return float(np.abs(self.poly.coefs[odd]).max(initial=0.0))

    def to_ball_polynomial(self) -> Polynomial:
        """Eliminate Y via Y^2 = 1 - |X|^2; requires an even-Y lift.

        Odd-Y coefficients up to ``_ODD_Y_TOL`` times the largest one are
        rounding noise (as a cubature rule's odd moments are) and dropped.
        The result is built once per lift, so :func:`solve_Q` and
        :func:`l2_error` share it.
        """
        return self._ball

    @cached_property
    def _ball(self) -> Polynomial:
        if self.odd_y_violation() > _ODD_Y_TOL * np.abs(self.poly.coefs).max(initial=0.0):
            raise ValueError("lift has odd-Y terms; Y cannot be eliminated")
        m = self.m
        one_minus_norm = Polynomial.constant(m, 1.0) - sum(
            (Polynomial.variable(m, j) ** 2 for j in range(m)),
            Polynomial.zero(m),
        )
        even = self.poly.exps[:, -1] % 2 == 0
        exps, coefs = self.poly.exps[even], self.poly.coefs[even]
        half = exps[:, -1] // 2
        return sum(
            (
                Polynomial.from_arrays(m, exps[half == k, :-1], coefs[half == k])
                * one_minus_norm**k
                for k in np.unique(half).tolist()
            ),
            Polynomial.zero(m),
        )


def split_spectrum(eig: SymEig, m: int) -> SpectrumSplit:
    """Split ``eig = gradient_spectrum(h)`` at index m (1 <= m < n)."""
    n = eig.eigenvalues.size
    if not 1 <= m < n:
        raise ValueError(f"m must satisfy 1 <= m < {n}, got {m}")
    return SpectrumSplit(
        ell=eig.eigenvectors[:, :m].copy(),
        s=eig.eigenvectors[:, m:].copy(),
        lambda_head=eig.eigenvalues[:m].copy(),
        lambda_tail=eig.eigenvalues[m:].copy(),
    )


def tail_fraction(eig: SymEig, m: int) -> float:
    """Share of the spectrum's sum past its top m eigenvalues (0 for a zero
    spectrum)."""
    total = float(eig.eigenvalues.sum())
    return float(eig.eigenvalues[m:].sum()) / total if total > 0 else 0.0


def choose_m(eig: SymEig) -> int:
    """Smallest m whose :func:`tail_fraction` drops below ``CHOOSE_M_TAIL``
    (0 for a zero spectrum)."""
    n = eig.eigenvalues.size
    return next((m for m in range(n + 1) if tail_fraction(eig, m) < CHOOSE_M_TAIL), n)


def _surrogate(
    h: Polynomial, split: SpectrumSplit, moments: Callable[[np.ndarray], np.ndarray]
) -> LiftedPolynomial:
    """fhat(X, Y) = E[h(ell X + Y s v)] from one rotation of h.

    Composing h with the orthogonal frame [ell s] gives
    h~(X, Z) = h(ell X + s Z).  Substituting Z = Y v and averaging over v maps
    each term c X^alpha Z^beta to c mu(beta) X^alpha Y^|beta|, where
    ``moments`` returns mu(beta) = E[v^beta] for each row of an exponent
    matrix over the n - m tail variables.
    """
    m = split.m
    rotated = h.compose(np.hstack([split.ell, split.s]))
    exps = rotated.exps
    head = np.column_stack([exps[:, :m], exps[:, m:].sum(axis=1)])
    return LiftedPolynomial(
        Polynomial.from_arrays(m + 1, head, rotated.coefs * moments(exps[:, m:]))
    )


def conditional_expectation_exact(
    h: Polynomial, split: SpectrumSplit
) -> LiftedPolynomial:
    """Exact surrogate fhat(X, Y) = E[h(ell X + Y s v)], v uniform ball.

    h is rotated once into the frame [ell s], and each tail monomial Z^beta
    is replaced by Y^|beta| times its closed-form moment on the (n - m)-ball.
    Odd moments vanish, so the result contains only even powers of Y.
    """
    d = split.n - split.m
    return _surrogate(h, split, lambda betas: ball_moments(betas, d))


# ----------------------------------------------------------------------
# cubature on the unit ball
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CubatureRule:
    """Positive rule exact for all monomials of total degree <= degree.

    ``nodes`` and ``weights`` are made read-only: :func:`build_cubature`
    hands the same rule to every caller.
    """

    dim: int
    degree: int
    nodes: np.ndarray  # (r, dim), inside the unit ball
    weights: np.ndarray  # (r,), positive, summing to 1

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    def moments(self, exponents: np.ndarray) -> np.ndarray:
        """sum_j w_j v_j^beta for every row beta of a (k, dim) exponent matrix."""
        return monomial_values(exponents, self.nodes) @ self.weights


def _validate_rule(rule: CubatureRule) -> float:
    alphas = graded_monomials(rule.dim, rule.degree)
    return float(np.abs(rule.moments(alphas) - ball_moments(alphas, rule.dim)).max())


def _back_substitute(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """z with r z = y for upper-triangular r, solved in halves down to small
    blocks (LU of a triangular block does no pivoting: it is back
    substitution)."""
    k = y.size
    if k <= 64:
        return np.linalg.solve(r, y)
    h = k // 2
    z2 = _back_substitute(r[h:, h:], y[h:])
    return np.concatenate([_back_substitute(r[:h, :h], y[:h] - r[:h, h:] @ z2), z2])


def _append_column(qt, r, qtb, k: int, column: np.ndarray, b: np.ndarray):
    """Grow the k-column thin QR (``qt`` holds Q^T) by ``column``; returns the
    least-squares coefficients on the k + 1 columns, or None when the column
    may not enter: it is numerically dependent on the first k, or its own
    coefficient is not positive (Lawson-Hanson's two tests)."""
    c = qt[:k] @ column
    v = column - c @ qt[:k]
    c2 = qt[:k] @ v  # the second Gram-Schmidt pass restores orthogonality
    v -= c2 @ qt[:k]
    rho = np.linalg.norm(v)
    if rho <= 100.0 * np.finfo(float).eps * np.linalg.norm(column):
        return None
    qt[k] = v / rho
    r[:k, k] = c + c2
    r[k, k] = rho
    qtb[k] = qt[k] @ b
    z = _back_substitute(r[:k + 1, :k + 1], qtb[:k + 1])
    return z if z[k] > 0.0 else None


def _delete_column(qt, r, qtb, k: int, i: int) -> None:
    """Remove column i of the k-column thin QR by Givens rotations."""
    r[:k, i:k - 1] = r[:k, i + 1:k]
    for j in range(i, k - 1):
        # rotate rows j and j + 1 so that r[j + 1, j] becomes zero
        g = np.array([[r[j, j], r[j + 1, j]], [-r[j + 1, j], r[j, j]]])
        g /= np.hypot(r[j, j], r[j + 1, j])
        r[j:j + 2, j:k - 1] = g @ r[j:j + 2, j:k - 1]
        r[j + 1, j] = 0.0
        qt[j:j + 2] = g @ qt[j:j + 2]
        qtb[j:j + 2] = g @ qtb[j:j + 2]


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """x >= 0 minimizing |a x - b|, and that residual norm.

    The Lawson-Hanson active-set method (Solving Least Squares Problems,
    1974, ch. 23), with at most 3 n least-squares steps.  The passive
    columns keep a thin QR between steps: a column enters by two
    Gram-Schmidt passes and leaves by a Givens downdate, never by a
    refactorization.  One lstsq on the final passive columns polishes x.
    """
    m, n = a.shape
    size = min(m, n)
    at = np.ascontiguousarray(a.T)
    qt, r, qtb = np.zeros((size, m)), np.zeros((size, size)), np.zeros(size)
    x = np.zeros(n)
    passive: list[int] = []
    residual = b
    steps = 0
    while steps < 3 * n and len(passive) < size:
        w = at @ residual
        w[passive] = 0.0
        z = None
        while z is None and w.max() > 0.0:
            t = int(np.argmax(w))
            w[t] = 0.0
            z = _append_column(qt, r, qtb, len(passive), a[:, t], b)
        if z is None:
            break  # no free column can lower the residual
        passive.append(t)
        steps += 1
        while (z <= 0.0).any():
            # step from x towards z until the first passive value reaches 0,
            # then move every passive value at 0 back to the free set
            steps += 1
            xp = x[passive]
            neg = np.flatnonzero(z <= 0.0)
            ratios = xp[neg] / (xp[neg] - z[neg])
            xp += ratios.min() * (z - xp)
            xp[neg[ratios.argmin()]] = 0.0
            x[passive] = xp
            for i in np.flatnonzero(xp <= 0.0)[::-1]:
                _delete_column(qt, r, qtb, len(passive), i)
                x[passive.pop(i)] = 0.0
            k = len(passive)
            z = _back_substitute(r[:k, :k], qtb[:k])
        k = len(passive)
        x[passive] = z
        residual = b - qtb[:k] @ qt[:k]
    if passive:
        z = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        if (z > 0.0).all():
            x[passive] = z
    return x, float(np.linalg.norm(a @ x - b))


@lru_cache(maxsize=16)  # bounded: a long session may sweep seeds
def build_cubature(dim: int, degree: int, /, *, seed: int) -> CubatureRule:
    """Rule exact to ``degree`` for the uniform distribution on the ball.

    dim 1 uses Gauss-Legendre nodes (the uniform measure on [-1, 1] is the
    Legendre weight).  Higher dimensions match moments by nonnegative least
    squares (:func:`_nnls`) over symmetric (+-v) candidate pairs, which kills
    all odd-degree monomials by construction; candidates are resampled with
    a larger pool on failure.  The finished rule is validated against every
    moment up to its degree.  The rule is a function of (dim, degree, seed),
    which has one call form, so each is built once per process and shared.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if dim == 1:
        q = degree // 2 + 1
        nodes, weights = np.polynomial.legendre.leggauss(q)
        rule = CubatureRule(1, degree, nodes.reshape(-1, 1), weights / 2.0)
        if _validate_rule(rule) > 1e-8:
            raise CubatureConstructionError("Gauss-Legendre rule failed validation")
        return rule

    alphas = graded_monomials(dim, degree)
    even_targets = alphas[alphas.sum(axis=1) % 2 == 0]
    b = ball_moments(even_targets, dim)
    rng = np.random.default_rng(seed)
    num_pairs = max(8 * len(even_targets), 128)
    for attempt in range(5):
        half = sample_ball(rng, num_pairs, dim)
        # columns: v^alpha + (-v)^alpha = 2 v^alpha for even total degree
        matrix = 2.0 * monomial_values(even_targets, half)
        weights, residual = _nnls(matrix, b)
        if residual <= 1e-10:
            keep = weights > 1e-14
            nodes = np.vstack([half[keep], -half[keep]])
            w = np.concatenate([weights[keep], weights[keep]])
            rule = CubatureRule(dim, degree, nodes, w)
            if _validate_rule(rule) <= 1e-8:
                return rule
        num_pairs *= 2
    raise CubatureConstructionError(
        f"rule construction failed for dim={dim}, degree={degree}"
    )


def conditional_expectation_cubature(
    h: Polynomial, split: SpectrumSplit, rule: CubatureRule
) -> LiftedPolynomial:
    """Surrogate via a fixed cubature rule on the tail ball.

    The same rotation as the exact path, with each tail moment E[v^beta]
    taken from the rule, sum_j w_j v_j^beta, instead of the closed form.
    Coefficientwise equal to the exact path whenever the rule's degree covers
    h's degree.
    """
    d = split.n - split.m
    if rule.dim != d:
        raise ValueError(f"rule dimension {rule.dim} != tail dimension {d}")
    if rule.degree < h.degree():
        raise ValueError(
            f"rule degree {rule.degree} is below polynomial degree {h.degree()}"
        )
    return _surrogate(h, split, rule.moments)


# ----------------------------------------------------------------------
# surrogate optimization and evaluation
# ----------------------------------------------------------------------


def solve_Q(fhat: LiftedPolynomial, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize B = ``fhat.to_ball_polynomial()`` over the m-ball.

    Returns the ball solve's result, its ``value`` the minimum rho of
    problem Q, with the minimizer X lifted to the point
    (X, sqrt(1 - |X|^2)) of the unit sphere in R^(m+1), where fhat takes
    the value B(X).
    """
    res = minimize_ball(fhat.to_ball_polynomial(), opts)
    y = np.sqrt(max(0.0, 1.0 - res.point @ res.point))
    return replace(res, point=np.append(res.point, y))


def l2_error(h: Polynomial, fhat: LiftedPolynomial, split: SpectrumSplit) -> float:
    """E[(h - hhat)^2] on the uniform unit ball, exactly.

    fhat is even in Y, so hhat(x) = fhat(ell^T x, sqrt(1 - |ell^T x|^2)) is
    the polynomial B(ell^T x), with B = ``fhat.to_ball_polynomial()``.  For
    D = h - B(ell^T x) = sum_a c_a x^a the error is the sum of
    c_a c_b E[x^(a + b)] over the pairs (a, b) that share a parity pattern.
    """
    d = h - fhat.to_ball_polynomial().compose(split.ell.T)
    return float(ball_moment_gram(d.exps, d.coefs[None, :])[0, 0])
