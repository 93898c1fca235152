"""Sparse multivariate polynomial arithmetic with exact unit-ball moments.

A polynomial is stored as a map from exponent tuples (one nonnegative integer
per variable) to float coefficients; the zero polynomial is the empty map.
Instances are never mutated after construction, so they are safe to share
across threads.  Coefficients whose magnitude falls below ``DROP_TOL`` are
dropped on construction, which keeps term maps from accreting numerical dust
through long chains of arithmetic.

The module also provides closed-form expectations of monomials under the
uniform probability distribution on the n-dimensional Euclidean unit ball,
one exponent at a time or for a whole exponent matrix.  The formula is
evaluated in exact rational arithmetic and converted to float at the end, so
results are correctly rounded doubles.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

# Coefficients below this magnitude are dropped after every operation.
DROP_TOL = 1e-14

Exponent = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Operands disagree on variable count or point length."""


class Polynomial:
    """Immutable sparse polynomial in ``num_vars`` real variables.

    ``terms`` maps exponent tuples of length ``num_vars`` to coefficients.
    Duplicate exponents passed to the constructor are merged, and terms with
    |coefficient| < ``DROP_TOL`` are dropped.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Exponent, float] | None = None):
        num_vars = int(num_vars)
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        merged: dict[Exponent, float] = {}
        for exp, coef in (terms or {}).items():
            key = tuple(int(e) for e in exp)
            if len(key) != num_vars:
                raise DimensionMismatchError(
                    f"exponent {key} has length {len(key)}, expected {num_vars}"
                )
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            merged[key] = merged.get(key, 0.0) + float(coef)
        self.num_vars = num_vars
        self.terms = {e: c for e, c in merged.items() if abs(c) >= DROP_TOL}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: float) -> "Polynomial":
        return cls(num_vars, {(0,) * num_vars: float(value)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} vars")
        exp = [0] * num_vars
        exp[index] = 1
        return cls(num_vars, {tuple(exp): 1.0})

    @classmethod
    def linear_form(cls, coeffs: Sequence[float], constant: float = 0.0) -> "Polynomial":
        """Degree <= 1 polynomial ``constant + sum_j coeffs[j] * x_j``."""
        k = len(coeffs)
        terms: dict[Exponent, float] = {}
        for j, c in enumerate(coeffs):
            exp = [0] * k
            exp[j] = 1
            terms[tuple(exp)] = float(c)
        if constant:
            terms[(0,) * k] = float(constant)
        return cls(k, terms)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def constant_value(self) -> float:
        """Coefficient of the constant term."""
        return self.terms.get((0,) * self.num_vars, 0.0)

    def is_constant(self) -> bool:
        return self.degree() == 0

    def graded_terms(self) -> list[tuple[Exponent, float]]:
        """Terms sorted in graded-lexicographic order (degree, then lex)."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def coefficient_distance(self, other: "Polynomial") -> float:
        """Max absolute coefficient difference between two term maps."""
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError("polynomials live in different variable counts")
        keys = set(self.terms) | set(other.terms)
        if not keys:
            return 0.0
        return max(abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _check_same_space(self, other: "Polynomial") -> None:
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError(
                f"cannot combine polynomials in {self.num_vars} and {other.num_vars} vars"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_space(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, 0.0) + coef
        return Polynomial(self.num_vars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_space(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, 0.0) - coef
        return Polynomial(self.num_vars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.num_vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_space(other)
        out: dict[Exponent, float] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError("negative powers are not defined")
        result = Polynomial.constant(self.num_vars, 1.0)
        base = self
        p = int(power)
        while p:
            if p & 1:
                result = result * base
            p >>= 1
            if p:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return f"Polynomial({self.num_vars}, 0)"
        parts = [f"{c:+g}*x^{list(e)}" for e, c in self.graded_terms()[:6]]
        suffix = " + ..." if len(self.terms) > 6 else ""
        return f"Polynomial({self.num_vars}, {' '.join(parts)}{suffix})"

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, point: Sequence[float]) -> float:
        """Value of the polynomial at a single point."""
        x = np.asarray(point, dtype=float).reshape(-1)
        if x.shape[0] != self.num_vars:
            raise DimensionMismatchError(
                f"point has length {x.shape[0]}, expected {self.num_vars}"
            )
        total = 0.0
        for exp, coef in self.terms.items():
            term = coef
            for xi, e in zip(x, exp):
                if e:
                    term *= xi**e
            total += term
        return total

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at ``points`` of shape (N, num_vars)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.num_vars:
            raise DimensionMismatchError(
                f"points must have shape (N, {self.num_vars}), got {pts.shape}"
            )
        out = np.zeros(pts.shape[0])
        if not self.terms:
            return out
        # Per-variable power cache: each distinct (variable, exponent) pair is
        # computed once across all terms.
        cache: dict[tuple[int, int], np.ndarray] = {}

        def power(i: int, e: int) -> np.ndarray:
            key = (i, e)
            if key not in cache:
                cache[key] = pts[:, i] ** e
            return cache[key]

        for exp, coef in self.terms.items():
            term = np.full(pts.shape[0], coef)
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            out += term
        return out

    # ------------------------------------------------------------------
    # calculus and composition
    # ------------------------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        out: dict[Exponent, float] = {}
        for exp, coef in self.terms.items():
            e = exp[index]
            if e:
                key = exp[:index] + (e - 1,) + exp[index + 1 :]
                out[key] = out.get(key, 0.0) + coef * e
        return Polynomial(self.num_vars, out)

    def gradient(self) -> list["Polynomial"]:
        """All first partial derivatives, one per variable."""
        return [self.partial(i) for i in range(self.num_vars)]

    def compose(
        self, forms: Sequence["Polynomial"], num_vars: int | None = None
    ) -> "Polynomial":
        """Substitute ``forms[i]`` for variable i; forms share a variable set.

        ``num_vars`` is only needed when ``forms`` is empty (a 0-variable
        polynomial composed into a target space).
        """
        forms = list(forms)
        if len(forms) != self.num_vars:
            raise DimensionMismatchError(
                f"need {self.num_vars} substitution forms, got {len(forms)}"
            )
        if forms:
            k = forms[0].num_vars
            if any(f.num_vars != k for f in forms):
                raise DimensionMismatchError("substitution forms disagree on variable count")
        elif num_vars is None:
            raise ValueError("num_vars is required when composing with no forms")
        else:
            k = int(num_vars)

        # Powers of each form are shared across all terms of self.
        pow_cache: dict[tuple[int, int], Polynomial] = {}

        def form_power(i: int, e: int) -> Polynomial:
            key = (i, e)
            if key not in pow_cache:
                if e == 1:
                    pow_cache[key] = forms[i]
                else:
                    pow_cache[key] = form_power(i, e - 1) * forms[i]
            return pow_cache[key]

        acc: dict[Exponent, float] = {}
        one = Polynomial.constant(k, 1.0)
        for exp, coef in self.terms.items():
            prod = one
            for i, e in enumerate(exp):
                if e:
                    prod = prod * form_power(i, e)
            for pe, pc in prod.terms.items():
                acc[pe] = acc.get(pe, 0.0) + coef * pc
        return Polynomial(k, acc)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-ready dict with terms in graded-lex order."""
        return {
            "num_vars": self.num_vars,
            "terms": [
                {"exp": list(exp), "coef": coef} for exp, coef in self.graded_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Polynomial":
        """Parse the ``to_json_dict`` format, rejecting what the constructor
        would repair: non-finite coefficients (dropped), non-integral
        exponents (truncated) and repeated exponents (merged)."""
        num_vars = data["num_vars"]
        terms: dict[Exponent, float] = {}
        for t in data["terms"]:
            exp = tuple(t["exp"])
            if not all(
                (isinstance(e, int) and not isinstance(e, bool))
                or (isinstance(e, float) and e.is_integer())
                for e in exp
            ):
                raise ValueError(f"exponent {list(exp)} is not all integers")
            exp = tuple(int(e) for e in exp)
            coef = float(t["coef"])
            if not math.isfinite(coef):
                raise ValueError(f"coefficient of {list(exp)} is {coef}")
            if exp in terms:
                raise ValueError(f"exponent {list(exp)} appears twice")
            terms[exp] = coef
        return cls(num_vars, terms)


def substitute_linear(p: Polynomial, forms: Sequence[Polynomial]) -> Polynomial:
    """Compose ``p`` with degree <= 1 forms over a common variable set.

    The result q satisfies q(t) = p(forms_1(t), ..., forms_n(t)) identically,
    with degree(q) <= degree(p).
    """
    for f in forms:
        if f.degree() > 1:
            raise ValueError("substitute_linear requires affine-or-linear forms")
    return p.compose(forms)


# ----------------------------------------------------------------------
# exact moments on the unit ball
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _even_moment(beta: Exponent, n: int) -> float:
    # E[x^(2*beta)] over the uniform unit ball in R^n, as an exact rational:
    #   n * prod_i (2 b_i)! / (4^{b_i} b_i!)  /  ((n + 2k) * prod_{j<k} (n/2 + j))
    # with k = |beta|.
    k = sum(beta)
    num = Fraction(n)
    for b in beta:
        num *= Fraction(math.factorial(2 * b), 4**b * math.factorial(b))
    den = Fraction(n + 2 * k)
    for j in range(k):
        den *= Fraction(n, 2) + j
    return float(num / den)


def ball_monomial_moment(alpha: Sequence[int], n: int) -> float:
    """E[x^alpha] for x uniform on the n-dimensional unit ball.

    Zero whenever any entry of ``alpha`` is odd, by sign symmetry.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n:
        raise DimensionMismatchError(f"alpha has length {len(alpha)}, expected {n}")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    if n == 0:
        return 1.0
    if any(a % 2 for a in alpha):
        return 0.0
    return _even_moment(tuple(a // 2 for a in alpha), n)


def ball_moments(exponents: np.ndarray, n: int) -> np.ndarray:
    """E[x^alpha] for every row alpha of an (N, n) integer exponent matrix.

    The array form of :func:`ball_monomial_moment`, equal to it bit for bit:
    rows with an odd entry are 0, and every other distinct row is evaluated
    once by the same exact rational formula.
    """
    exps = np.asarray(exponents)
    if exps.ndim != 2 or exps.shape[1] != n:
        raise DimensionMismatchError(f"exponents must have shape (N, {n}), got {exps.shape}")
    if exps.size and exps.min() < 0:
        raise ValueError("exponents must be nonnegative")
    if n == 0:
        return np.ones(exps.shape[0])
    out = np.zeros(exps.shape[0])
    even = ~np.any(exps & 1, axis=1)
    if even.any():
        halves, inverse = np.unique(exps[even] >> 1, axis=0, return_inverse=True)
        values = np.array([_even_moment(tuple(row), n) for row in halves.tolist()])
        out[even] = values[inverse.reshape(-1)]
    return out


def exponent_matrix(p: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    """p's terms as an (N, num_vars) int exponent matrix and N coefficients,
    both in term-map order."""
    exps = np.array(list(p.terms), dtype=np.int64).reshape(len(p.terms), p.num_vars)
    return exps, np.fromiter(p.terms.values(), dtype=float, count=len(p.terms))


def expectation_uniform_ball(p: Polynomial) -> float:
    """E[p(x)] for x uniform on the unit ball in p.num_vars dimensions."""
    if p.num_vars == 0:
        return p.constant_value()
    return sum(
        coef * ball_monomial_moment(exp, p.num_vars) for exp, coef in p.terms.items()
    )


def monomials_up_to(num_vars: int, degree: int) -> Iterator[Exponent]:
    """All exponent tuples with total degree <= degree, graded-lex order."""
    if num_vars == 0:
        yield ()
        return
    for d in range(degree + 1):
        for bars in itertools.combinations(range(d + num_vars - 1), num_vars - 1):
            exp = []
            prev = -1
            for b in bars:
                exp.append(b - prev - 1)
                prev = b
            exp.append(d + num_vars - 1 - prev - 1)
            yield tuple(exp)
