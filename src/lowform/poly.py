"""Sparse multivariate polynomial arithmetic with exact unit-ball moments.

A polynomial stores its terms as two arrays: ``exps``, an (N, num_vars)
int64 matrix of distinct exponent rows in graded-lex order (by degree, then
lexicographically), and ``coefs``, the N float coefficients.  The zero
polynomial has N = 0.  :func:`graded_monomials` lists every exponent row up
to a degree in that order.  Every constructor and operation goes through one
array path that checks the rows, merges repeated exponents (summing their
coefficients in row order), drops coefficients whose magnitude falls below
``DROP_TOL`` and sorts; the dropping keeps term arrays from accreting
numerical dust through long chains of arithmetic.  The merge, the monomial
tree and the moment keys find distinct rows with :func:`unique_rows`, which
sorts the rows packed into a few int64 words each.  Instances are never
mutated after construction (both arrays are read-only), so they are safe to
share across threads.

Evaluation and composition run on one array kernel, the *monomial tree* of
the exponent matrix: its closure under removing one unit of the first
nonzero variable, grouped by degree, where every node is its parent times
one variable.  The tree is built once per instance, on first use.

* ``evaluate_many`` fills the tree level by level, one multiply per node and
  point, and returns the coefficient vector times the node values.  Points
  go through in blocks sized by a fixed byte budget, so memory stays flat
  whatever the point count; ``evaluate`` is the one-point case.
* ``compose(A)`` is the linear substitution x = A t.  It walks the same
  tree top-down as a multivariate Horner scheme: each node carries the
  image of its subtree, a dense vector over the graded monomials of the
  target variables of degree <= depth - d at level d, and the root's image
  is the result.  A level holds nodes x such monomials floats.
* :class:`GradientEvaluator` serves the solvers: one tree over p and its
  partials gives value and gradient from a single fill per point, for one
  point or for the rows of a lockstep batch.

The module also provides closed-form expectations of monomials under the
uniform probability distribution on the n-dimensional Euclidean unit ball,
one exponent at a time or for a whole exponent matrix.  The formula is
evaluated as a ratio of exact integers divided once at the end, so results
are correctly rounded doubles, and once per partition of the halved
exponent, on which alone (with n) it depends.  ``ball_moment_gram`` gives the
second moments E[p_i p_j] of polynomials over one set of monomials.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

# Coefficients below this magnitude are dropped after every operation.
DROP_TOL = 1e-14

Exponent = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Operands disagree on variable count or point length."""


class Polynomial:
    """Immutable sparse polynomial in ``num_vars`` real variables.

    The terms are ``coefs[i] * x^exps[i]``: ``exps`` is an (N, num_vars)
    int64 array of distinct rows in graded-lex order and ``coefs`` an (N,)
    float array, every entry finite with magnitude at least ``DROP_TOL``.

    ``Polynomial(num_vars, mapping)`` builds one from a map of exponent
    tuples to coefficients, and :meth:`from_arrays` from the two arrays.
    Either way repeated exponents are merged, small coefficients dropped, and
    a non-finite coefficient or a negative, non-integral or 2**63-or-larger
    exponent entry raises ValueError.
    """

    __slots__ = ("num_vars", "exps", "coefs", "_cache")

    def __init__(self, num_vars: int, terms: Mapping[Exponent, float] | None = None):
        terms = terms or {}
        keys = list(terms)
        if len(set(map(len, keys))) > 1:
            raise DimensionMismatchError(f"exponents of several lengths for {num_vars} vars")
        exps = np.array(keys) if keys else np.zeros((0, num_vars), dtype=np.int64)
        self._assign(num_vars, exps, np.fromiter(terms.values(), dtype=float, count=len(keys)))

    @classmethod
    def from_arrays(cls, num_vars: int, exps, coefs) -> "Polynomial":
        """The polynomial sum_i coefs[i] x^exps[i] of an (N, num_vars)
        exponent array and N coefficients, rows in any order."""
        p = cls.__new__(cls)
        p._assign(num_vars, exps, coefs)
        return p

    def _assign(self, num_vars: int, exps, coefs, distinct=False) -> None:
        self.num_vars = int(num_vars)
        self.exps, self.coefs = _canonical(self.num_vars, exps, coefs, distinct)
        self._cache = None

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

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, float]:
        """A new map from exponent tuples to coefficients, in graded-lex order."""
        return dict(zip(map(tuple, self.exps.tolist()), self.coefs.tolist()))

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return int(self.exps[-1].sum()) if self.coefs.size else 0

    def constant_value(self) -> float:
        """Coefficient of the constant term."""
        if self.coefs.size and not self.exps[0].any():
            return float(self.coefs[0])
        return 0.0

    def is_constant(self) -> bool:
        return self.degree() == 0

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
        return Polynomial.from_arrays(
            self.num_vars,
            np.vstack([self.exps, other.exps]),
            np.concatenate([self.coefs, other.coefs]),
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_arrays(self.num_vars, self.exps, -self.coefs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial.from_arrays(self.num_vars, self.exps, self.coefs * other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_space(other)
        # every pair of terms, self's term major, as the sum of the rows
        pairs = self.coefs.size * other.coefs.size
        exps = (self.exps[:, None, :] + other.exps[None, :, :]).reshape(pairs, self.num_vars)
        return Polynomial.from_arrays(
            self.num_vars, exps, np.outer(self.coefs, other.coefs).reshape(pairs)
        )

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
            and np.array_equal(self.exps, other.exps)
            and np.array_equal(self.coefs, other.coefs)
        )

    def __repr__(self) -> str:
        if not self.coefs.size:
            return f"Polynomial({self.num_vars}, 0)"
        parts = [
            f"{c:+g}*x^{e}" for e, c in zip(self.exps[:6].tolist(), self.coefs[:6].tolist())
        ]
        suffix = " + ..." if self.coefs.size > 6 else ""
        return f"Polynomial({self.num_vars}, {' '.join(parts)}{suffix})"

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _kernel(self) -> tuple["_MonomialTree", np.ndarray]:
        """The monomial tree of the terms plus the coefficient of every node."""
        if self._cache is None:
            tree = _MonomialTree(self.exps)
            self._cache = (tree, tree.weights(self.coefs[None, :])[0])
        return self._cache

    def evaluate(self, point: Sequence[float]) -> float:
        """Value of the polynomial at a single point."""
        x = np.asarray(point, dtype=float).reshape(-1)
        if x.shape[0] != self.num_vars:
            raise DimensionMismatchError(
                f"point has length {x.shape[0]}, expected {self.num_vars}"
            )
        tree, weights = self._kernel()
        return float(weights @ tree.fill(x))

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at ``points`` of shape (N, num_vars)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.num_vars:
            raise DimensionMismatchError(
                f"points must have shape (N, {self.num_vars}), got {pts.shape}"
            )
        tree, weights = self._kernel()
        out = np.empty(pts.shape[0])
        block = tree.block_size()
        for lo in range(0, pts.shape[0], block):
            out[lo : lo + block] = weights @ tree.fill(pts[lo : lo + block].T)
        return out

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------

    def compose(self, A: np.ndarray) -> "Polynomial":
        """p(A t): the linear substitution x = A t for an (n, k) matrix A.

        The result has k variables and degree at most p's.  Entries of A
        below ``DROP_TOL`` in magnitude count as zero, like every other
        coefficient.  The tree is walked top-down as a multivariate Horner
        scheme: with x_v = sum_j A_vj t_j, every node carries the image of
        its subtree, T(node) = w_node + sum_children x_var T(child), a dense
        vector over the graded monomials of degree <= depth - d in t for a
        node of level d, and T(root) is the result.  A level's images are
        (nodes, graded monomials) floats, and x_v shifts a child's image
        into its parent's by one ``bincount`` per target variable.
        """
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != self.num_vars:
            raise DimensionMismatchError(
                f"substitution matrix must have shape ({self.num_vars}, k), got {A.shape}"
            )
        A = np.where(np.abs(A) < DROP_TOL, 0.0, A)
        k = A.shape[1]
        tree, weights = self._kernel()
        top = tree.depth
        basis, ends, shift = _graded_basis(k, top)
        images = weights[tree.start[top] :, None]  # row i: T(node i of the level)
        for d in range(top, 0, -1):
            _, _, parent, var = tree.levels[d - 1]
            lo, hi = tree.start[d - 1], tree.start[d]
            width = ends[top - d + 1]
            at = (parent - lo)[:, None] * width  # where each child's parent row starts
            flat = np.zeros((hi - lo) * width)
            flat[::width] = weights[lo:hi]  # each parent's own coefficient
            for column, scale in zip(shift[: images.shape[1]].T, A[var].T):
                flat += np.bincount(
                    (at + column).ravel(), (images * scale[:, None]).ravel(), flat.size
                )
            images = flat.reshape(hi - lo, width)
        keep = np.flatnonzero(images[0])
        return Polynomial.from_arrays(k, basis[keep], images[0, keep])

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-ready dict with terms in graded-lex order."""
        return {
            "num_vars": self.num_vars,
            "terms": [
                {"exp": exp, "coef": coef}
                for exp, coef in zip(self.exps.tolist(), self.coefs.tolist())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Polynomial":
        """Parse the ``to_json_dict`` format.

        Besides the checks of every constructor, it rejects what only the
        JSON form can carry: a ``num_vars`` or exponent entries that are not
        integral numbers (a boolean would read as 0 or 1, 2.5 as 2), a
        coefficient that is not a number (a string, a boolean, null or a
        list), and a repeated exponent, which the constructor would merge.
        """
        num_vars = data["num_vars"]
        if not (type(num_vars) is int or type(num_vars) is float and num_vars.is_integer()):
            raise ValueError(f"num_vars must be an integer, got {num_vars!r}")
        num_vars = int(num_vars)
        terms = data["terms"]
        rows = [t["exp"] for t in terms]
        coefs = [t["coef"] for t in terms]
        if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
            raise ValueError("exponent entries must be integers")
        if not set(map(type, coefs)) <= {int, float}:
            row, coef = next((r, c) for r, c in zip(rows, coefs) if type(c) not in (int, float))
            raise ValueError(f"coefficient of {row} is {coef!r}, not a number")
        exps = np.array(rows) if rows else np.zeros((0, num_vars), dtype=np.int64)
        p = cls.__new__(cls)
        p._assign(num_vars, exps, coefs, distinct=True)
        return p


def _merge(exps: np.ndarray, coefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an exponent matrix in graded-lex order, each with
    the sum of its coefficients taken in row order."""
    if not exps.shape[0]:
        return exps, coefs
    rows, inverse = unique_rows(np.column_stack([exps.sum(axis=1), exps]))
    return rows[:, 1:], np.bincount(inverse, weights=coefs, minlength=rows.shape[0])


def _canonical(num_vars: int, exps, coefs, distinct=False) -> tuple[np.ndarray, np.ndarray]:
    """The stored form of the terms coefs[i] x^exps[i]: checked, merged,
    stripped of coefficients below ``DROP_TOL`` and read-only.  With
    ``distinct`` a repeated exponent raises ValueError instead of merging."""
    if num_vars < 0:
        raise ValueError("num_vars must be nonnegative")
    exps = np.asarray(exps)
    coefs = np.asarray(coefs, dtype=float)
    if exps.ndim != 2 or exps.shape[1] != num_vars:
        raise DimensionMismatchError(
            f"exponents must have shape (N, {num_vars}), got {exps.shape}"
        )
    if coefs.shape != exps.shape[:1]:
        raise DimensionMismatchError(
            f"{exps.shape[0]} exponents but coefficients of shape {coefs.shape}"
        )
    bad = ~np.isfinite(coefs)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"coefficient of {exps[row].tolist()} is {coefs[row]}")
    if exps.dtype.kind != "i":  # the int64 cast could round, wrap or overflow
        real = exps.astype(float)
        bad = ~np.all(np.isfinite(real) & (real == np.round(real)), axis=1)
        if bad.any():
            raise ValueError(f"exponent {real[np.argmax(bad)].tolist()} is not all integers")
        bad = np.any(real >= 2.0**63, axis=1)
        if bad.any():
            row = exps[np.argmax(bad)].tolist()
            raise ValueError(f"exponent {row} has an entry of 2**63 or more")
    exps = exps.astype(np.int64, copy=False)
    bad = np.any(exps < 0, axis=1)
    if bad.any():
        raise ValueError(f"negative exponent in {exps[np.argmax(bad)].tolist()}")
    terms = exps.shape[0]
    exps, coefs = _merge(exps, coefs)
    if distinct and exps.shape[0] < terms:
        raise ValueError("an exponent appears twice")
    keep = np.abs(coefs) >= DROP_TOL
    exps, coefs = exps[keep], coefs[keep]
    exps.flags.writeable = False
    coefs.flags.writeable = False
    return exps, coefs


# ----------------------------------------------------------------------
# the monomial tree
# ----------------------------------------------------------------------

# Bytes of node values one evaluation block holds; evaluate_many's memory
# stays flat in the point count.
_BLOCK_BYTES = 1 << 20


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` for a 2-D array of
    nonnegative integers with at least one column.

    Each row is packed, most significant column first, into as few int64
    words as hold its digits at radix max + 1, and the rows are sorted on
    those words: by the last word, then by each word before it in a stable
    sort.  The packing relies on the entries being nonnegative.
    """
    count, width = rows.shape
    radix = int(rows.max(initial=0)) + 1
    per_word = max(1, 62 // radix.bit_length())  # radix**per_word < 2**62
    words = []
    for lo in range(0, width, per_word):
        hi = min(lo + per_word, width)
        powers = np.array([radix**k for k in range(hi - lo - 1, -1, -1)], dtype=np.int64)
        words.append(rows[:, lo:hi] @ powers)
    order = np.argsort(words[-1])
    for word in words[-2::-1]:
        order = order[np.argsort(word[order], kind="stable")]
    first = np.zeros(count, dtype=bool)
    first[:1] = True
    for word in words:
        ordered = word[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[order[first]], inverse


class _MonomialTree:
    """Closure of an exponent matrix under removing one unit of the first
    nonzero variable.

    Nodes are grouped by degree: level d is ``start[d]:start[d + 1]``, and
    level 0 is the single root, the constant monomial.  ``levels[d - 1]`` is
    (lo, hi, parent, var) for level d >= 1: node lo + i is node parent[i] of
    level d - 1 times variable var[i].  ``index[t]`` is the node of row t of
    the exponent matrix.
    """

    __slots__ = ("depth", "start", "levels", "index")

    def __init__(self, exps: np.ndarray):
        degrees = exps.sum(axis=1)
        self.depth = int(degrees.max(initial=0))
        local = np.zeros(exps.shape[0], dtype=np.intp)
        # from the top level down: each level's size, the variable of each
        # node, and the position in the level below of each parent of the
        # level above
        sizes, variables, parents = [], [], []
        carry = exps[:0]  # the level above with one unit removed, not yet unique
        for d in range(self.depth, 0, -1):
            mine = np.flatnonzero(degrees == d)
            level, inverse = unique_rows(np.vstack([exps[mine], carry]))
            local[mine] = inverse[: mine.size]
            parents.append(inverse[mine.size :])
            variables.append(np.argmax(level > 0, axis=1))
            sizes.append(level.shape[0])
            carry = level.copy()
            carry[np.arange(level.shape[0]), variables[-1]] -= 1
        parents.append(np.zeros(carry.shape[0], dtype=np.intp))  # level 1's: the root
        self.start = np.cumsum([0, 1] + sizes[::-1]).tolist()
        self.levels = [
            (lo, hi, prev + parent, var)
            for prev, lo, hi, parent, var in zip(
                self.start, self.start[1:], self.start[2:], parents[::-1], variables[::-1]
            )
        ]
        self.index = np.asarray(self.start)[degrees] + local

    @property
    def size(self) -> int:
        return self.start[-1]

    def weights(self, coefs: np.ndarray) -> np.ndarray:
        """(k, size) node coefficients of a (k, rows) coefficient matrix."""
        out = np.zeros((coefs.shape[0], self.size))
        np.add.at(out.T, self.index, coefs.T)
        return out

    def block_size(self) -> int:
        """Points per evaluation block."""
        return max(1, _BLOCK_BYTES // (8 * self.size))

    def fill(self, columns: np.ndarray) -> np.ndarray:
        """Every node's value at the points whose coordinates are the rows
        of ``columns``: shape (size,) for one point of shape (num_vars,),
        (size, B) for a (num_vars, B) array of B points."""
        values = np.empty((self.size,) + columns.shape[1:])
        values[0] = 1.0
        # take gathers the rows of a 2-D fill faster than fancy indexing, and
        # the entries of one point more slowly; both give the same bits
        if columns.ndim == 1:
            for lo, hi, parent, var in self.levels:
                np.multiply(values[parent], columns[var], out=values[lo:hi])
        else:
            for lo, hi, parent, var in self.levels:
                np.multiply(
                    values.take(parent, axis=0), columns.take(var, axis=0), out=values[lo:hi]
                )
        return values


@lru_cache(maxsize=64)
def _graded_basis(k: int, top: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Every monomial of degree <= top in k variables, grouped by degree.

    Returns the (M, k) exponent matrix, ``ends`` with ``ends[d]`` the number
    of monomials of degree <= d, and the (ends[top - 1], k) table whose
    entry (b, j) is the row of monomial b times variable j.
    """
    eye = np.eye(k, dtype=np.int64)
    levels = [np.zeros((1, k), dtype=np.int64)]
    shifts = []
    offset = 1
    for _ in range(top if k else 0):
        products = (levels[-1][:, None, :] + eye[None, :, :]).reshape(-1, k)
        level, inverse = unique_rows(products)
        shifts.append(offset + inverse.reshape(-1, k))
        levels.append(level)
        offset += level.shape[0]
    ends = np.cumsum([lv.shape[0] for lv in levels]).tolist()
    ends += [ends[-1]] * (top + 1 - len(ends))  # k = 0: only the constant
    shift = np.vstack(shifts) if shifts else np.zeros((0, k), dtype=np.intp)
    return np.vstack(levels), ends, shift


def graded_monomials(k: int, d: int) -> np.ndarray:
    """Every exponent row of degree <= d in k variables, graded-lex order:
    by degree, then lexicographically.  A fresh (M, k) int64 array."""
    return _graded_basis(k, d)[0].copy()


class GradientEvaluator:
    """Value and gradient of a fixed polynomial from one monomial tree.

    The tree spans the terms of p and of its partials, so one fill at a
    point followed by one product with the (1 + n, nodes) coefficient matrix
    gives p and its whole gradient.  :meth:`rows` contracts each of a few
    points by its own matrix-vector product, so every row equals :meth:`at`
    bit for bit (the lockstep descents rely on it), and adds the rounding
    scale of p's value at each point, which tells the descents when p can
    fall no further at float resolution; :meth:`values` contracts a block by
    one matrix product, whose last bits depend on the block.
    """

    def __init__(self, p: Polynomial):
        exps, coefs = p.exps, p.coefs
        var, shifted, partial_coefs = partial_terms(exps, coefs)
        rows = np.zeros((1 + p.num_vars, exps.shape[0] + var.size))
        rows[0, : exps.shape[0]] = coefs
        rows[1 + var, exps.shape[0] + np.arange(var.size)] = partial_coefs
        self._tree = _MonomialTree(np.vstack([exps, shifted]))
        self._coefs = self._tree.weights(rows)
        self._abs_value_coefs = np.abs(self._coefs[:1])

    def values(self, points: np.ndarray) -> np.ndarray:
        """(1 + n, N) array: p, then its partials, at each row of an (N, n)
        array of a few points (in one block)."""
        return self._coefs @ self._tree.fill(np.asarray(points, dtype=float).T)

    def rows(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(k, 1 + n) array whose row i is :meth:`at` of row i of a (k, n)
        array, bit for bit, and the (k,) rounding scales of p's value there,
        S(x) = sum |c_alpha| |x^alpha|.

        Both come from one tree fill, and each row by its own products, so
        no row depends on the others.
        """
        nodes = np.ascontiguousarray(self._tree.fill(points.T).T)
        at = np.matmul(self._coefs, nodes[:, :, None])[:, :, 0]
        scale = np.matmul(self._abs_value_coefs, np.abs(nodes)[:, :, None])[:, 0, 0]
        return at, scale

    def at(self, x: np.ndarray) -> np.ndarray:
        """(1 + n,) array: p, then its partials, at one point."""
        return self._coefs @ self._tree.fill(np.asarray(x, dtype=float))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.at(x)[1:]


# ----------------------------------------------------------------------
# exact moments on the unit ball
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _even_moment(beta: Exponent, n: int) -> float:
    # E[x^(2*beta)] over the uniform unit ball in R^n, as a ratio of integers:
    #   n * prod_i (2 b_i)! / b_i!  /  (2^k (n + 2k) prod_{j<k} (n + 2j))
    # with k = |beta|; int true division rounds the exact quotient correctly.
    k = sum(beta)
    num = n
    for b in beta:
        num *= math.factorial(2 * b) // math.factorial(b)
    den = 2**k * (n + 2 * k)
    for j in range(k):
        den *= n + 2 * j
    return num / den


def ball_monomial_moment(alpha: Sequence[int], n: int) -> float:
    """:func:`ball_moments` of the one exponent row ``alpha``.  No library
    code calls it; ``benchmark/tracer.py`` wraps it by this name."""
    return float(ball_moments(np.asarray(alpha, dtype=np.int64).reshape(1, -1), n)[0])


def ball_moments(exponents: np.ndarray, n: int) -> np.ndarray:
    """E[x^alpha] for every row alpha of an (N, n) integer exponent matrix.

    Rows with an odd entry are 0, by sign symmetry.  Every other row 2 beta
    is keyed by its partition, the sorted entries of beta, on which the
    exact integer formula depends alone (with n), and each distinct
    partition is evaluated once.
    """
    exps = np.asarray(exponents)
    if exps.ndim != 2 or exps.shape[1] != n:
        raise DimensionMismatchError(f"exponents must have shape (N, {n}), got {exps.shape}")
    if exps.size and exps.min() < 0:
        raise ValueError("exponents must be nonnegative")
    if n == 0:
        return np.ones(exps.shape[0])
    out = np.zeros(exps.shape[0])
    even = (np.bitwise_or.reduce(exps, axis=1) & 1) == 0  # no (N, n) temporary
    if even.any():
        halves = exps[even]  # a copy, sorted in place: no second matrix
        halves >>= 1
        halves.sort(axis=1)
        # a partition of k has at most k nonzero parts, all at the end
        parts = max(1, min(n, int(halves.sum(axis=1).max())))
        keys, inverse = unique_rows(halves[:, n - parts :])
        values = np.array([_even_moment(tuple(filter(None, key)), n) for key in keys.tolist()])
        out[even] = values[inverse]
    return out


def ball_moment_gram(monos: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """C K C^T for a (k, u) coefficient matrix C over the u rows of ``monos``,
    with K[a, b] the ball moment of monomial a times monomial b.

    Entry (i, j) is E[p_i p_j] on the unit ball for p_i = sum_a C[i, a]
    x^monos[a].  K[a, b] is zero unless the two monomials share a parity
    pattern, so only those pairs (a, b) are formed, and with their exact
    moments w the result is (C[:, a] * w) @ C[:, b]^T, symmetrized exactly.
    """
    # pair every monomial a with each member b of its parity group; group g
    # is order[start[g] : start[g] + sizes[g]], and `within` counts 0..size-1
    # along each run of a's copies
    _, group = unique_rows(monos & 1)
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group)
    start = np.cumsum(sizes) - sizes
    reps = sizes[group]
    a = np.repeat(np.arange(monos.shape[0]), reps)
    within = np.arange(a.size) - np.repeat(np.cumsum(reps) - reps, reps)
    b = order[np.repeat(start[group], reps) + within]
    w = ball_moments(monos[a] + monos[b], monos.shape[1])
    matrix = (coefs[:, a] * w) @ coefs[:, b].T
    return (matrix + matrix.T) / 2.0


def partial_terms(
    exps: np.ndarray, coefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of every partial derivative, read off an exponent matrix by
    index shift.

    Returns (var, exponents, coefficients), one row per nonzero entry of
    ``exps``: coefficients[r] x^exponents[r] is a term of d/dx_var[r], and
    the terms of one partial are distinct.
    """
    terms, var = np.nonzero(exps)
    shifted = exps[terms]
    shifted[np.arange(terms.size), var] -= 1
    return var, shifted, coefs[terms] * exps[terms, var]
