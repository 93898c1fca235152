"""Shared corpora and independent oracles for the test suite.

Oracles here deliberately avoid library code paths they are checking:
ball moments are estimated by rejection sampling from the cube (not the
library's Gaussian sampler) and computed by the rational formula in
``Fraction`` arithmetic (not the library's integer ratio), gradients by
central finite differences, LPs by exhaustive vertex enumeration, the
gradient moment matrix and the moment Gram by term-pair double loops over
scalar moments rather than the library's G K G^T form, the surrogate's L2
error by Monte Carlo over the lift rather than the exact ball-moment sum,
evaluation by a term-by-term loop over the term map, arithmetic and partial
derivatives by loops over term maps (dicts from exponent tuples to
coefficients) rather than the library's exponent arrays and
``partial_terms``, and composition by
multiplying out powers of the forms with that arithmetic, rather than the
library's monomial tree.  The brute-force minimum oracle samples densely
and polishes with that term loop, never with the solvers' evaluator, and
takes an H-rep region's vertices from scipy's linprog, never from the
library's vertex table.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from lowform.generate import Instance, generate_instance
from lowform.poly import (
    DROP_TOL,
    GradientEvaluator,
    Polynomial,
    ball_moments,
)
from lowform.polytope import Polytope
from lowform.sampling import sample_ball, sample_sphere
from lowform.solvers import Hrep

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


def fraction_ball_moment(alpha, n: int) -> float:
    """E[x^alpha] on the unit n-ball: 1 on the 0-ball, a point; 0 when an
    entry of alpha is odd, by sign symmetry; else the rational formula in
    Fraction arithmetic, for alpha = 2 beta with k = |beta|:
    n prod_i (2 b_i)! / (4^b_i b_i!)  /  ((n + 2k) prod_{j<k} (n/2 + j))."""
    if n == 0:
        return 1.0
    if any(a % 2 for a in alpha):
        return 0.0
    beta = [a // 2 for a in alpha]
    num = Fraction(n)
    for b in beta:
        num *= Fraction(math.factorial(2 * b), 4**b * math.factorial(b))
    den = Fraction(n + 2 * sum(beta))
    for j in range(sum(beta)):
        den *= Fraction(n, 2) + j
    return float(num / den)


def reference_evaluate(p: Polynomial, point) -> float | np.ndarray:
    """p at one point of shape (n,), or at every row of an (N, n) array.

    The term-by-term loop over the term map: each term is its coefficient
    times the powers of the coordinates, each power taken once.  For an
    array the loop runs over its columns, so each power is taken for all
    rows at once.
    """
    pts = np.asarray(point, dtype=float)
    x = pts.T
    if x.shape[0] != p.num_vars:
        raise ValueError(f"points have {x.shape[0]} coordinates, expected {p.num_vars}")
    powers = {}
    total = 0.0
    for exp, coef in p.terms.items():
        term = coef
        for i, (xi, e) in enumerate(zip(x, exp)):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = xi**e
                term = term * powers[i, e]
        total = total + term
    return total if pts.ndim == 1 else np.broadcast_to(total, pts.shape[:1]).copy()


def reference_terms(num_vars: int, pairs) -> dict:
    """The term map of (exponent, coefficient) pairs: repeated exponents
    merged in order, coefficients below ``DROP_TOL`` dropped."""
    merged: dict[tuple, float] = {}
    for exp, coef in pairs:
        key = tuple(int(e) for e in exp)
        if len(key) != num_vars:
            raise ValueError(f"exponent {key} has length {len(key)}, expected {num_vars}")
        if any(e < 0 for e in key):
            raise ValueError(f"negative exponent in {key}")
        merged[key] = merged.get(key, 0.0) + float(coef)
    return _reference_drop(merged)


def _reference_drop(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if abs(c) >= DROP_TOL}


def reference_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, coef in b.items():
        out[exp] = out.get(exp, 0.0) + coef
    return _reference_drop(out)


def reference_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, coef in b.items():
        out[exp] = out.get(exp, 0.0) - coef
    return _reference_drop(out)


def reference_mul(a: dict, b) -> dict:
    """Term-map product with another term map or a scalar."""
    if isinstance(b, (int, float)):
        return _reference_drop({e: c * b for e, c in a.items()})
    out: dict[tuple, float] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return _reference_drop(out)


def reference_pow(a: dict, power: int, num_vars: int) -> dict:
    """Term-map power by repeated squaring."""
    result = {(0,) * num_vars: 1.0}
    base = a
    p = int(power)
    while p:
        if p & 1:
            result = reference_mul(result, base)
        p >>= 1
        if p:
            base = reference_mul(base, base)
    return result


def reference_partial(a: dict, index: int) -> dict:
    out: dict[tuple, float] = {}
    for exp, coef in a.items():
        e = exp[index]
        if e:
            key = exp[:index] + (e - 1,) + exp[index + 1 :]
            out[key] = out.get(key, 0.0) + coef * e
    return _reference_drop(out)


def reference_gradient(p: Polynomial) -> list[Polynomial]:
    """The partials of p, each by ``reference_partial`` on p's term map."""
    terms = p.terms
    return [Polynomial(p.num_vars, reference_partial(terms, i)) for i in range(p.num_vars)]


def reference_compose(p: Polynomial, A) -> Polynomial:
    """p(A t) by multiplying out the term map.

    Variable i becomes the form sum_j A[i, j] t_j, and each term's product of
    form powers is expanded by ``reference_mul``, with the powers of each
    form shared across terms.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[0] != p.num_vars:
        raise ValueError(f"need {p.num_vars} substitution rows, got {A.shape[0]}")
    k = A.shape[1]
    unit = np.eye(k, dtype=int)
    forms = [
        reference_terms(k, zip(map(tuple, unit.tolist()), row.tolist())) for row in A
    ]

    pow_cache: dict[tuple[int, int], dict] = {}

    def form_power(i: int, e: int) -> dict:
        key = (i, e)
        if key not in pow_cache:
            if e == 1:
                pow_cache[key] = forms[i]
            else:
                pow_cache[key] = reference_mul(form_power(i, e - 1), forms[i])
        return pow_cache[key]

    acc: dict[tuple, float] = {}
    one = {(0,) * k: 1.0}
    for exp, coef in p.terms.items():
        prod = one
        for i, e in enumerate(exp):
            if e:
                prod = reference_mul(prod, form_power(i, e))
        for pe, pc in prod.items():
            acc[pe] = acc.get(pe, 0.0) + coef * pc
    return Polynomial(k, acc)


def mc_expectation(p: Polynomial, pts: np.ndarray):
    """(estimate, standard error) of E[p] over precomputed ball samples."""
    vals = reference_evaluate(p, pts)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


def mc_l2_error(h: Polynomial, fhat, split, num_samples: int, seed: int):
    """(estimate, standard error) of E[(h - hhat)^2] on the unit ball.

    hhat(x) = fhat(ell^T x, sqrt(1 - |ell^T x|^2)) is evaluated from the
    lift itself, never through its ball polynomial, on rejection samples.
    """
    pts = mc_ball_points(h.num_vars, num_samples, seed)
    proj = pts @ split.ell
    y = np.sqrt(np.clip(1.0 - (proj**2).sum(axis=1), 0.0, None))
    hhat = reference_evaluate(fhat.poly, np.hstack([proj, y[:, None]]))
    diff_sq = (reference_evaluate(h, pts) - hhat) ** 2
    return float(diff_sq.mean()), float(diff_sq.std(ddof=1) / np.sqrt(num_samples))


# ----------------------------------------------------------------------
# measures the tests read off library results
# ----------------------------------------------------------------------


def coefficient_distance(p: Polynomial, q: Polynomial) -> float:
    """Max absolute coefficient difference between two polynomials in the
    same variables, over the union of their term maps."""
    if p.num_vars != q.num_vars:
        raise ValueError(f"{p.num_vars} against {q.num_vars} variables")
    a, b = p.terms, q.terms
    return max((abs(a.get(e, 0.0) - b.get(e, 0.0)) for e in a.keys() | b.keys()), default=0.0)


def expectation_uniform_ball(p: Polynomial) -> float:
    """E[p(x)] for x uniform on the unit ball in p.num_vars dimensions."""
    return float(p.coefs @ ball_moments(p.exps, p.num_vars))


def tail_sum(split) -> float:
    """Sum of a spectrum split's tail eigenvalues."""
    return float(split.lambda_tail.sum())


def y_mass(fhat) -> float:
    """Total |coefficient| mass of a lift's Y-dependent terms."""
    return float(np.abs(fhat.poly.coefs[fhat.poly.exps[:, -1] > 0]).sum())


def hhat_eval_many(fhat, split, points: np.ndarray) -> np.ndarray:
    """Surrogate values fhat(ell^T x, sqrt(1 - |ell^T x|^2)) at the rows x
    of ``points``; ValueError if one projects outside the unit ball."""
    pts = np.asarray(points, dtype=float)
    proj = pts @ split.ell
    sq = (proj**2).sum(axis=1)
    if np.any(sq > (1.0 + 1e-6) ** 2):
        raise ValueError("a point projects outside the unit ball")
    y = np.sqrt(np.clip(1.0 - sq, 0.0, None))
    return fhat.poly.evaluate_many(np.hstack([proj, y[:, None]]))


def hhat_eval(fhat, split, x: np.ndarray) -> float:
    """Surrogate value at one ambient point."""
    return float(hhat_eval_many(fhat, split, np.asarray(x, dtype=float).reshape(1, -1))[0])


def finite_difference_gradient(p: Polynomial, x: np.ndarray, step: float = 1e-5):
    """Central finite differences, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(p.num_vars)
    for i in range(p.num_vars):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (reference_evaluate(p, hi) - reference_evaluate(p, lo)) / (2 * step)
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


def reference_ball_moment_gram(monos, coefs) -> np.ndarray:
    """(k, k) matrix of sum_(a, b) C[i, a] C[j, b] E[x^(monos[a] + monos[b])]
    on the unit ball for a (k, u) coefficient matrix C over u exponent rows:
    a double loop over every pair of monomials, each moment from
    ``fraction_ball_moment``, each entry summed by ``math.fsum``."""
    monos = [tuple(int(e) for e in row) for row in monos]
    coefs = np.asarray(coefs, dtype=float)
    n = len(monos[0]) if monos else 0
    moments = [
        [fraction_ball_moment([x + y for x, y in zip(a, b)], n) for b in monos] for a in monos
    ]
    k = coefs.shape[0]
    out = np.zeros((k, k))
    for i, j in itertools.product(range(k), repeat=2):
        out[i, j] = math.fsum(
            coefs[i, a] * coefs[j, b] * moments[a][b]
            for a in range(len(monos))
            for b in range(len(monos))
        )
    return out


def reference_moment_matrix(h: Polynomial) -> np.ndarray:
    """n x n matrix with entries E[dh/dx_i * dh/dx_j] on the unit ball.

    Entries are exact: the product of two gradient components is integrated
    term by term with closed-form monomial moments.  Terms are bucketed by
    exponent parity first, since a product monomial has nonzero moment only
    when both factors share the same parity pattern.
    """
    n = h.num_vars
    moment = functools.cache(lambda exp: fraction_ball_moment(exp, n))
    terms = h.terms
    buckets = []
    for i in range(n):
        by_parity: dict[tuple, list] = defaultdict(list)
        for exp, coef in reference_partial(terms, i).items():
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
                        acc += coef_a * coef_b * moment(combined)
            matrix[i, j] = matrix[j, i] = acc
    return matrix


# ----------------------------------------------------------------------
# serial projected descent, one start at a time: the polish of the
# brute-force oracle, and the reference that the lockstep solvers must
# equal bit for bit from the same starts
# ----------------------------------------------------------------------

ARMIJO_INIT = 1.0
ARMIJO_SHRINK = 0.5
ARMIJO_DECREASE = 1e-4
_NOISE_ULPS = 64
# the least trial step of a run given no rounding scale: the brute-force
# polish, and serial_multi_start's min_step_floor reference
_MIN_STEP = 1e-16


def _trial_allowed(t: float, scale) -> bool:
    return t >= _MIN_STEP if scale is None else t > 0.0


def _stalled(predicted: float, scale, x: np.ndarray) -> bool:
    """Whether a rejected trial ends the run: with a rounding ``scale``,
    once its predicted decrease is within _NOISE_ULPS rounding units of
    scale(x); without one, never (the step floor ends it)."""
    if scale is None:
        return False
    return not abs(predicted) > _NOISE_ULPS * float(np.finfo(float).eps) * scale(x)


def _project_ball(x: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(x))
    return x / norm if norm > 1.0 else x


def _bb_step(s: np.ndarray, y: np.ndarray, fallback: float) -> float:
    # Spectral (Barzilai-Borwein) trial step, clamped to a sane range; the
    # Armijo test below keeps descent monotone regardless.
    sy = float(s @ y)
    if sy <= 0.0:
        return fallback
    t = float(s @ s) / sy
    return min(max(t, 1e-12), 1e6)


def _pgd(value, grad, project, x0, max_iter, tol, trace=None, scale=None):
    """Projected descent with BB trial steps under a monotone Armijo test.

    Exits "converged" either at projected-gradient norm < tol or when no step
    achieves sufficient decrease at float resolution (numerically
    stationary): a rejected trial whose predicted decrease is below the
    rounding ``scale`` of the value at x, or a trial step that underflows to
    0; with no ``scale``, a trial step below _MIN_STEP.
    """
    x = project(np.array(x0, dtype=float))
    fx = value(x)
    if trace is not None:
        trace.append(fx)
    g = grad(x)
    trial = ARMIJO_INIT
    for it in range(1, max_iter + 1):
        pg = x - project(x - g)
        if np.linalg.norm(pg) < tol:
            return x, fx, it, True
        t = trial
        accepted = False
        while _trial_allowed(t, scale):
            cand = project(x - t * g)
            fc = value(cand)
            predicted = float(g @ (cand - x))
            if fc < fx + ARMIJO_DECREASE * predicted:
                accepted = True
                break
            if _stalled(predicted, scale, x):
                break
            t *= ARMIJO_SHRINK
        if not accepted:
            return x, fx, it, True
        g_new = grad(cand)
        trial = _bb_step(cand - x, g_new - g, 2.0 * t)
        x, fx, g = cand, fc, g_new
        if trace is not None:
            trace.append(fx)
    return x, fx, max_iter, False


def _pgd_ball(value, grad, x0, max_iter, tol, trace=None, scale=None):
    return _pgd(value, grad, _project_ball, x0, max_iter, tol, trace=trace, scale=scale)


def _tangent(x, g):
    return g - float(g @ x) * x


def _pgd_sphere(value, grad, x0, max_iter, tol, trace=None, scale=None):
    x = np.array(x0, dtype=float)
    x = x / np.linalg.norm(x)
    fx = value(x)
    if trace is not None:
        trace.append(fx)
    gt = _tangent(x, grad(x))
    trial = ARMIJO_INIT
    for it in range(1, max_iter + 1):
        gnorm = float(np.linalg.norm(gt))
        if gnorm < tol:
            return x, fx, it, True
        t = trial
        accepted = False
        while _trial_allowed(t, scale):
            cand = x - t * gt
            cand = cand / np.linalg.norm(cand)
            fc = value(cand)
            if fc < fx - ARMIJO_DECREASE * t * gnorm**2:
                accepted = True
                break
            if _stalled(float(gt @ (cand - x)), scale, x):
                break
            t *= ARMIJO_SHRINK
        if not accepted:
            return x, fx, it, True
        gt_new = _tangent(cand, grad(cand))
        trial = _bb_step(cand - x, gt_new - gt, 2.0 * t)
        x, fx, gt = cand, fc, gt_new
        if trace is not None:
            trace.append(fx)
    return x, fx, max_iter, False


def _project_box(y: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(y, -1.0), 1.0)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """The nearest point of the probability simplex, by the sorting rule of
    Duchi et al. (ICML 2008), one entry at a time: theta is (u_1 + ... +
    u_rho - 1) / rho over the sorted entries, for the last rho whose entry
    u_rho exceeds that ratio."""
    total, theta = 0.0, 0.0
    for j, u in enumerate(sorted(v.tolist(), reverse=True), 1):
        total += u
        if u - (total - 1.0) / j > 0.0:
            theta = (total - 1.0) / j
    return np.maximum(v - theta, 0.0)


def _draw_lifted_starts(rng, count: int, domain: str, lift: np.ndarray) -> list[np.ndarray]:
    """Starts as the solvers draw them, one at a time: a Dirichlet(1)
    mixture of the m + 1 vertices least along m + 1 Gaussian directions,
    as weights on the lift's rows ("simplex") or as a point of the box."""
    m = lift.shape[1]
    directions = rng.standard_normal((count, m + 1, m))
    mixtures = rng.dirichlet(np.ones(m + 1), size=count)
    starts = []
    for cs, ws in zip(directions, mixtures):
        if domain == "simplex":
            y = np.zeros(lift.shape[0])
            for c, w in zip(cs, ws):
                y[int(np.argmin(lift @ c))] += w
        else:
            y = ws @ np.array([-np.sign(lift @ c) for c in cs])
        starts.append(y)
    return starts


_RESTART_GAP = 1e-4


def serial_multi_start(p: Polynomial, domain: str, starts: int, max_iter: int, tol: float,
                       seed: int, min_step_floor: bool = False, lift: np.ndarray | None = None
                       ) -> tuple[float, np.ndarray, int, str, int]:
    """(value, point, iterations, status, starts used) of the best serial
    run, with the solvers' start draws: on the unit "ball" or "sphere", or
    in y over the "box" [-1, 1]^k or the probability "simplex" in R^k, with
    p read at X = lift^T y for a (k, m) ``lift``.

    Every start runs :func:`_pgd_ball`, :func:`_pgd_sphere` or
    :func:`_pgd` alone, valued through ``GradientEvaluator.at``, and stops
    at the rounding scale that ``GradientEvaluator.rows`` gives, or with
    ``min_step_floor`` at a trial step below _MIN_STEP, the solvers' earlier
    rule.  If the two best values differ by more than ``_RESTART_GAP``, as
    many starts again are drawn and run.  The best run is the least (value,
    lexicographic point); its point, y over a lift, is valued by
    ``p.evaluate`` at its X.
    """
    evaluator = GradientEvaluator(p)
    image = (lambda y: y) if lift is None else (lambda y: y @ lift)

    def value(y):
        return float(evaluator.at(image(y))[0])

    def grad(y):
        g = evaluator.at(image(y))[1:]
        return g.copy() if lift is None else lift @ g

    def scale(y):
        return float(evaluator.rows(image(y)[None])[1][0])

    rng = np.random.default_rng(seed)
    if lift is None:
        descend = _pgd_ball if domain == "ball" else _pgd_sphere
        sample = sample_ball if domain == "ball" else sample_sphere

        def draw(count):
            return sample(rng, count, p.num_vars)
    else:
        project = _project_simplex if domain == "simplex" else _project_box

        def descend(value, grad, x0, max_iter, tol, scale=None):
            return _pgd(value, grad, project, x0, max_iter, tol, scale=scale)

        def draw(count):
            return _draw_lifted_starts(rng, count, domain, lift)

    def run(count):
        return [descend(value, grad, x0, max_iter, tol, scale=None if min_step_floor else scale)
                for x0 in draw(count)]

    runs = run(starts)
    ordered = sorted(runs, key=lambda r: (r[1], tuple(r[0])))
    used = starts
    if len(ordered) >= 2 and abs(ordered[0][1] - ordered[1][1]) > _RESTART_GAP:
        runs += run(starts)
        used += starts
    x, _, iterations, converged = min(runs, key=lambda r: (r[1], tuple(r[0])))
    return p.evaluate(image(x)), x, iterations, "converged" if converged else "max_iter", used


# ----------------------------------------------------------------------
# brute-force minimum oracle: dense sampling plus a short local polish,
# evaluated by reference_evaluate
# ----------------------------------------------------------------------

_POLISH_STEPS = 50
_POLISH_FROM = 10
_ORACLE_MAX_DIM_ROUND = 6
_ORACLE_MAX_DIM_POLY = 8


def _reference_value_and_grad(p: Polynomial):
    """Value and gradient callables for the polish, by ``reference_evaluate``
    on the partials of ``reference_gradient``."""
    grads = reference_gradient(p)

    def value(x):
        return float(reference_evaluate(p, x))

    def grad(x):
        return np.array([reference_evaluate(g, x) for g in grads], dtype=float)

    return value, grad


def _segment_argmin(p: Polynomial, x: np.ndarray, d: np.ndarray) -> float:
    """Exact minimizer of t -> p(x + t d) over [0, 1].

    The restriction is a univariate polynomial of p's degree; it is recovered
    by interpolation and minimized over the roots of its derivative plus the
    endpoints.  Candidates are compared by direct evaluation, so root
    inaccuracy cannot produce a wrong winner.
    """
    deg = p.degree()
    ts = np.linspace(0.0, 1.0, deg + 1)
    pts = x[None, :] + ts[:, None] * d[None, :]
    vals = reference_evaluate(p, pts)
    coeffs = np.polynomial.polynomial.polyfit(ts, vals, deg)
    deriv = np.polynomial.polynomial.polyder(coeffs)
    candidates = [0.0, 1.0]
    if deriv.size > 1:
        roots = np.polynomial.polynomial.polyroots(deriv)
        for r in roots:
            if abs(r.imag) < 1e-10 and -1e-12 <= r.real <= 1.0 + 1e-12:
                candidates.append(min(max(float(r.real), 0.0), 1.0))
    cand_pts = x[None, :] + np.array(candidates)[:, None] * d[None, :]
    cand_vals = reference_evaluate(p, cand_pts)
    return candidates[int(np.argmin(cand_vals))]


def _fw_polish(p: Polynomial, grad, lmo, x0: np.ndarray, steps: int) -> float:
    """Frank-Wolfe polish with exact segment line searches."""
    x = np.array(x0, dtype=float)
    fx = float(reference_evaluate(p, x))
    for _ in range(steps):
        g = grad(x)
        v = lmo(g)
        gap = float(g @ (x - v))
        if gap < 1e-14:
            break
        t = _segment_argmin(p, x, v - x)
        cand = x + t * (v - x)
        fc = float(reference_evaluate(p, cand))
        if fc >= fx:
            break
        x, fx = cand, fc
    return fx


def _project_simplex(z: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the canonical simplex {x >= 0, sum x = 1}."""
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, z.size + 1)
    cond = u - css / ks > 0
    k = int(ks[cond][-1])
    tau = css[k - 1] / k
    return np.maximum(z - tau, 0.0)


def _hrep_projector(region: Hrep):
    """Exact Euclidean projection onto a small H-rep region, or None.

    With no inequality rows the projection is a box clamp.  Otherwise all
    constraints (rows plus finite bounds) are enumerated as candidate active
    sets of size <= dim, which is exact but only tractable for a handful of
    constraints in low dimension.
    """
    lo, hi = region.lo, region.hi
    if region.a_ub.shape[0] == 0:
        return lambda z: np.clip(z, lo, hi)
    dim = region.dim
    rows, rhs = region.halfspaces()
    if dim > 3 or len(rows) > 40:
        return None

    def feasible(x):
        return bool(np.all(rows @ x <= rhs + 1e-9))

    subsets = []
    for size in range(1, dim + 1):
        subsets.extend(itertools.combinations(range(len(rows)), size))

    def project(z):
        if feasible(z):
            return np.asarray(z, dtype=float)
        best = None
        best_d = np.inf
        for subset in subsets:
            a = rows[list(subset)]
            gram = a @ a.T
            if abs(np.linalg.det(gram)) < 1e-12:
                continue
            x = z - a.T @ np.linalg.solve(gram, a @ z - rhs[list(subset)])
            if feasible(x):
                d = float(np.linalg.norm(x - z))
                if d < best_d:
                    best, best_d = x, d
        return best if best is not None else np.clip(z, lo, hi)

    return project


def polytope_vertices(poly: Polytope, rng: np.random.Generator, count: int) -> np.ndarray:
    """Vertices of a standard-form polytope found by LPs with random
    objectives, independent of the library's basis enumeration."""
    return np.array([poly.lmo(rng.standard_normal(poly.num_vars)) for _ in range(count)])


def polytope_sample(poly: Polytope, rng: np.random.Generator, count: int) -> np.ndarray:
    """Feasible points: convex mixtures of randomly discovered vertices."""
    verts = polytope_vertices(poly, rng, max(2 * poly.num_vars, 8))
    weights = rng.dirichlet(np.ones(len(verts)), size=count)
    return weights @ verts


def _is_canonical_simplex(domain) -> bool:
    return (
        domain.a.shape[0] == 1
        and np.allclose(domain.a, 1.0)
        and domain.b.size == 1
        and abs(float(domain.b[0]) - 1.0) < 1e-12
    )


def brute_force_min(
    p: Polynomial, domain, resolution: int = 100_000, seed: int = 0
) -> float:
    """Independent low-dimensional oracle: dense sampling plus local polish.

    ``domain`` is "ball", "sphere", an :class:`Hrep`, or a standard-form
    :class:`Polytope`, sampled by :func:`polytope_sample`.  The best
    ``_POLISH_FROM`` sampled points each get ``_POLISH_STEPS`` local steps;
    on the canonical simplex its n vertices e_i are evaluated and polished
    from as well.
    """
    rng = np.random.default_rng(seed)
    value, grad = _reference_value_and_grad(p)

    if domain in ("ball", "sphere"):
        dim = p.num_vars
        if dim > _ORACLE_MAX_DIM_ROUND:
            raise ValueError(f"oracle limited to dimension {_ORACLE_MAX_DIM_ROUND}")
        sampler = sample_ball if domain == "ball" else sample_sphere
        pts = sampler(rng, int(resolution), dim)
        vals = reference_evaluate(p, pts)
        best_idx = np.argsort(vals)[:_POLISH_FROM]
        best = float(vals[best_idx[0]])
        for i in best_idx:
            if domain == "ball":
                _, fx, _, _ = _pgd_ball(value, grad, pts[i], _POLISH_STEPS, 1e-12)
            else:
                _, fx, _, _ = _pgd_sphere(value, grad, pts[i], _POLISH_STEPS, 1e-12)
            best = min(best, fx)
        return best

    if isinstance(domain, Hrep):
        if domain.dim > _ORACLE_MAX_DIM_POLY:
            raise ValueError(f"oracle limited to dimension {_ORACLE_MAX_DIM_POLY}")
        pts = _sample_hrep(domain, rng, int(resolution))
        vals = reference_evaluate(p, pts)
        best_idx = np.argsort(vals)[:_POLISH_FROM]
        best = float(vals[best_idx[0]])
        project = _hrep_projector(domain)
        for i in best_idx:
            if project is not None:
                _, fx, _, _ = _pgd(value, grad, project, pts[i], _POLISH_STEPS, 1e-12)
            else:
                lmo = functools.partial(hrep_linprog_vertex, domain)
                fx = _fw_polish(p, grad, lmo, pts[i], _POLISH_STEPS)
            best = min(best, fx)
        return best

    # standard-form polytope: sampled mixtures plus local polish
    if isinstance(domain, Polytope):
        if p.num_vars > 3 * _ORACLE_MAX_DIM_POLY:
            raise ValueError("oracle limited to desk-scale polytopes")
        pts = polytope_sample(domain, rng, int(resolution))
        simplex = _is_canonical_simplex(domain)
        if simplex:
            # the vertices e_i in closed form: a narrow vertex basin can hold
            # no sample, so each vertex is evaluated and polished from too
            pts = np.vstack([np.eye(p.num_vars), pts])
        vals = reference_evaluate(p, pts)
        best_idx = np.argsort(vals)[:_POLISH_FROM]
        if simplex:
            best_idx = np.union1d(best_idx, np.arange(p.num_vars))
        best = float(vals.min())
        for i in best_idx:
            if simplex:
                _, fx, _, _ = _pgd(value, grad, _project_simplex, pts[i], _POLISH_STEPS, 1e-12)
            else:
                fx = _fw_polish(p, grad, domain.lmo, pts[i], _POLISH_STEPS)
            best = min(best, fx)
        return best

    raise ValueError(f"unsupported oracle domain {domain!r}")


def _sample_hrep(region: Hrep, rng: np.random.Generator, count: int) -> np.ndarray:
    """Rejection sampling from the bounding box, topped up with mixtures of
    vertices that linprog finds in random directions."""
    out = []
    total = 0
    attempts = 0
    while total < count and attempts < 50:
        cand = rng.uniform(region.lo, region.hi, size=(count, region.dim))
        if region.a_ub.shape[0]:
            keep = cand[np.all(cand @ region.a_ub.T <= region.b_ub + 1e-12, axis=1)]
        else:
            keep = cand
        if keep.size:
            out.append(keep)
            total += keep.shape[0]
        attempts += 1
    if total < count:
        directions = rng.standard_normal((max(2 * region.dim, 8), region.dim))
        verts = np.array([hrep_linprog_vertex(region, d) for d in directions])
        out.append(rng.dirichlet(np.ones(len(verts)), size=count - total) @ verts)
    return np.vstack(out)[:count]


def hrep_linprog_vertex(region: Hrep, direction: np.ndarray) -> np.ndarray:
    """A vertex of an H-rep region minimizing direction @ x, by scipy's
    linprog at tight tolerances, independent of the library's vertex table.

    HiGHS' presolve can call a region thinner than those tolerances
    infeasible (a sliver of width 1e-10 in dimension 4 was), so a region it
    calls infeasible is solved again without presolve.
    """
    for presolve in (True, False):
        res = linprog(
            direction,
            A_ub=region.a_ub if region.a_ub.shape[0] else None,
            b_ub=region.b_ub if region.b_ub.size else None,
            bounds=list(zip(region.lo, region.hi)),
            method="highs",
            # HiGHS' default tolerances (1e-7) would let it ignore cost
            # entries below 1e-7.
            options={"dual_feasibility_tolerance": 1e-10, "primal_feasibility_tolerance": 1e-10,
                     "presolve": presolve},
        )
        if res.status != 2:
            break
    assert res.status == 0, res.message
    return res.x


def graded_lex_exponents(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree <= degree, by degree and then
    lexicographically, by recursion on the first entry."""

    @functools.cache
    def summing_to(k: int, d: int) -> list[tuple[int, ...]]:
        if k == 0:
            return [()] if d == 0 else []
        return [(a,) + rest for a in range(d + 1) for rest in summing_to(k - 1, d - a)]

    return [exp for d in range(degree + 1) for exp in summing_to(num_vars, d)]


def hrep_contains(region: Hrep, x, tol: float = 1e-8) -> bool:
    """x satisfies every inequality of the region to within tol."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(region.a_ub @ x <= region.b_ub + tol)
                and np.all(x >= region.lo - tol) and np.all(x <= region.hi + tol))


def random_polynomial(rng: np.random.Generator, num_vars: int, degree: int,
                      density: float = 0.6) -> Polynomial:
    terms = {}
    for exp in graded_lex_exponents(num_vars, degree):
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
