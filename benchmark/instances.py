"""Benchmark inputs, generated with numpy alone.

An instance is h(x) = f0(ell^T x) + eps * g0(x): f0 is a dense Gaussian
polynomial in m variables, ell a random n x m matrix with orthonormal
columns, and g0 a dense Gaussian polynomial in n variables scaled to the
coefficient norm of f0.  Polytope instances add the feasible set
{x >= 0, 1^T x = 1, B x = B x0}, with B uniform on [0, 1] and x0 drawn from
a Dirichlet, so it is bounded and contains x0.  Concave instances replace
the quadratic part of a degree-2 f0 by -y^T Q y with Q positive definite, so
every minimum over a polytope sits at a vertex.

Nothing here imports the library under test, so the inputs stay
byte-identical however the library's own arithmetic changes.  Instance i of
a workload seed s is drawn from ``numpy.random.default_rng([s, i])``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

import numpy as np


@dataclass
class Instance:
    """Generated input files (as JSON text) plus the ground truth behind them."""

    index: int
    n: int
    m: int
    degree: int
    epsilon: float
    files: dict[str, str]  # file name -> JSON text handed to the CLI
    h_terms: list[tuple[tuple[int, ...], float]]
    a: np.ndarray | None = None  # equality constraints of the polytope
    b: np.ndarray | None = None
    x0: np.ndarray | None = None  # a point of the polytope

    def sha256(self) -> str:
        """Digest over every input file, in file-name order."""
        digest = hashlib.sha256()
        for name in sorted(self.files):
            digest.update(name.encode())
            digest.update(b"\0")
            digest.update(self.files[name].encode())
            digest.update(b"\0")
        return digest.hexdigest()


def monomials(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree <= degree, by degree then lex."""
    out = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(num_vars), d):
            exp = [0] * num_vars
            for i in combo:
                exp[i] += 1
            out.append(tuple(exp))
    return out


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _compose_linear(f: dict, ell: np.ndarray) -> dict:
    """Expand f(ell^T x) into monomials of x."""
    n, m = ell.shape
    one = {(0,) * n: 1.0}
    forms = []
    for j in range(m):
        form = {}
        for i in range(n):
            exp = [0] * n
            exp[i] = 1
            form[tuple(exp)] = float(ell[i, j])
        forms.append(form)
    powers: dict[tuple[int, int], dict] = {}

    def power(j: int, e: int) -> dict:
        if e == 0:
            return one
        if (j, e) not in powers:
            powers[(j, e)] = _mul(power(j, e - 1), forms[j])
        return powers[(j, e)]

    out: dict = {}
    for alpha, coef in f.items():
        prod = one
        for j, e in enumerate(alpha):
            if e:
                prod = _mul(prod, power(j, e))
        for exp, c in prod.items():
            out[exp] = out.get(exp, 0.0) + coef * c
    return out


def _poly_json(num_vars: int, terms: list[tuple[tuple[int, ...], float]]) -> str:
    return json.dumps(
        {"num_vars": num_vars, "terms": [{"exp": list(e), "coef": c} for e, c in terms]},
        sort_keys=True,
    )


def make_instance(
    seed: int,
    index: int,
    n: int,
    m: int,
    degree: int,
    epsilon: float = 0.0,
    polytope: bool = False,
    concave: bool = False,
) -> Instance:
    if concave and degree != 2:
        raise ValueError("concave instances are quadratic")
    rng = np.random.default_rng([seed, index])
    ell, _ = np.linalg.qr(rng.standard_normal((n, m)))
    f0 = {e: float(rng.standard_normal()) for e in monomials(m, degree)}
    if concave:
        # f0 = linear part - y^T Q y with Q positive definite
        g = rng.standard_normal((m, m))
        q = g @ g.T / m + 0.1 * np.eye(m)
        for e in monomials(m, 2)[1 + m:]:
            j, k = [i for i, a in enumerate(e) for _ in range(a)]
            f0[e] = -float(q[j, k]) * (1.0 if j == k else 2.0)
    h = _compose_linear(f0, ell)
    if epsilon:
        # g0 gets the coefficient norm of f0, so epsilon is the relative noise level.
        g0_exps = monomials(n, degree)
        g0 = rng.standard_normal(len(g0_exps))
        g0 *= np.linalg.norm(list(f0.values())) / np.linalg.norm(g0)
        for e, c in zip(g0_exps, g0):
            h[e] = h.get(e, 0.0) + epsilon * float(c)
    terms = [(e, h[e]) for e in monomials(n, degree) if h.get(e, 0.0) != 0.0]
    files = {"h.json": _poly_json(n, terms)}
    inst = Instance(index, n, m, degree, epsilon, files, terms)
    if polytope:
        big_b = rng.uniform(0.0, 1.0, size=(2, n))
        x0 = rng.dirichlet(np.ones(n))
        inst.a = np.vstack([np.ones((1, n)), big_b])
        inst.b = inst.a @ x0
        inst.x0 = x0
        files["A.json"] = json.dumps(inst.a.tolist())
        files["b.json"] = json.dumps(inst.b.tolist())
    return inst
