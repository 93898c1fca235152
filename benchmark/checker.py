"""Checks of CLI reports that share no code with the library under test.

Polynomials from the input files and from the reports are evaluated with the
evaluator below, and feasible points are sampled here, so a defect in the
library's arithmetic cannot also hide in its check.  ``check`` raises
:class:`CheckFailed` naming the first property that does not hold.
"""

from __future__ import annotations

import json

import numpy as np

SAMPLES = 2000


class CheckFailed(Exception):
    pass


def evaluate(poly: dict, points: np.ndarray) -> np.ndarray:
    """Values of a JSON polynomial {"num_vars", "terms"} at rows of points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    exps = np.array([t["exp"] for t in poly["terms"]], dtype=int).reshape(-1, points.shape[1])
    coefs = np.array([t["coef"] for t in poly["terms"]], dtype=float)
    exponents = np.arange(exps.max(initial=0) + 1)[None, :, None]
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], 256):  # chunks keep memory small
        chunk = points[start : start + 256]
        # powers[i, e] holds x_i ** e at every point; a term multiplies n rows
        powers = chunk.T[:, None, :] ** exponents
        terms = np.ones((exps.shape[0], chunk.shape[0]))
        for i in range(exps.shape[1]):
            terms *= powers[i, exps[:, i]]
        out[start : start + 256] = coefs @ terms
    return out


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _sphere_points(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    pts = rng.standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _polytope_points(rng: np.random.Generator, count: int, a, b, x0) -> np.ndarray:
    """Hit-and-run walk in {x >= 0, a x = b} started at the interior point x0."""
    _, sing, vt = np.linalg.svd(a)
    null = vt[int(np.sum(sing > 1e-12)) :].T
    x = np.asarray(x0, dtype=float).copy()
    out = np.empty((count, x.size))
    for k in range(count):
        d = null @ rng.standard_normal(null.shape[1])
        with np.errstate(divide="ignore"):
            steps = -x / d
        hi = np.min(steps[d < 0], initial=np.inf)
        lo = np.max(steps[d > 0], initial=-np.inf)
        x = np.maximum(x + rng.uniform(lo, hi) * d, 0.0)
        out[k] = x
    return out


def _check_lift(report: dict) -> None:
    fhat = report["fhat"]
    odd_y = [abs(t["coef"]) for t in fhat["terms"] if t["exp"][-1] % 2]
    _require(max(odd_y, default=0.0) <= 1e-12, "fhat has odd-Y coefficients above 1e-12")
    _require(abs(report["rho_plus"] - report["rho_minus"]) <= 1e-6, "|rho+ - rho-| > 1e-6")
    _require(report["rho"] == min(report["rho_plus"], report["rho_minus"]),
             "rho is not min(rho+, rho-)")


def check(expect: dict, inst, exit_code: int, report: dict, reference: dict | None) -> None:
    """Raise CheckFailed unless ``report`` is a correct answer for ``inst``.

    ``expect`` names the expected exit code and route (pipeline) or path
    (approx command).  ``reference`` maps input digests to stored minima; when
    it is given, it must hold one for this input and rho must reach it.
    """
    _require(exit_code == expect["exit"], f"exit code {exit_code}, expected {expect['exit']}")
    rho = float(report["rho"])
    _require(np.isfinite(rho), "rho is not finite")
    h = json.loads(inst.files["h.json"])
    rng = np.random.default_rng(0)
    tol = 1e-8 * max(1.0, abs(rho))
    kind = expect["kind"]
    if kind == "cubature":
        _require(report["path"] == "cubature", f"path {report['path']!r}, expected 'cubature'")
        _require(report["m"] == inst.m, f"m {report['m']}, expected {inst.m}")
    else:
        _require(report["route"] == expect["route"],
                 f"route {report['route']!r}, expected {expect['route']!r}")
    if kind == "sphere":
        _require(report["detect"]["m"] == inst.m, f"detected m {report['detect']['m']}")
        x = np.asarray(report["x_star"], dtype=float)
        _require(abs(np.linalg.norm(x) - 1.0) <= 1e-8, "|x*| != 1")
        _require(_close(float(evaluate(h, x)[0]), rho, 1e-8), "h(x*) != rho")
        sample_min = evaluate(h, _sphere_points(rng, SAMPLES, inst.n)).min()
    elif kind == "polytope":
        _require(report["detect"]["m"] == inst.m, f"detected m {report['detect']['m']}")
        w = report["witness"]
        _require(w is not None, "no witness")
        w = np.asarray(w, dtype=float)
        # 1e-7 is the primal feasibility tolerance of the HiGHS LP solver.
        _require(w.min() >= -1e-7, "witness has a negative coordinate")
        _require(np.abs(inst.a @ w - inst.b).max() <= 1e-7, "witness violates A x = b")
        _require(_close(float(evaluate(h, w)[0]), rho, 1e-6), "h(witness) != rho")
        sample_min = evaluate(h, _polytope_points(rng, SAMPLES, inst.a, inst.b, inst.x0)).min()
    else:  # approx surrogate, exact or cubature path
        m = report["m_approx"] if kind == "approx" else report["m"]
        _require(m == inst.m, f"surrogate m {m}, expected {inst.m}")
        _check_lift(report)
        if "point" in report:
            p = np.asarray(report["point"], dtype=float)
            _require(abs(np.linalg.norm(p) - 1.0) <= 1e-8, "|point| != 1")
            fhat_at_point = float(evaluate(report["fhat"], p)[0])
            _require(_close(fhat_at_point, rho, 1e-8), "fhat(point) != rho")
        pts = _sphere_points(rng, SAMPLES, inst.m + 1)
        pts[:, -1] = np.abs(pts[:, -1])
        sample_min = evaluate(report["fhat"], pts).min()
    _require(rho <= sample_min + tol, f"rho {rho!r} exceeds the sampled value {sample_min!r}")
    if reference is not None:
        digest = inst.sha256()
        _require(digest in reference, f"no stored reference for input {digest}")
        ref = reference[digest]
        _require(rho <= ref + 1e-6 * max(1.0, abs(ref)),
                 f"rho {rho!r} is worse than the stored reference {ref!r}")


def self_test(expect: dict, inst, report: dict, reference: dict | None) -> list[str]:
    """Show that ``check`` rejects corrupted copies of a correct report.

    Returns the rejection messages; raises CheckFailed if a corrupted report
    passes, since then the correctness gate would not be live.
    """
    check(expect, inst, 0, report, reference)
    perturbed = dict(report, rho=report["rho"] + 1e-3 * max(1.0, abs(report["rho"])))
    if expect["kind"] == "cubature":
        relabelled = dict(report, path="exact")
    else:
        relabelled = dict(report, route="exact/box")  # a route no workload expects
    messages = []
    for label, bad in (("rho perturbed", perturbed), ("relabelled", relabelled)):
        try:
            check(expect, inst, 0, bad, reference)
        except CheckFailed as exc:
            messages.append(f"{label}: {exc}")
        else:
            raise CheckFailed(f"checker accepted a report with {label}")
    return messages
