"""Command-line front end: detection, reduction, solving, approximation.

Every command reads JSON inputs, writes a ``report.json`` plus a
``manifest.json`` (input digests, seed, tolerances, version, wall time) into
the output directory, and prints the report to stdout.  Reports are
deterministic per seed; manifests additionally record wall time.

Exit codes: 0 success, 2 parse/validation error, 3 infeasible or unbounded
domain, 4 solver non-convergence (a partial report is still written).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .approx import (
    CubatureConstructionError,
    build_cubature,
    choose_m,
    conditional_expectation_cubature,
    conditional_expectation_exact,
    l2_error,
    solve_Q,
    split_spectrum,
)
from .detection import (
    RankNotStabilizedError,
    SparseForm,
    detect_exact,
    detect_randomized,
    extract_sparse_form,
    gradient_spectrum,
    verify_sparse_form,
)
from .generate import generate_instance
from .poly import Polynomial
from .polytope import (
    InfeasibleDomainError,
    Polytope,
    UnboundedDomainError,
    box_reduce,
    simplex_reduce,
    vertex_reduce,
)
from .solvers import (
    Hrep,
    InfeasibleRegionError,
    SolveOptions,
    minimize_ball,
    minimize_polytope,
    minimize_sphere,
)
from .sphere import lift_minimizer, reduce_sphere

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4


class CliInputError(ValueError):
    pass


# ----------------------------------------------------------------------
# JSON plumbing
# ----------------------------------------------------------------------


def _json_default(obj):
    """The ``json.dumps`` hook for numpy values: arrays become lists and
    scalars Python numbers."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliInputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_polynomial(path: str) -> Polynomial:
    data = _load_json(path)
    try:
        return Polynomial.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{path} is not a valid polynomial file: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    data = _load_json(path)
    try:
        mat = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"{path} is not a numeric matrix: {exc}") from exc
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    return mat


def _load_sparse_form(path: str) -> SparseForm:
    data = _load_json(path)
    try:
        f = Polynomial.from_json_dict(data["f"])
        ell = np.asarray(data["ell"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{path} is not a valid sparse-form file: {exc}") from exc
    if ell.ndim != 2 or ell.shape[1] != f.num_vars:
        raise CliInputError(f"{path}: ell shape {ell.shape} does not match f")
    return SparseForm(f=f, ell=ell)


def _dump(path: str, obj) -> str:
    """Write obj to path as indented JSON and return the text."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_outputs(args, report: dict, inputs: list[str], started: float) -> None:
    os.makedirs(args.out, exist_ok=True)
    text = _dump(os.path.join(args.out, "report.json"), report)
    manifest = {
        "command": args.command,
        "argv": sys.argv[1:],
        "inputs": {os.path.basename(p): _digest(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "tolerances": {
            "rank_tol": getattr(args, "rank_tol", None),
            "tol": getattr(args, "tol", None),
        },
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    _dump(os.path.join(args.out, "manifest.json"), manifest)
    print(text)


def _solve_options(args) -> SolveOptions:
    return SolveOptions(
        starts=args.starts, max_iter=args.max_iter, tol=args.tol, seed=args.seed
    )


def _check_options(args) -> None:
    """Reject out-of-range solver options before any work is done."""
    if not hasattr(args, "starts"):
        return
    try:
        _solve_options(args)
    except ValueError as exc:
        raise CliInputError(
            f"--starts, --max-iter and --tol must be positive, got "
            f"{args.starts}, {args.max_iter} and {args.tol}"
        ) from exc


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------


def _detect_report(h: Polynomial, args, eig=None) -> dict:
    if args.method == "randomized":
        try:
            rep = detect_randomized(h, seed=args.seed, rank_tol=args.rank_tol)
        except RankNotStabilizedError:
            rep = detect_exact(h, rank_tol=args.rank_tol, eig=eig)
    else:
        rep = detect_exact(h, rank_tol=args.rank_tol, eig=eig)
    return {
        "m": rep.m,
        "basis": rep.basis,
        "spectrum": rep.spectrum,
        "method": rep.method,
        "samples_used": rep.samples_used,
        "rank_tol": rep.rank_tol,
    }


def cmd_detect(args) -> int:
    started = time.monotonic()
    h = _load_polynomial(args.input)
    report = _detect_report(h, args)
    _write_outputs(args, report, [args.input], started)
    return EXIT_OK


def cmd_extract(args) -> int:
    started = time.monotonic()
    h = _load_polynomial(args.input)
    rep = _load_json(args.report)
    try:
        basis = np.asarray(rep["basis"], dtype=float).reshape(h.num_vars, -1)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{args.report} is not a detection report: {exc}") from exc
    sf = extract_sparse_form(h, basis)
    residual = verify_sparse_form(h, sf, num_points=200, seed=args.seed)
    report = {"f": sf.f.to_json_dict(), "ell": sf.ell, "residual": residual}
    _write_outputs(args, report, [args.input, args.report], started)
    return EXIT_OK


def cmd_reduce_sphere(args) -> int:
    started = time.monotonic()
    sf = _load_sparse_form(args.sparse)
    prob = reduce_sphere(sf)
    report = {"g": prob.g.to_json_dict(), "L": prob.L}
    _write_outputs(args, report, [args.sparse], started)
    return EXIT_OK


def _reduce_standard_form(kind, args, sf: SparseForm, inputs: list[str]):
    """Minimize f(ell^T x) over the simplex, the box, or (``kind`` None or
    "polytope") the polytope of ``--A`` and ``--b``, whose files join
    ``inputs``: the one route of ``reduce-polytope`` and ``pipeline``."""
    opts = _solve_options(args)
    if kind == "simplex":
        return simplex_reduce(sf, opts)
    if kind == "box":
        return box_reduce(sf, opts)
    if not (args.A and args.b):
        raise CliInputError("a general polytope needs --A and --b")
    poly = Polytope(a=_load_matrix(args.A), b=np.asarray(_load_json(args.b), dtype=float))
    inputs += [args.A, args.b]
    return vertex_reduce(sf, poly, opts)


def cmd_reduce_polytope(args) -> int:
    started = time.monotonic()
    inputs = [args.sparse]
    result = _reduce_standard_form(args.preset, args, _load_sparse_form(args.sparse), inputs)
    report = {
        "rho": result.rho,
        "X_star": result.x_star,
        "cuts": [
            {"u": c.u, "rhs": c.rhs, "lambda": c.lam} for c in result.cuts.cuts
        ],
        "iterations": result.iterations,
        "converged": result.converged,
        "inner_values": result.inner_values,
        "witness": result.witness,
        "witness_gap": result.witness_gap,
    }
    _write_outputs(args, report, inputs, started)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_solve(args) -> int:
    started = time.monotonic()
    p = _load_polynomial(args.objective)
    opts = _solve_options(args)
    inputs = [args.objective]
    if args.domain == "ball":
        res = minimize_ball(p, opts)
    elif args.domain == "sphere":
        res = minimize_sphere(p, opts)
    else:
        data = _load_json(args.domain)
        try:
            region = Hrep(data.get("a_ub", []), data.get("b_ub", []), data["lo"], data["hi"])
            if region.dim != p.num_vars:
                raise ValueError(f"the objective has {p.num_vars} variables, the region {region.dim}")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CliInputError(f"{args.domain} is not a valid region file: {exc}") from exc
        inputs.append(args.domain)
        res = minimize_polytope(p, region, opts)
    report = {
        "value": res.value,
        "point": res.point,
        "status": res.status,
        "iterations": res.iterations,
        "starts_used": res.starts_used,
    }
    _write_outputs(args, report, inputs, started)
    return EXIT_OK if res.status == "converged" else EXIT_NO_CONVERGENCE


def _approx_route(h: Polynomial, eig, m: int, args, path: str = "exact",
                  degree: int | None = None) -> tuple[dict, int]:
    """Split at m (clamped to [1, n - 1]), surrogate, problem Q, L2 error.

    The approx route of ``approx`` and ``pipeline``.  The "cubature" ``path``
    builds a rule of ``degree``.  Returns the ``approx`` report, which the
    pipeline's report draws on, and the Q solve's exit code.
    """
    n = h.num_vars
    if n < 2:
        raise CliInputError("the approx route needs a polynomial in at least 2 variables")
    m = max(1, min(m, n - 1))
    split = split_spectrum(h, m, eig=eig)
    if path == "cubature":
        try:
            rule = build_cubature(n - m, degree, seed=args.seed)
            fhat = conditional_expectation_cubature(h, split, rule)
        except CubatureConstructionError:
            path = "exact"  # fall back when no rule reaches tolerance
            fhat = conditional_expectation_exact(h, split)
        except ValueError as exc:
            raise CliInputError(f"cubature path rejected: {exc}") from exc
    else:
        fhat = conditional_expectation_exact(h, split)
    minimum = solve_Q(fhat, _solve_options(args))
    report = {
        "m": m,
        "path": path,
        "fhat": fhat.poly.to_json_dict(),
        "split": {
            "ell": split.ell,
            "s": split.s,
            "eigenvalues_head": split.lambda_head,
            "eigenvalues_tail": split.lambda_tail,
        },
        "rho": minimum.rho,
        "rho_plus": minimum.rho,
        "rho_minus": minimum.rho,
        "point": minimum.point,
        "l2_error": {"value": l2_error(h, fhat, split)},
    }
    return report, EXIT_OK if minimum.status == "converged" else EXIT_NO_CONVERGENCE


def cmd_approx(args) -> int:
    started = time.monotonic()
    h = _load_polynomial(args.input)
    n = h.num_vars
    degree = args.degree if args.degree is not None else h.degree()
    if degree < h.degree():
        raise CliInputError(f"--degree {degree} is below the degree {h.degree()} of h")
    if args.m is not None and not 1 <= args.m <= n - 1:
        raise CliInputError(f"--m must be in [1, {n - 1}], got {args.m}")
    eig = gradient_spectrum(h)
    m = args.m if args.m is not None else choose_m(h, threshold=args.m_threshold, eig=eig)
    report, status = _approx_route(h, eig, m, args, args.path, degree)
    _write_outputs(args, report, [args.input], started)
    return status


def cmd_pipeline(args) -> int:
    started = time.monotonic()
    h = _load_polynomial(args.input)
    n = h.num_vars
    if n == 0:
        raise CliInputError("the pipeline needs a polynomial in at least 1 variable")
    inputs = [args.input]
    opts = _solve_options(args)

    # one spectrum per run: detection, the route's tail ratio and the split
    eig = gradient_spectrum(h)
    detect = _detect_report(h, args, eig)
    m = detect["m"]
    sf = extract_sparse_form(h, np.asarray(detect["basis"], dtype=float).reshape(n, -1))
    residual = verify_sparse_form(h, sf, num_points=200, seed=args.seed)
    spectrum = eig.eigenvalues
    total = float(spectrum.sum())
    tail_ratio = float(spectrum[m:].sum()) / total if total > 0 else 0.0

    exact_route = (
        m < n and residual < args.route_residual_tol and tail_ratio < args.route_tail_tol
    )
    report = {
        "detect": detect,
        "residual": residual,
        "tail_ratio": tail_ratio,
        "route": None,
    }
    status = EXIT_OK
    if exact_route:
        if args.domain == "sphere":
            report["route"] = "exact/sphere"
            prob = reduce_sphere(sf)
            res = minimize_ball(prob.g, opts)
            x_star = lift_minimizer(prob, res.point)
            report["reduced"] = {"g": prob.g.to_json_dict(), "L": prob.L}
            report["rho"] = res.value
            report["y_star"] = res.point
            report["x_star"] = x_star
            report["h_at_x_star"] = h.evaluate(x_star)
            if res.status != "converged":
                status = EXIT_NO_CONVERGENCE
        else:
            report["route"] = f"exact/{args.domain}"
            result = _reduce_standard_form(args.domain, args, sf, inputs)
            report["rho"] = result.rho
            report["X_star"] = result.x_star
            report["iterations"] = result.iterations
            report["converged"] = result.converged
            report["witness"] = result.witness
            if not result.converged:
                status = EXIT_NO_CONVERGENCE
    else:
        if args.domain != "sphere":
            # problem Q is posed on the sphere; its minimum bounds nothing on
            # another domain
            raise CliInputError(
                f"h is not exactly sparse, and the approx route only solves on "
                f"the sphere, not on --domain {args.domain}"
            )
        report["route"] = "approx"
        m_hint = m if 1 <= m < n else choose_m(h, eig=eig)
        approx, status = _approx_route(h, eig, m_hint, args)
        report["m_approx"] = approx["m"]
        for key in ("fhat", "rho", "rho_plus", "rho_minus", "l2_error"):
            report[key] = approx[key]
    _write_outputs(args, report, inputs, started)
    return status


def cmd_gen(args) -> int:
    started = time.monotonic()
    if args.m > args.n or args.m < 0 or args.n < 1 or args.degree < 1:
        raise CliInputError(
            f"need 0 <= m <= n, n >= 1, degree >= 1; got n={args.n} m={args.m} degree={args.degree}"
        )
    inst = generate_instance(args.seed, args.n, args.m, args.degree, args.epsilon)
    os.makedirs(args.out, exist_ok=True)
    h_path = os.path.join(args.out, "h.json")
    _dump(h_path, inst.h.to_json_dict())
    truth = {
        "f0": inst.f0.to_json_dict(),
        "ell0": inst.ell0,
        "g0": inst.g0.to_json_dict() if inst.g0 is not None else None,
        "epsilon": inst.epsilon,
        "n": inst.n,
        "m": inst.m,
        "degree": inst.degree,
        "seed": inst.seed,
    }
    _dump(os.path.join(args.out, "truth.json"), truth)
    report = {"h_file": "h.json", "truth_file": "truth.json", **{k: truth[k] for k in ("n", "m", "degree", "epsilon", "seed")}}
    _write_outputs(args, report, [h_path], started)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowform",
        description="Detect and exploit few-linear-forms structure in polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the option groups it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    rank = argparse.ArgumentParser(add_help=False)
    rank.add_argument("--rank-tol", type=float, default=1e-8)
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tol", type=float, default=1e-9)
    solver.add_argument("--starts", type=int, default=32)
    solver.add_argument("--max-iter", type=int, default=500)

    p = sub.add_parser("detect", parents=[out, seed, rank], help="detect sparse structure")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["exact", "randomized"], default="exact")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("extract", parents=[out, seed], help="extract f from a detection report")
    p.add_argument("--input", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("reduce-sphere", parents=[out], help="build the reduced ball problem")
    p.add_argument("--sparse", required=True)
    p.set_defaults(func=cmd_reduce_sphere)

    p = sub.add_parser("reduce-polytope", parents=[out, seed, solver], help="polytope reduction")
    p.add_argument("--sparse", required=True)
    p.add_argument("--A")
    p.add_argument("--b")
    p.add_argument("--preset", choices=["simplex", "box"])
    p.set_defaults(func=cmd_reduce_polytope)

    p = sub.add_parser("solve", parents=[out, seed, solver], help="minimize a polynomial on a domain")
    p.add_argument("--objective", required=True)
    p.add_argument("--domain", required=True, help="ball | sphere | region.json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("approx", parents=[out, seed, solver], help="conditional-expectation surrogate")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--m-threshold", type=float, default=1e-2)
    p.add_argument("--path", choices=["exact", "cubature"], default="exact")
    p.add_argument("--degree", type=int)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("pipeline", parents=[out, seed, rank, solver], help="detect, route, reduce, solve")
    p.add_argument("--input", required=True)
    p.add_argument("--domain", required=True, choices=["sphere", "simplex", "box", "polytope"])
    p.add_argument("--A")
    p.add_argument("--b")
    p.add_argument("--method", choices=["exact", "randomized"], default="exact")
    p.add_argument("--route-residual-tol", type=float, default=1e-8)
    p.add_argument("--route-tail-tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("gen", parents=[out, seed], help="generate a test instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InfeasibleDomainError, UnboundedDomainError, InfeasibleRegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
