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
import dataclasses
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
    tail_fraction,
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

# pipeline takes the exact route below both: extraction residual, spectral tail fraction
ROUTE_RESIDUAL_TOL = 1e-8
ROUTE_TAIL_TOL = 1e-10


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
        "inputs": {p: _digest(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "tolerances": {"rank_tol": getattr(args, "rank_tol", None)},
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    _dump(os.path.join(args.out, "manifest.json"), manifest)
    print(text)


def _checked_options(args) -> SolveOptions | None:
    """Check --seed, --rank-tol, --epsilon and the solver options before any
    work; returns the solver options of a command that takes them, else None."""
    if getattr(args, "seed", 0) < 0:
        raise CliInputError(f"--seed must be at least 0, got {args.seed}")
    if hasattr(args, "rank_tol") and not 0.0 < args.rank_tol < 1.0:  # NaN fails too
        raise CliInputError(f"--rank-tol must be in (0, 1), got {args.rank_tol}")
    if not np.isfinite(getattr(args, "epsilon", 0.0)):
        raise CliInputError(f"--epsilon must be finite, got {args.epsilon}")
    if not hasattr(args, "starts"):
        return None
    try:
        return SolveOptions(starts=args.starts, max_iter=args.max_iter, seed=args.seed)
    except ValueError as exc:
        raise CliInputError(
            f"--starts and --max-iter must be positive, got {args.starts} and {args.max_iter}"
        ) from exc


# ----------------------------------------------------------------------
# command implementations: each takes the parsed arguments and the solver
# options, and returns (report, input paths, exit code) for main to write
# ----------------------------------------------------------------------


def cmd_detect(args, opts):
    h = _load_polynomial(args.input)
    if args.method == "randomized":
        try:
            rep = detect_randomized(h, seed=args.seed, rank_tol=args.rank_tol)
        except RankNotStabilizedError:
            rep = detect_exact(gradient_spectrum(h), rank_tol=args.rank_tol)
    else:
        rep = detect_exact(gradient_spectrum(h), rank_tol=args.rank_tol)
    return dataclasses.asdict(rep), [args.input], EXIT_OK


def cmd_extract(args, opts):
    h = _load_polynomial(args.input)
    rep = _load_json(args.report)
    try:
        basis = np.asarray(rep["basis"], dtype=float).reshape(h.num_vars, -1)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{args.report} is not a detection report: {exc}") from exc
    sf = extract_sparse_form(h, basis)
    residual = verify_sparse_form(h, sf, seed=args.seed)
    report = {"f": sf.f.to_json_dict(), "ell": sf.ell, "residual": residual}
    return report, [args.input, args.report], EXIT_OK


def cmd_reduce_sphere(args, opts):
    sf = _load_sparse_form(args.sparse)
    prob = reduce_sphere(sf)
    return {"g": prob.g.to_json_dict(), "L": prob.L}, [args.sparse], EXIT_OK


def _reduce_standard_form(kind, args, opts: SolveOptions, sf: SparseForm, inputs: list[str]):
    """Minimize f(ell^T x) over the simplex, the box, or (``kind`` None or
    "polytope") the polytope of ``--A`` and ``--b``, whose files join
    ``inputs``: the one route of ``reduce-polytope`` and ``pipeline``.  A
    malformed ``--A`` or ``--b`` exits 2, an empty polytope 3."""
    if kind == "simplex":
        return simplex_reduce(sf, opts)
    if kind == "box":
        return box_reduce(sf, opts)
    if not (args.A and args.b):
        raise CliInputError("a general polytope needs --A and --b")
    a, n = _load_matrix(args.A), sf.ell.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise CliInputError(f"{args.A} must be a matrix with one column per variable of h ({n})")
    try:
        poly = Polytope(a=a, b=_load_matrix(args.b))
    except InfeasibleDomainError:
        raise
    except ValueError as exc:
        raise CliInputError(f"{args.A} and {args.b} do not define a polytope: {exc}") from exc
    inputs += [args.A, args.b]
    return vertex_reduce(sf, poly, opts)


def cmd_reduce_polytope(args, opts):
    inputs = [args.sparse]
    sf = _load_sparse_form(args.sparse)
    result = _reduce_standard_form(args.preset, args, opts, sf, inputs)
    report = {
        "rho": result.rho,
        "X_star": result.x_star,
        "cuts": [
            {"u": c.u, "rhs": c.rhs, "lambda": c.lam} for c in result.cuts
        ],
        "iterations": result.iterations,
        "converged": result.converged,
        "inner_values": result.inner_values,
        "witness": result.witness,
        "witness_gap": result.witness_gap,
    }
    return report, inputs, EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_solve(args, opts):
    p = _load_polynomial(args.objective)
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
        res = minimize_polytope(p, region.points, opts)
    report = {
        "value": res.value,
        "point": res.point,
        "status": res.status,
        "iterations": res.iterations,
        "starts_used": res.starts_used,
    }
    return report, inputs, EXIT_OK if res.status == "converged" else EXIT_NO_CONVERGENCE


def _approx_route(
    h: Polynomial, eig, m: int, opts: SolveOptions, path: str = "exact"
) -> tuple[dict, int]:
    """Split at m (clamped to [1, n - 1]), surrogate, problem Q, L2 error.

    The approx route of ``approx`` and ``pipeline``.  The "cubature" ``path``
    builds a rule of h's degree, at which the surrogate is already
    coefficientwise exact.  Returns the ``approx`` report, which the
    pipeline's report draws on, and the Q solve's exit code.
    """
    n = h.num_vars
    if n < 2:
        raise CliInputError("the approx route needs a polynomial in at least 2 variables")
    m = max(1, min(m, n - 1))
    split = split_spectrum(eig, m)
    if path == "cubature":
        try:
            rule = build_cubature(n - m, h.degree(), seed=opts.seed)
            fhat = conditional_expectation_cubature(h, split, rule)
        except CubatureConstructionError:
            path = "exact"  # fall back when no rule reaches tolerance
            fhat = conditional_expectation_exact(h, split)
    else:
        fhat = conditional_expectation_exact(h, split)
    minimum = solve_Q(fhat, opts)
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
        "rho": minimum.value,
        "rho_plus": minimum.value,
        "rho_minus": minimum.value,
        "point": minimum.point,
        "l2_error": {"value": l2_error(h, fhat, split)},
    }
    return report, EXIT_OK if minimum.status == "converged" else EXIT_NO_CONVERGENCE


def cmd_approx(args, opts):
    h = _load_polynomial(args.input)
    n = h.num_vars
    if args.m is not None and not 1 <= args.m <= n - 1:
        raise CliInputError(f"--m must be in [1, {n - 1}], got {args.m}")
    eig = gradient_spectrum(h)
    m = args.m if args.m is not None else choose_m(eig)
    report, status = _approx_route(h, eig, m, opts, args.path)
    return report, [args.input], status


def cmd_pipeline(args, opts):
    h = _load_polynomial(args.input)
    n = h.num_vars
    if n == 0:
        raise CliInputError("the pipeline needs a polynomial in at least 1 variable")
    inputs = [args.input]

    # one spectrum per run: detection, the route's tail fraction and the split
    eig = gradient_spectrum(h)
    detect = detect_exact(eig, rank_tol=args.rank_tol)
    m = detect.m
    sf = extract_sparse_form(h, detect.basis)
    residual = verify_sparse_form(h, sf, seed=args.seed)
    tail_ratio = tail_fraction(eig, m)

    exact_route = m < n and residual < ROUTE_RESIDUAL_TOL and tail_ratio < ROUTE_TAIL_TOL
    report = {
        "detect": dataclasses.asdict(detect),
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
            result = _reduce_standard_form(args.domain, args, opts, sf, inputs)
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
        m_hint = m if 1 <= m < n else choose_m(eig)
        approx, status = _approx_route(h, eig, m_hint, opts)
        report["m_approx"] = approx["m"]
        for key in ("fhat", "rho", "rho_plus", "rho_minus", "l2_error"):
            report[key] = approx[key]
    return report, inputs, status


def cmd_gen(args, opts):
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
    return report, [h_path], EXIT_OK


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
    p.add_argument("--path", choices=["exact", "cubature"], default="exact")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("pipeline", parents=[out, seed, rank, solver], help="detect, route, reduce, solve")
    p.add_argument("--input", required=True)
    p.add_argument("--domain", required=True, choices=["sphere", "simplex", "box", "polytope"])
    p.add_argument("--A")
    p.add_argument("--b")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("gen", parents=[out, seed], help="generate a test instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    """Run one request: parse, validate the numeric options, run the command,
    and write its report and manifest.  A request that exits 2 or 3 writes
    neither."""
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        report, inputs, code = args.func(args, _checked_options(args))
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InfeasibleDomainError, UnboundedDomainError, InfeasibleRegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _write_outputs(args, report, inputs, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
