"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS] line on success (visible with pytest -s or in
captured output); a failed assertion marks the criterion red.
"""

import json
import math
import os

import numpy as np
import pytest

from conftest import (
    brute_force_min,
    coefficient_distance,
    finite_difference_gradient,
    hhat_eval,
    lp_vertex_enumeration,
    mc_ball_points,
    polytope_sample,
    random_polynomial,
    sin_principal_angle,
    tail_sum,
    y_mass,
)
from lowform.approx import (
    build_cubature,
    conditional_expectation_cubature,
    conditional_expectation_exact,
    l2_error,
    solve_Q,
    split_spectrum,
)
from lowform.cli import main as cli_main
from lowform.detection import (
    detect_exact,
    detect_randomized,
    extract_sparse_form,
    verify_sparse_form,
)
from lowform.generate import generate_instance
from lowform.linalg import LpProblem, lp_solve, sym_eig
from lowform.poly import ball_moments
from lowform.polytope import Polytope, SparseForm, box_reduce, cut_loop
from lowform.solvers import Hrep, SolveOptions, minimize_ball
from lowform.sphere import lift_minimizer, reduce_sphere


def report(name: str, detail: str = "") -> None:
    print(f"[PASS] {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_moment_oracle():
    """Closed-form ball moments vs 10^6-sample Monte Carlo, 3 standard errors."""
    rng = np.random.default_rng(3001)
    batches = {n: mc_ball_points(n, 1_000_000, seed=400 + n) for n in range(1, 6)}
    worst_sigma = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        alpha = tuple(int(2 * rng.integers(0, 3)) for _ in range(n))
        pts = batches[n]
        vals = np.ones(len(pts))
        for i, a in enumerate(alpha):
            if a:
                vals = vals * pts[:, i] ** a
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(len(pts)))
        exact = ball_moments(np.array([alpha]), n)[0]
        sigma = abs(exact - est) / max(se, 1e-12)
        worst_sigma = max(worst_sigma, sigma)
        assert sigma <= 3.0, (alpha, n, exact, est, se)
        odd = alpha[:-1] + (alpha[-1] + 1,)
        assert ball_moments(np.array([odd]), n)[0] == 0.0
    report("criterion 1: moment oracle", f"worst deviation {worst_sigma:.2f} sigma")


def test_criterion_2_detection_round_trip(detection_corpus):
    """Both detection methods recover m; extraction reconstructs h."""
    worst_residual = 0.0
    worst_angle = 0.0
    for inst in detection_corpus:
        exact = detect_exact(inst.h)
        assert exact.m == inst.m, (inst.seed, exact.m, inst.m)
        sf = extract_sparse_form(inst.h, exact.basis)
        residual = verify_sparse_form(inst.h, sf, num_points=200, seed=inst.seed)
        worst_residual = max(worst_residual, residual)
        assert residual < 1e-8, inst.seed
        for seed in range(5):
            rand = detect_randomized(inst.h, seed=seed)
            assert rand.m == inst.m, (inst.seed, seed, rand.m)
            angle = math.asin(min(1.0, sin_principal_angle(exact.basis, rand.basis)))
            worst_angle = max(worst_angle, angle)
            assert angle < 1e-6, (inst.seed, seed, angle)
    report(
        "criterion 2: detection round-trip",
        f"max residual {worst_residual:.2e}, max angle {worst_angle:.2e} rad",
    )


def test_criterion_3_sphere_reduction_equivalence(sphere_corpus):
    """Sphere minimum of h equals ball minimum of the reduced objective."""
    worst_gap = 0.0
    for idx, inst in enumerate(sphere_corpus):
        sf = extract_sparse_form(inst.h, detect_exact(inst.h).basis)
        prob = reduce_sphere(sf)
        res = minimize_ball(prob.g, SolveOptions(seed=idx))
        oracle = brute_force_min(inst.h, "sphere", 100_000, seed=3000 + idx)
        gap = abs(res.value - oracle)
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-6, (inst.seed, res.value, oracle)
        x_star = lift_minimizer(prob, res.point)
        assert abs(np.linalg.norm(x_star) - 1.0) < 1e-9, inst.seed
        assert abs(inst.h.evaluate(x_star) - res.value) < 1e-8, inst.seed
    report("criterion 3: sphere reduction equivalence", f"max value gap {worst_gap:.2e}")


def _simplex_cases():
    specs = [(4, 1, 4000), (6, 2, 4001), (8, 2, 4002), (5, 2, 4003)]
    for n, m, seed in specs:
        inst = generate_instance(seed, n, m, 3)
        yield inst, Polytope(a=np.ones((1, n)), b=np.array([1.0]))


def _box_cases():
    specs = [(4, 1, 4100), (6, 2, 4101), (8, 2, 4102)]
    for n, m, seed in specs:
        yield generate_instance(seed, n, m, 3)


def test_criterion_4_polytope_cut_loop():
    """Cut loops terminate, match full-dimension brute force, emit valid cuts."""
    worst_gap = 0.0
    max_iters = 0
    rng = np.random.default_rng(77)
    for inst, poly in _simplex_cases():
        sf = extract_sparse_form(inst.h, detect_exact(inst.h).basis)
        result = cut_loop(sf, poly, SolveOptions(seed=inst.seed))
        assert result.converged and result.iterations <= 50, inst.seed
        max_iters = max(max_iters, result.iterations)
        oracle = brute_force_min(inst.h, poly, 100_000, seed=inst.seed + 1)
        gap = abs(result.rho - oracle)
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-6, (inst.seed, result.rho, oracle)
        samples = polytope_sample(poly, rng, 200)
        projected = samples @ sf.ell
        for cut in result.cuts.cuts:
            assert np.all(projected @ cut.u <= cut.rhs + 1e-8), inst.seed
        values = result.inner_values
        assert all(b >= a - 1e-7 for a, b in zip(values, values[1:])), inst.seed

    for inst in _box_cases():
        n = inst.n
        sf = extract_sparse_form(inst.h, detect_exact(inst.h).basis)
        # standard-form rewrite of [-1,1]^n: x = z+ - z-, z+ + z- + slack = e
        poly = Polytope(
            a=np.hstack([np.eye(n), np.eye(n), np.eye(n)]), b=np.ones(n)
        )
        ell_lifted = np.vstack([sf.ell, -sf.ell, np.zeros((n, sf.ell.shape[1]))])
        sf_std = SparseForm(f=sf.f, ell=ell_lifted)
        result = cut_loop(sf_std, poly, SolveOptions(seed=inst.seed))
        assert result.converged and result.iterations <= 50, inst.seed
        max_iters = max(max_iters, result.iterations)
        box = Hrep(a_ub=np.zeros((0, n)), b_ub=np.zeros(0), lo=[-1.0] * n, hi=[1.0] * n)
        oracle = brute_force_min(inst.h, box, 100_000, seed=inst.seed + 1)
        gap = abs(result.rho - oracle)
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-6, (inst.seed, result.rho, oracle)
        direct = box_reduce(sf, SolveOptions(seed=inst.seed))
        assert direct.converged
        assert abs(direct.rho - result.rho) < 1e-6, inst.seed
        samples = polytope_sample(poly, rng, 200)
        projected = samples @ ell_lifted
        for cut in result.cuts.cuts:
            assert np.all(projected @ cut.u <= cut.rhs + 1e-8), inst.seed
        values = result.inner_values
        assert all(b >= a - 1e-7 for a, b in zip(values, values[1:])), inst.seed
    report(
        "criterion 4: polytope cut loop",
        f"max value gap {worst_gap:.2e}, max iterations {max_iters}",
    )


def test_criterion_5_conditional_expectation_exactness(approx_corpus):
    """Exact surrogate matches per-y Monte Carlo; cubature matches exact."""
    worst_sigma = 0.0
    worst_coef_gap = 0.0
    for inst in approx_corpus:
        split = split_spectrum(inst.h, inst.m)
        fhat = conditional_expectation_exact(inst.h, split)
        assert fhat.odd_y_violation() < 1e-12, inst.seed
        rng = np.random.default_rng(inst.seed)
        d = inst.n - inst.m
        for _ in range(10):
            y = 0.95 * rng.uniform(-1, 1, inst.m)
            y = y / max(1.0, float(np.linalg.norm(y)) / 0.95)
            tau = math.sqrt(max(0.0, 1.0 - float(y @ y)))
            v = mc_ball_points(d, 1_000_000, seed=int(rng.integers(1 << 30)))
            pts = y @ split.ell.T + tau * (v @ split.s.T)
            vals = inst.h.evaluate_many(pts)
            se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
            exact = fhat.poly.evaluate(np.concatenate([y, [tau]]))
            sigma = abs(exact - float(vals.mean())) / max(se, 1e-12)
            worst_sigma = max(worst_sigma, sigma)
            assert sigma <= 3.0, (inst.seed, y, exact, vals.mean(), se)
        rule = build_cubature(d, inst.h.degree(), seed=inst.seed)
        cub = conditional_expectation_cubature(inst.h, split, rule)
        coef_gap = coefficient_distance(fhat.poly, cub.poly)
        worst_coef_gap = max(worst_coef_gap, coef_gap)
        assert coef_gap < 1e-8, inst.seed
        assert cub.odd_y_violation() < 1e-12, inst.seed
    report(
        "criterion 5: conditional expectation exactness",
        f"worst MC deviation {worst_sigma:.2f} sigma, cubature gap {worst_coef_gap:.2e}",
    )


def test_criterion_6_equality_lemma(approx_corpus):
    """Surrogate minima over the sphere, ball, and problem Q all coincide."""
    worst_gap = 0.0
    worst_oracle = 0.0
    for idx, inst in enumerate(approx_corpus):
        split = split_spectrum(inst.h, inst.m)
        fhat = conditional_expectation_exact(inst.h, split)
        minimum = solve_Q(fhat, SolveOptions(seed=idx))
        # fhat is even in Y, so its sphere minimum is its Y >= 0 minimum, the
        # minimum of problem Q; the oracle evaluates fhat itself, not B
        sphere_oracle = brute_force_min(fhat.poly, "sphere", 100_000, seed=7000 + idx)
        worst_oracle = max(worst_oracle, abs(minimum.rho - sphere_oracle))
        assert abs(minimum.rho - sphere_oracle) < 1e-6, inst.seed

        # the surrogate depends on x only through y = ell^T x, so its minima
        # over the ball and over the sphere are both attained on the
        # m + kernel parametrization x = ell y + sqrt(1 - |y|^2) s z
        q = fhat.to_ball_polynomial()
        res = minimize_ball(q, SolveOptions(seed=idx))
        oracle = brute_force_min(q, "ball", 100_000, seed=6000 + idx)
        assert abs(res.value - oracle) < 1e-6, inst.seed

        y = res.point
        ball_point = split.ell @ y  # interior representative in E_n
        tau = math.sqrt(max(0.0, 1.0 - float(y @ y)))
        sphere_point = ball_point + tau * split.s[:, 0]
        assert abs(np.linalg.norm(sphere_point) - 1.0) < 1e-9
        min_ball = hhat_eval(fhat, split, ball_point)
        min_sphere = hhat_eval(fhat, split, sphere_point)
        assert abs(min_ball - res.value) < 1e-9
        assert abs(min_sphere - res.value) < 1e-9

        gap = max(abs(min_sphere - minimum.rho), abs(min_ball - minimum.rho))
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-6, (inst.seed, min_ball, min_sphere, minimum.rho)
    report(
        "criterion 6: equality lemma",
        f"max |min - rho| {worst_gap:.2e}, max |rho - sphere oracle| {worst_oracle:.2e}",
    )


def test_criterion_7_limit_case():
    """All sparsity-gap measures shrink monotonically along the epsilon family."""
    seed, n, m, degree = 4242, 4, 2, 3
    baseline = generate_instance(seed, n, m, degree)
    f_min = minimize_ball(baseline.f0, SolveOptions(seed=1)).value
    tails, masses, errors, gaps = [], [], [], []
    for eps in (1e-1, 1e-2, 1e-3, 0.0):
        inst = generate_instance(seed, n, m, degree, epsilon=eps)
        split = split_spectrum(inst.h, m)
        fhat = conditional_expectation_exact(inst.h, split)
        tails.append(tail_sum(split))
        masses.append(y_mass(fhat))
        errors.append(l2_error(inst.h, fhat, split))
        rho = solve_Q(fhat, SolveOptions(seed=3)).rho
        gaps.append(abs(rho - f_min))
    for series, label in ((tails, "tail"), (masses, "y-mass"), (errors, "l2"), (gaps, "rho gap")):
        assert all(b < a for a, b in zip(series, series[1:])), (label, series)
    assert tails[-1] < 1e-10 and masses[-1] < 1e-10 and gaps[-1] < 1e-10
    assert errors[-1] < 1e-12
    report(
        "criterion 7: limit case",
        f"tail {tails[0]:.1e}->{tails[-1]:.1e}, l2 {errors[0]:.1e}->{errors[-1]:.1e}, "
        f"rho gap {gaps[0]:.1e}->{gaps[-1]:.1e}",
    )


def test_criterion_8_numerical_hygiene(tmp_path):
    """Finite differences, eigen residuals, LP enumeration, bitwise determinism."""
    rng = np.random.default_rng(8001)
    for _ in range(100):
        nv = int(rng.integers(1, 7))
        p = random_polynomial(rng, nv, int(rng.integers(1, 5)))
        grads = p.gradient()
        x = rng.uniform(-1, 1, nv)
        exact = np.array([g.evaluate(x) for g in grads])
        approx = finite_difference_gradient(p, x)
        assert np.linalg.norm(exact - approx) / max(1.0, np.linalg.norm(exact)) < 1e-6

    for _ in range(20):
        dim = int(rng.integers(2, 13))
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2
        eig = sym_eig(a)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.linalg.norm(recon - a) < 1e-8 * np.linalg.norm(a)

    for trial in range(10):
        nv = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        a_ub = rng.standard_normal((k, nv))
        b_ub = rng.uniform(0.5, 2.0, k)
        bounds = [(-2.0, 2.0)] * nv
        c = rng.standard_normal(nv)
        res = lp_solve(LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, bounds=bounds))
        oracle = lp_vertex_enumeration(c, a_ub, b_ub, None, None, bounds)
        assert res.status == "optimal" and abs(res.value - oracle) <= 1e-9

    golden_root = os.path.join(os.path.dirname(__file__), "golden")
    for case in ("case_sphere", "case_approx", "case_simplex"):
        with open(os.path.join(golden_root, case, "args.json")) as fh:
            spec = json.load(fh)
        outs = []
        for tag in ("first", "second"):
            gen_out = tmp_path / case / tag / "gen"
            assert cli_main([str(a) for a in spec["gen"] + ["--out", gen_out]]) == 0
            run_out = tmp_path / case / tag / "run"
            argv = [
                str(a) if a != "__H__" else str(gen_out / "h.json") for a in spec["cmd"]
            ]
            assert cli_main(argv + ["--out", str(run_out)]) == spec["exit"]
            outs.append(run_out / "report.json")
        assert outs[0].read_bytes() == outs[1].read_bytes()
        with open(os.path.join(golden_root, case, "report.json"), "rb") as fh:
            assert fh.read() == outs[0].read_bytes()
    report("criterion 8: numerical hygiene", "gradients, spectra, LPs, golden files")
