"""Command-line interface: artifacts, exit codes, routing, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lowform.cli
from lowform.cli import _build_parser, main
from lowform.detection import RankNotStabilizedError
from lowform.poly import Polynomial


def run(argv):
    return main([str(a) for a in argv])


def read(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def sparse_instance(tmp_path):
    out = tmp_path / "gen"
    assert run(["gen", "--seed", 7, "--n", 5, "--m", 2, "--degree", 3, "--out", out]) == 0
    return out / "h.json"


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gen", "--seed", 3, "--n", 4, "--m", 1, "--out", a]) == 0
    assert run(["gen", "--seed", 3, "--n", 4, "--m", 1, "--out", b]) == 0
    assert (a / "h.json").read_bytes() == (b / "h.json").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()
    c = tmp_path / "c"
    assert run(["gen", "--seed", 4, "--n", 4, "--m", 1, "--out", c]) == 0
    assert (a / "h.json").read_bytes() != (c / "h.json").read_bytes()


def test_gen_dense_control(tmp_path):
    out = tmp_path / "dense"
    assert run(["gen", "--seed", 5, "--n", 3, "--m", 3, "--out", out]) == 0
    truth = read(out / "truth.json")
    assert truth["m"] == 3 and np.asarray(truth["ell0"]).shape == (3, 3)


def test_detect_and_extract_roundtrip(tmp_path, sparse_instance):
    det = tmp_path / "det"
    assert run(["detect", "--input", sparse_instance, "--out", det]) == 0
    report = read(det / "report.json")
    assert report["m"] == 2 and report["method"] == "exact"
    manifest = read(det / "manifest.json")
    assert manifest["command"] == "detect"
    assert str(sparse_instance) in manifest["inputs"] and manifest["version"]

    ext = tmp_path / "ext"
    assert run(
        ["extract", "--input", sparse_instance, "--report", det / "report.json", "--out", ext]
    ) == 0
    extraction = read(ext / "report.json")
    assert extraction["residual"] < 1e-8
    assert np.asarray(extraction["ell"]).shape == (5, 2)


def test_detect_randomized_flag(tmp_path, sparse_instance):
    det = tmp_path / "det"
    assert run(
        ["detect", "--input", sparse_instance, "--method", "randomized", "--out", det]
    ) == 0
    report = read(det / "report.json")
    assert report["m"] == 2 and report["method"] == "randomized"
    assert report["samples_used"] == len(report["spectrum"])


def test_detect_randomized_falls_back_to_the_exact_spectrum(tmp_path, sparse_instance,
                                                           monkeypatch):
    # a detect_randomized whose sampled rank never settles: the request
    # reports the exact method's detection, as --method exact does
    def unsettled(*args, **kwargs):
        raise RankNotStabilizedError("the sampled rank kept growing")

    monkeypatch.setattr(lowform.cli, "detect_randomized", unsettled)
    fallback, exact = tmp_path / "fallback", tmp_path / "exact"
    assert run(["detect", "--input", sparse_instance, "--method", "randomized",
                "--out", fallback]) == 0
    assert run(["detect", "--input", sparse_instance, "--method", "exact", "--out", exact]) == 0
    assert read(fallback / "report.json")["method"] == "exact"
    assert (fallback / "report.json").read_bytes() == (exact / "report.json").read_bytes()


def test_reduce_sphere_command(tmp_path, sparse_instance):
    det, ext, red = tmp_path / "det", tmp_path / "ext", tmp_path / "red"
    run(["detect", "--input", sparse_instance, "--out", det])
    run(["extract", "--input", sparse_instance, "--report", det / "report.json", "--out", ext])
    assert run(["reduce-sphere", "--sparse", ext / "report.json", "--out", red]) == 0
    reduced = read(red / "report.json")
    assert np.allclose(np.asarray(reduced["L"]), np.eye(2), atol=1e-8)


def test_reduce_polytope_presets(tmp_path, sparse_instance):
    det, ext = tmp_path / "det", tmp_path / "ext"
    run(["detect", "--input", sparse_instance, "--out", det])
    run(["extract", "--input", sparse_instance, "--report", det / "report.json", "--out", ext])
    simplex = tmp_path / "simplex"
    assert run(
        ["reduce-polytope", "--sparse", ext / "report.json", "--preset", "simplex", "--out", simplex]
    ) == 0
    box = tmp_path / "box"
    assert run(
        ["reduce-polytope", "--sparse", ext / "report.json", "--preset", "box", "--out", box]
    ) == 0
    assert read(simplex / "report.json")["converged"]
    box_report = read(box / "report.json")
    assert box_report["converged"] and box_report["cuts"] == []


def test_reduce_polytope_general_and_infeasible(tmp_path, sparse_instance):
    det, ext = tmp_path / "det", tmp_path / "ext"
    run(["detect", "--input", sparse_instance, "--out", det])
    run(["extract", "--input", sparse_instance, "--report", det / "report.json", "--out", ext])
    a_path, b_path = tmp_path / "A.json", tmp_path / "b.json"
    a_path.write_text(json.dumps([[1.0] * 5]))
    b_path.write_text(json.dumps([1.0]))
    gen = tmp_path / "general"
    assert run(
        ["reduce-polytope", "--sparse", ext / "report.json",
         "--A", a_path, "--b", b_path, "--out", gen]
    ) == 0
    assert read(gen / "report.json")["converged"]

    b_path.write_text(json.dumps([-1.0]))
    assert run(
        ["reduce-polytope", "--sparse", ext / "report.json",
         "--A", a_path, "--b", b_path, "--out", tmp_path / "bad"]
    ) == 3


def test_solve_command_and_nonconvergence_exit(tmp_path):
    obj = tmp_path / "p.json"
    obj.write_text(json.dumps({"num_vars": 1, "terms": [{"exp": [1], "coef": 1.0}]}))
    out = tmp_path / "solve"
    assert run(["solve", "--objective", obj, "--domain", "ball", "--out", out]) == 0
    assert read(out / "report.json")["value"] == pytest.approx(-1.0, abs=1e-9)

    # a quartic is not numerically stationary after one accepted step: exit
    # 4, but the partial report is still written
    hard = tmp_path / "q.json"
    hard.write_text(json.dumps({"num_vars": 2, "terms": [
        {"exp": [4, 0], "coef": 1.0}, {"exp": [0, 3], "coef": -2.0},
        {"exp": [1, 1], "coef": 0.7}]}))
    out4 = tmp_path / "solve4"
    code = run(["solve", "--objective", hard, "--domain", "sphere",
                "--max-iter", 1, "--starts", 1, "--out", out4])
    assert code == 4
    assert (out4 / "report.json").exists() and (out4 / "manifest.json").exists()


def test_solve_hrep_domain(tmp_path):
    obj = tmp_path / "p.json"
    obj.write_text(json.dumps({"num_vars": 2, "terms": [
        {"exp": [1, 0], "coef": 1.0}, {"exp": [0, 1], "coef": 1.0}]}))
    region = tmp_path / "region.json"
    region.write_text(json.dumps({
        "a_ub": [[1.0, 1.0]], "b_ub": [1.0], "lo": [0.0, 0.0], "hi": [1.0, 1.0]}))
    out = tmp_path / "solve"
    assert run(["solve", "--objective", obj, "--domain", region, "--out", out]) == 0
    assert read(out / "report.json")["value"] == pytest.approx(0.0, abs=1e-9)

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "a_ub": [[1.0, 1.0]], "b_ub": [-1.0], "lo": [0.0, 0.0], "hi": [1.0, 1.0]}))
    assert run(["solve", "--objective", obj, "--domain", empty, "--out", out]) == 3


@pytest.mark.parametrize("num_vars, region", [
    (2, {"lo": [-1, -1, -1], "hi": [1, 1, 1]}),  # 3 bounds for 2 variables
    (4, {"a_ub": [[1, 1], [1, 1]], "b_ub": [1], "lo": [0] * 4, "hi": [1] * 4}),
    (2, {"a_ub": [1, 1], "b_ub": [1], "lo": [0, 0], "hi": [1, 1]}),  # a flat a_ub
    (2, {"a_ub": [[1, 1]], "b_ub": [1, 2], "lo": [0, 0], "hi": [1, 1]}),
    (2, {"lo": [-1, -1], "hi": [1, 1, 1]}),
    (2, {"lo": [-1, float("-inf")], "hi": [1, 1]}),  # infinite: never solvable
    (2, {"a_ub": [[float("nan"), 1]], "b_ub": [1], "lo": [0, 0], "hi": [1, 1]}),
    (2, {"a_ub": [[float("inf"), 1]], "b_ub": [1], "lo": [-1, -1], "hi": [1, 1]}),
    (2, {"lo": [1, 0], "hi": [0, 1]}),
    (2, {"hi": [1, 1]}),
    (2, [[-1, -1], [1, 1]]),
], ids=["dim", "a_ub_columns", "a_ub_flat", "b_ub_length", "hi_length", "infinite",
        "nan_row", "infinite_row", "lo_above_hi", "no_lo", "not_an_object"])
def test_malformed_region_file_exits_2(tmp_path, num_vars, region):
    obj = tmp_path / "p.json"
    obj.write_text(json.dumps({"num_vars": num_vars, "terms": [
        {"exp": [1] + [0] * (num_vars - 1), "coef": 1.0}]}))
    path = tmp_path / "region.json"
    path.write_text(json.dumps(region))
    assert _rejected(["solve", "--objective", obj, "--domain", path], tmp_path / "o")


def test_approx_command(tmp_path):
    gen = tmp_path / "gen"
    run(["gen", "--seed", 11, "--n", 4, "--m", 2, "--degree", 3,
         "--epsilon", 0.05, "--out", gen])
    out = tmp_path / "approx"
    assert run(["approx", "--input", gen / "h.json", "--m", 2, "--out", out]) == 0
    report = read(out / "report.json")
    assert report["m"] == 2 and report["path"] == "exact"
    assert abs(report["rho_plus"] - report["rho_minus"]) < 1e-8
    assert report["l2_error"]["value"] > 0

    cub = tmp_path / "cub"
    assert run(["approx", "--input", gen / "h.json", "--m", 2, "--path", "cubature",
                "--out", cub]) == 0
    exact_f = {tuple(t["exp"]): t["coef"] for t in report["fhat"]["terms"]}
    cub_f = {tuple(t["exp"]): t["coef"]
             for t in read(cub / "report.json")["fhat"]["terms"]}
    assert all(abs(exact_f.get(k, 0) - cub_f.get(k, 0)) < 1e-8
               for k in set(exact_f) | set(cub_f))


def test_pipeline_routes(tmp_path, sparse_instance):
    exact = tmp_path / "exact"
    assert run(["pipeline", "--input", sparse_instance, "--domain", "sphere",
                "--out", exact]) == 0
    r = read(exact / "report.json")
    assert r["route"] == "exact/sphere"
    assert abs(r["h_at_x_star"] - r["rho"]) < 1e-8

    gen = tmp_path / "pert"
    run(["gen", "--seed", 13, "--n", 4, "--m", 2, "--degree", 3,
         "--epsilon", 0.1, "--out", gen])
    approx = tmp_path / "approx"
    assert run(["pipeline", "--input", gen / "h.json", "--domain", "sphere",
                "--out", approx]) == 0
    r = read(approx / "report.json")
    assert r["route"] == "approx"
    assert "rho_plus" in r and "l2_error" in r

    simplex = tmp_path / "simplex"
    assert run(["pipeline", "--input", sparse_instance, "--domain", "simplex",
                "--out", simplex]) == 0
    assert read(simplex / "report.json")["route"] == "exact/simplex"

    box = tmp_path / "box"
    assert run(["pipeline", "--input", sparse_instance, "--domain", "box",
                "--out", box]) == 0
    assert read(box / "report.json")["route"] == "exact/box"

    a_path, b_path = tmp_path / "A.json", tmp_path / "b.json"
    a_path.write_text(json.dumps([[1.0] * 5]))
    b_path.write_text(json.dumps([1.0]))
    poly = tmp_path / "poly"
    assert run(["pipeline", "--input", sparse_instance, "--domain", "polytope",
                "--A", a_path, "--b", b_path, "--out", poly]) == 0
    r = read(poly / "report.json")
    assert r["route"] == "exact/polytope" and r["converged"]


def test_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["detect", "--input", bad, "--out", tmp_path / "o"]) == 2
    missing = tmp_path / "missing.json"
    assert run(["detect", "--input", missing, "--out", tmp_path / "o"]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"num_vars": 2, "terms": [{"exp": [1], "coef": 1.0}]}))
    assert run(["detect", "--input", schema, "--out", tmp_path / "o"]) == 2
    # values the constructor would repair are rejected at the parse boundary
    for term in ({"exp": [1, 0], "coef": float("nan")},
                 {"exp": [1.7, 0], "coef": 1.0}):
        bad_term = tmp_path / "bad_term.json"
        bad_term.write_text(json.dumps({"num_vars": 2, "terms": [
            {"exp": [0, 2], "coef": 1.0}, term]}))
        assert run(["detect", "--input", bad_term, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("coef", ["1.5", True, None, [1.0]])
def test_non_numeric_coefficient_exits_2(tmp_path, capsys, coef):
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps({"num_vars": 2, "terms": [
        {"exp": [2, 0], "coef": 1.0}, {"exp": [0, 2], "coef": coef}]}))
    assert _rejected(["solve", "--objective", bad, "--domain", "sphere"], tmp_path / "o")
    assert f"coefficient of [0, 2] is {coef!r}, not a number" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [1e30, 2**70, 2**63])
def test_exponent_of_2_pow_63_or_more_exits_2_naming_it(tmp_path, capsys, entry):
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps({"num_vars": 2, "terms": [
        {"exp": [2, 0], "coef": 1.0}, {"exp": [entry, 0], "coef": 1.0}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy cast warning on the way
        assert _rejected(["solve", "--objective", bad, "--domain", "sphere"], tmp_path / "o")
    err = capsys.readouterr().err
    assert "has an entry of 2**63 or more" in err
    assert f"exponent [{entry!r}, 0" in err or f"exponent [{float(entry)!r}, 0" in err


@pytest.mark.parametrize("num_vars", [2.5, True, "2"])
def test_non_integral_num_vars_exits_2(tmp_path, num_vars):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_vars": num_vars, "terms": [{"exp": [1, 0], "coef": 1.0}]}))
    assert _rejected(["detect", "--input", bad], tmp_path / "o")


def _polytope_files(tmp_path, a, b):
    a_path, b_path = tmp_path / "A.json", tmp_path / "b.json"
    a_path.write_text(json.dumps(a))
    b_path.write_text(json.dumps(b))
    return ["--A", a_path, "--b", b_path]


@pytest.mark.parametrize("route", ["simplex", "box", "polytope", "reduce-polytope"])
def test_inner_max_iter_exits_4_on_polytope_routes(tmp_path, sparse_instance, route):
    polytope = _polytope_files(tmp_path, [[1.0] * 5], [1.0])
    if route == "reduce-polytope":
        ext = tmp_path / "ext"
        run(["detect", "--input", sparse_instance, "--out", tmp_path / "det"])
        run(["extract", "--input", sparse_instance,
             "--report", tmp_path / "det" / "report.json", "--out", ext])
        argv = ["reduce-polytope", "--sparse", ext / "report.json"] + polytope
    else:
        argv = ["pipeline", "--input", sparse_instance, "--domain", route]
        argv += polytope if route == "polytope" else []
    out = tmp_path / "out"
    assert run(argv + ["--max-iter", 1, "--out", out]) == 4
    report = read(out / "report.json")
    assert report["converged"] is False and (out / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["approx", "--path", "exact"],
    ["approx", "--path", "cubature"],
    ["pipeline", "--domain", "sphere"],
], ids=["approx-exact", "approx-cubature", "pipeline"])
def test_inner_max_iter_exits_4_on_approx_routes(tmp_path, perturbed_instance, argv):
    out = tmp_path / "out"
    assert run(argv + ["--input", perturbed_instance, "--max-iter", 1,
                       "--out", out]) == 4
    report = read(out / "report.json")
    assert report.get("route", "approx") == "approx" and "rho" in report
    assert (out / "manifest.json").exists()


def _assert_feasible(witness, box):
    """witness lies in [-1, 1]^3 (box) or in {x >= 0 : x1 + x2 + x3 = 1}."""
    w = np.asarray(witness)
    assert w.shape == (3,)
    if box:
        assert np.abs(w).max() <= 1.0
    else:
        assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("domain", ["sphere", "simplex", "box", "polytope"])
def test_constant_h_on_every_route(tmp_path, domain):
    # m = 0: the cut loops must not try to separate in R^0
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"num_vars": 3, "terms": [{"exp": [0, 0, 0], "coef": 2.5}]}))
    polytope = _polytope_files(tmp_path, [[1.0] * 3], [1.0])
    out = tmp_path / "out"
    argv = ["pipeline", "--input", h, "--domain", domain]
    assert run(argv + (polytope if domain == "polytope" else []) + ["--out", out]) == 0
    report = read(out / "report.json")
    assert report["route"] == f"exact/{domain}" and report["rho"] == 2.5
    if domain != "sphere":
        _assert_feasible(report["witness"], domain == "box")


@pytest.mark.parametrize("preset", [None, "simplex", "box"])
def test_reduce_polytope_constant_sparse_form(tmp_path, preset):
    sparse = tmp_path / "sparse.json"
    sparse.write_text(json.dumps({
        "f": {"num_vars": 0, "terms": [{"exp": [], "coef": 2.5}]}, "ell": [[], [], []]}))
    argv = ["reduce-polytope", "--sparse", sparse]
    argv += ["--preset", preset] if preset else _polytope_files(tmp_path, [[1.0] * 3], [1.0])
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 0
    report = read(out / "report.json")
    assert report["rho"] == 2.5 and report["converged"] and report["X_star"] == []
    _assert_feasible(report["witness"], preset == "box")


@pytest.mark.parametrize("a, b", [
    ([[1.0, 1.0, 1.0, -1.0, 0.0]], [1.0]),  # x4 and x1 can grow together
    ([[1.0] * 5], [-1.0]),  # x >= 0 cannot sum to -1
])
def test_unbounded_or_empty_polytope_exits_3(tmp_path, sparse_instance, a, b):
    out = tmp_path / "out"
    argv = ["pipeline", "--input", sparse_instance, "--domain", "polytope"]
    assert run(argv + _polytope_files(tmp_path, a, b) + ["--out", out]) == 3
    assert not (out / "report.json").exists()


def _spy(monkeypatch, fn) -> list:
    """Record (args, kwargs) of every call of fn, at every lowform module that holds it."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lowform" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, recording)
    return calls


def test_polytope_pipeline_solves_no_lp(tmp_path, sparse_instance, monkeypatch):
    # the vertex table certifies boundedness and the gap at X*, and X* is
    # the image of a table row, which is the witness
    from lowform.linalg import lp_solve

    calls = _spy(monkeypatch, lp_solve)
    rng = np.random.default_rng(5)
    a = np.vstack([np.ones((1, 5)), rng.uniform(0.0, 1.0, (2, 5))])
    b = a @ rng.dirichlet(np.ones(5))
    out = tmp_path / "out"
    argv = ["pipeline", "--input", sparse_instance, "--domain", "polytope"]
    assert run(argv + _polytope_files(tmp_path, a.tolist(), b.tolist()) + ["--out", out]) == 0
    report = read(out / "report.json")
    assert report["route"] == "exact/polytope" and report["converged"]
    assert len(calls) == 0


def test_simplex_pipeline_solves_no_lp(tmp_path, monkeypatch):
    # the request of golden case_simplex
    from lowform.linalg import lp_solve

    calls = _spy(monkeypatch, lp_solve)
    case = os.path.join(GOLDEN_DIR, "case_simplex")
    with open(os.path.join(case, "args.json")) as fh:
        cmd = json.load(fh)["cmd"]
    argv = [os.path.join(case, "h.json") if arg == "__H__" else arg for arg in cmd]
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 0
    assert read(out / "report.json")["route"] == "exact/simplex"
    assert len(calls) == 0


def test_simplex_pipeline_with_interior_minimizer_solves_no_lp(tmp_path, monkeypatch):
    # h(x) = |L^T x - L^T c|^2 is least at the simplex's centroid c, whose
    # image is no vertex image: the witness is the descent's mixture of the
    # simplex's vertices, and no LP runs
    from lowform.linalg import lp_solve

    n = 5
    lin = np.random.default_rng(3).standard_normal((n, 2))
    target = lin.T @ np.full(n, 1.0 / n)
    h = Polynomial.zero(n)
    for k in range(2):
        form = Polynomial.constant(n, -float(target[k]))
        for i in range(n):
            form = form + Polynomial.variable(n, i) * float(lin[i, k])
        h = h + form * form
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json_dict()))
    calls = _spy(monkeypatch, lp_solve)
    out = tmp_path / "out"
    assert run(["pipeline", "--input", path, "--domain", "simplex", "--out", out]) == 0
    report = read(out / "report.json")
    assert report["route"] == "exact/simplex" and report["converged"]
    assert len(calls) == 0
    witness = np.asarray(report["witness"])
    assert abs(witness.sum() - 1.0) <= 1e-7 and witness.min() >= 0.0
    assert report["rho"] == pytest.approx(0.0, abs=1e-9)


def test_box_request_of_seed_9_converges_at_default_options(tmp_path):
    # its minimizer lies on an edge of the zonotope, where the inner solve
    # once stopped at max_iter (exit 4) with rho -2.8360963
    assert run(["gen", "--seed", 9, "--n", 5, "--m", 2, "--degree", 3,
                "--out", tmp_path / "gen"]) == 0
    h = tmp_path / "gen" / "h.json"
    assert run(["detect", "--input", h, "--out", tmp_path / "det"]) == 0
    assert run(["extract", "--input", h, "--report", tmp_path / "det" / "report.json",
                "--out", tmp_path / "ext"]) == 0
    out = tmp_path / "box"
    assert run(["reduce-polytope", "--sparse", tmp_path / "ext" / "report.json",
                "--preset", "box", "--out", out]) == 0
    report = read(out / "report.json")
    assert report["converged"] and report["rho"] <= -2.8361333
    witness = np.asarray(report["witness"])
    assert witness.shape == (5,) and np.abs(witness).max() <= 1.0
    value = Polynomial.from_json_dict(read(h)).evaluate(witness)
    assert abs(value - report["rho"]) <= 1e-9


@pytest.fixture()
def perturbed_instance(tmp_path):
    out = tmp_path / "pert"
    assert run(["gen", "--seed", 13, "--n", 4, "--m", 2, "--degree", 3,
                "--epsilon", 0.1, "--out", out]) == 0
    return out / "h.json"


def _rejected(argv, out):
    """The command exits 2 and writes no report."""
    try:
        code = run(argv + ["--out", out])
    except SystemExit as exc:  # argparse rejects an unknown option
        code = exc.code
    return code == 2 and not (out / "report.json").exists()


def test_zero_starts_exits_2(tmp_path, sparse_instance):
    assert _rejected(["pipeline", "--input", sparse_instance, "--domain", "sphere",
                      "--starts", 0], tmp_path / "o")


def test_zero_max_iter_exits_2(tmp_path, sparse_instance):
    assert _rejected(["pipeline", "--input", sparse_instance, "--domain", "sphere",
                      "--max-iter", 0], tmp_path / "o")


_SPHERE = ["pipeline", "--input", "h", "--domain", "sphere"]


@pytest.mark.parametrize("argv", [
    _SPHERE + ["--starts", -1],
    _SPHERE + ["--max-iter", -1],
    _SPHERE + ["--rank-tol", -1],
    _SPHERE + ["--rank-tol", "nan"],
    _SPHERE + ["--rank-tol", 1],
    _SPHERE + ["--seed", -1],
    ["detect", "--input", "h", "--rank-tol", 0],
    ["gen", "--n", 3, "--m", 1, "--seed", -1],
    ["gen", "--n", 3, "--m", 1, "--epsilon", "nan"],
    ["gen", "--n", 3, "--m", 1, "--epsilon", "inf"],
])
def test_malformed_numeric_option_exits_2_and_writes_nothing(tmp_path, sparse_instance, capsys,
                                                              argv):
    # --starts and --max-iter positive, --rank-tol in (0, 1), --seed >= 0,
    # --epsilon finite
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([sparse_instance if a == "h" else a for a in argv] + ["--out", out]) == 2
    assert capsys.readouterr().out == "" and not out.exists()


SOLVER = {"--seed", "--starts", "--max-iter"}
COMMAND_OPTIONS = {
    "detect": {"--input", "--method", "--seed", "--rank-tol"},
    "extract": {"--input", "--report", "--seed"},
    "reduce-sphere": {"--sparse"},
    "reduce-polytope": {"--sparse", "--A", "--b", "--preset"} | SOLVER,
    "solve": {"--objective", "--domain"} | SOLVER,
    "approx": {"--input", "--m", "--path"} | SOLVER,
    "pipeline": {"--input", "--domain", "--A", "--b", "--rank-tol"} | SOLVER,
    "gen": {"--n", "--m", "--degree", "--epsilon", "--seed"},
}


def test_each_command_takes_only_the_options_it_reads():
    commands = next(action.choices for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert set(commands) == set(COMMAND_OPTIONS)
    for name, parser in commands.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help", "--out"} == COMMAND_OPTIONS[name], name


@pytest.mark.parametrize("argv", [
    pytest.param([command] + argv + [option, "1"], id=f"{command}{option}")
    for command, argv in [
        ("detect", ["--input", "h.json"]),
        ("extract", ["--input", "h.json", "--report", "r.json"]),
        ("reduce-sphere", ["--sparse", "s.json"]),
        ("reduce-polytope", ["--sparse", "s.json", "--preset", "box"]),
        ("solve", ["--objective", "p.json", "--domain", "ball"]),
        ("approx", ["--input", "h.json"]),
        ("pipeline", ["--input", "h.json", "--domain", "sphere"]),
        ("gen", ["--n", "3", "--m", "1"]),
    ]
    # --tol is no command's option: the descents have one stop rule, relative
    # to the objective's scale
    for option in ["--seed", "--rank-tol", "--tol", "--starts", "--max-iter"]
    if option not in COMMAND_OPTIONS[command]
])
def test_option_a_command_does_not_read_exits_2(tmp_path, argv):
    assert _rejected(argv, tmp_path / "o")


def test_solve_half_exits_2(tmp_path):
    obj = tmp_path / "p.json"
    obj.write_text(json.dumps({"num_vars": 2, "terms": [{"exp": [0, 1], "coef": 1.0}]}))
    assert _rejected(["solve", "--objective", obj, "--domain", "sphere",
                      "--half", "y_nonneg"], tmp_path / "o")


@pytest.mark.parametrize("argv", [
    ["approx"],
    ["pipeline", "--domain", "sphere"],
    ["pipeline", "--domain", "simplex"],
    ["pipeline", "--domain", "box"],
    ["pipeline", "--domain", "polytope"],
], ids=["approx", "sphere", "simplex", "box", "polytope"])
def test_one_variable_approx_route_exits_2(tmp_path, argv):
    # nonconstant in n = 1: detection finds m = n, which only the approx route takes
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"num_vars": 1, "terms": [
        {"exp": [2], "coef": 1.0}, {"exp": [1], "coef": -0.5}]}))
    polytope = _polytope_files(tmp_path, [[1.0]], [1.0]) if "polytope" in argv else []
    assert _rejected(argv + ["--input", h] + polytope, tmp_path / "o")


@pytest.mark.parametrize("domain", ["simplex", "box", "polytope"])
def test_approx_route_off_the_sphere_exits_2(tmp_path, perturbed_instance, domain):
    # problem Q lives on the sphere; its minimum says nothing about this domain
    polytope = _polytope_files(tmp_path, [[1.0] * 4], [1.0]) if domain == "polytope" else []
    assert _rejected(["pipeline", "--input", perturbed_instance, "--domain", domain]
                     + polytope, tmp_path / "o")


@pytest.mark.parametrize("domain", ["sphere", "simplex", "box", "polytope"])
def test_pipeline_on_zero_variables_exits_2(tmp_path, domain):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"num_vars": 0, "terms": [{"exp": [], "coef": 1.0}]}))
    polytope = _polytope_files(tmp_path, [[1.0]], [1.0]) if domain == "polytope" else []
    assert _rejected(["pipeline", "--input", h, "--domain", domain] + polytope, tmp_path / "o")


def test_pipeline_unknown_domain_exits_2(tmp_path, sparse_instance):
    # --domain ball with --A and --b once solved over the polytope and
    # reported route "exact/ball"
    polytope = _polytope_files(tmp_path, [[1.0] * 5], [1.0])
    assert _rejected(["pipeline", "--input", sparse_instance, "--domain", "ball"] + polytope,
                     tmp_path / "o")


def test_box_route_reaches_the_minimum(tmp_path):
    gen = tmp_path / "gen"
    assert run(["gen", "--seed", 42, "--n", 6, "--m", 2, "--degree", 3, "--out", gen]) == 0
    out = tmp_path / "out"
    assert run(["pipeline", "--input", gen / "h.json", "--domain", "box", "--out", out]) == 0
    report = read(out / "report.json")
    assert report["route"] == "exact/box" and report["converged"]
    assert report["rho"] <= -0.7081964 + 1e-6


def test_cubature_rule_is_built_at_the_degree_of_h(tmp_path, perturbed_instance, monkeypatch):
    from lowform.approx import build_cubature

    calls = _spy(monkeypatch, build_cubature)
    out = tmp_path / "out"
    assert run(["approx", "--input", perturbed_instance, "--m", 2, "--path", "cubature",
                "--out", out]) == 0
    assert read(out / "report.json")["path"] == "cubature"
    degree = Polynomial.from_json_dict(read(perturbed_instance)).degree()
    assert [args[:2] for args, _ in calls] == [(2, degree)]


def test_approx_route_falls_back_to_the_exact_path_without_a_cubature_rule(
    tmp_path, perturbed_instance, monkeypatch
):
    # a test double of build_cubature that raises CubatureConstructionError,
    # as when no rule reaches tolerance: the request answers by the exact path
    from lowform.approx import CubatureConstructionError

    def no_rule(*args, **kwargs):
        raise CubatureConstructionError("no rule reaches tolerance")

    monkeypatch.setattr("lowform.cli.build_cubature", no_rule)
    cubature, exact = tmp_path / "cubature", tmp_path / "exact"
    assert run(["approx", "--input", perturbed_instance, "--m", 2, "--path", "cubature",
                "--out", cubature]) == 0
    assert run(["approx", "--input", perturbed_instance, "--m", 2, "--path", "exact",
                "--out", exact]) == 0
    report = read(cubature / "report.json")
    assert report["path"] == "exact"
    assert report == read(exact / "report.json")


@pytest.mark.parametrize("argv", [
    ["approx"],
    ["approx", "--m", "2"],
    ["approx", "--path", "cubature"],
    ["pipeline", "--domain", "sphere"],
])
def test_one_moment_matrix_per_request(tmp_path, perturbed_instance, monkeypatch, argv):
    from lowform.detection import moment_matrix

    calls = _spy(monkeypatch, moment_matrix)
    out = tmp_path / "out"
    assert run(argv[:1] + ["--input", perturbed_instance] + argv[1:]
               + ["--out", out]) == 0
    assert len(calls) == 1
    if argv[0] == "pipeline":
        assert read(out / "report.json")["route"] == "approx"


@pytest.mark.parametrize("argv", [
    ["approx", "--path", "exact"],
    ["approx", "--path", "cubature"],
    ["pipeline", "--domain", "sphere"],
], ids=["approx-exact", "approx-cubature", "pipeline"])
def test_one_sphere_solve_per_approx_request(tmp_path, perturbed_instance, monkeypatch, argv):
    # problem Q, the surrogate's sphere problem, runs as one ball solve
    from lowform.solvers import minimize_ball, minimize_sphere

    ball_calls = _spy(monkeypatch, minimize_ball)
    sphere_calls = _spy(monkeypatch, minimize_sphere)
    out = tmp_path / "out"
    assert run(argv[:1] + ["--input", perturbed_instance] + argv[1:]
               + ["--out", out]) == 0
    assert len(ball_calls) == 1 and not sphere_calls
    if argv[0] == "pipeline":
        assert read(out / "report.json")["route"] == "approx"


@pytest.mark.parametrize("argv", [
    ["approx", "--path", "exact"],
    ["approx", "--path", "cubature"],
    ["pipeline", "--domain", "sphere"],
], ids=["approx-exact", "approx-cubature", "pipeline"])
def test_one_ball_polynomial_per_approx_request(tmp_path, perturbed_instance, monkeypatch, argv):
    # problem Q minimizes B = fhat.to_ball_polynomial(), and the L2 error
    # composes that same B with the head frame rather than building it again
    from lowform.solvers import minimize_ball

    ball_calls = _spy(monkeypatch, minimize_ball)
    composed = []
    compose = Polynomial.compose
    monkeypatch.setattr(Polynomial, "compose",
                        lambda self, *args: composed.append(self) or compose(self, *args))
    assert run(argv[:1] + ["--input", perturbed_instance] + argv[1:]
               + ["--out", tmp_path / "out"]) == 0
    [((ball, *_), _)] = ball_calls
    assert any(p is ball for p in composed)


def test_reports_are_deterministic(tmp_path, sparse_instance):
    a, b = tmp_path / "ra", tmp_path / "rb"
    run(["pipeline", "--input", sparse_instance, "--domain", "sphere", "--out", a])
    run(["pipeline", "--input", sparse_instance, "--domain", "sphere", "--out", b])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("case", ["case_sphere", "case_approx", "case_simplex"])
def test_golden_reports(tmp_path, case):
    case_dir = os.path.join(GOLDEN_DIR, case)
    with open(os.path.join(case_dir, "args.json")) as fh:
        spec = json.load(fh)
    gen_out = tmp_path / "gen"
    assert run(spec["gen"] + ["--out", gen_out]) == 0
    with open(os.path.join(case_dir, "h.json"), "rb") as fh:
        assert fh.read() == (gen_out / "h.json").read_bytes()
    run_out = tmp_path / "run"
    argv = [a if a != "__H__" else str(gen_out / "h.json") for a in spec["cmd"]]
    assert run(argv + ["--out", run_out]) == spec["exit"]
    with open(os.path.join(case_dir, "report.json"), "rb") as fh:
        assert fh.read() == (run_out / "report.json").read_bytes()


def test_pipeline_exact_sphere_route_out_of_iterations_exits_4(tmp_path):
    # case_sphere's h on its exact sphere route, one step per start: exit 4,
    # and the partial report and the manifest are still written
    out = tmp_path / "run"
    h = os.path.join(GOLDEN_DIR, "case_sphere", "h.json")
    assert run(["pipeline", "--input", h, "--domain", "sphere", "--max-iter", 1,
                "--out", out]) == 4
    report = read(out / "report.json")
    assert report["route"] == "exact/sphere" and np.isfinite(report["rho"])
    assert read(out / "manifest.json")["command"] == "pipeline"


def test_approx_cubature_l2_error_scales_with_h(tmp_path):
    # The cubature rule's odd moments are rounding noise, so the surrogate of
    # a large h carries odd-Y coefficients far above any absolute tolerance;
    # relative to fhat they stay noise.
    with open(os.path.join(GOLDEN_DIR, "case_approx", "h.json")) as fh:
        h = json.load(fh)
    values = {}
    for scale in (1.0, 1e10):
        path = tmp_path / f"h{scale:g}.json"
        path.write_text(json.dumps({"num_vars": h["num_vars"], "terms": [
            {"exp": t["exp"], "coef": t["coef"] * scale} for t in h["terms"]]}))
        out = tmp_path / f"out{scale:g}"
        assert run(["approx", "--input", path, "--path", "cubature", "--out", out]) == 0
        report = read(out / "report.json")
        assert report["path"] == "cubature"
        values[scale] = report["l2_error"]["value"]
    assert values[1e10] == pytest.approx(1e20 * values[1.0], rel=1e-12)


_SCIPY_GUARD = r"""
import json, os, sys
import lowform.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3]

golden, out = sys.argv[1], sys.argv[2]
assert not scipy_loaded(), scipy_loaded()
for case in ("case_sphere", "case_simplex", "case_approx"):
    with open(os.path.join(golden, case, "args.json")) as fh:
        cmd = json.load(fh)["cmd"]
    h = os.path.join(golden, case, "h.json")
    argv = [h if arg == "__H__" else arg for arg in cmd]
    assert cli.main(argv + ["--out", os.path.join(out, case)]) == 0, case
    assert not scipy_loaded(), (case, scipy_loaded())
h = os.path.join(golden, "case_approx", "h.json")
assert cli.main(["approx", "--input", h, "--path", "cubature",
                 "--out", os.path.join(out, "cubature")]) == 0
assert not scipy_loaded(), ("cubature", scipy_loaded())
assert cli.main(["detect", "--input", h, "--method", "randomized",
                 "--out", os.path.join(out, "detect")]) == 0
assert not scipy_loaded(), ("randomized detection", scipy_loaded())
# the control: a row-rank-deficient A has no vertex table, so a phase-one
# LP checks its polytope (the simplex, twice over) nonempty
a, b = os.path.join(out, "A.json"), os.path.join(out, "b.json")
with open(a, "w") as fh:
    json.dump([[1.0] * 5, [2.0] * 5], fh)
with open(b, "w") as fh:
    json.dump([1.0, 2.0], fh)
assert cli.main(["pipeline", "--input", os.path.join(golden, "case_simplex", "h.json"),
                 "--domain", "polytope", "--A", a, "--b", b,
                 "--out", os.path.join(out, "deficient")]) == 0
assert "scipy.optimize" in sys.modules
"""


def _run_fresh(script: str, *args) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports this tree's lowform."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["lowform"].__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_golden_requests_never_load_scipy(tmp_path):
    # scipy is imported only where an LP (or qhull) runs: a fresh
    # interpreter answers the three golden requests, a cubature request and
    # a randomized detection without it, and a polytope request that needs
    # a phase-one LP still loads it
    done = _run_fresh(_SCIPY_GUARD, GOLDEN_DIR, tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.fixture()
def concave_polytope_request(tmp_path):
    """h(x) = c . X - |X|^2 with X = L^T x, concave, so its minimum over a
    polytope sits at a vertex: the h file, its sparse form from detect and
    extract, and the --A and --b options of a random polytope."""
    n = 5
    rng = np.random.default_rng(11)
    lin, c = rng.standard_normal((n, 2)), rng.standard_normal(2)
    h = Polynomial.zero(n)
    for k in range(2):
        form = Polynomial.zero(n)
        for i in range(n):
            form = form + Polynomial.variable(n, i) * float(lin[i, k])
        h = h + form * float(c[k]) - form * form
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json_dict()))
    assert run(["detect", "--input", path, "--out", tmp_path / "det"]) == 0
    assert run(["extract", "--input", path, "--report", tmp_path / "det" / "report.json",
                "--out", tmp_path / "ext"]) == 0
    a = np.vstack([np.ones((1, n)), rng.uniform(0.0, 1.0, (2, n))])
    b = a @ rng.dirichlet(np.ones(n))
    return path, tmp_path / "ext" / "report.json", _polytope_files(tmp_path, a.tolist(), b.tolist())


def test_reduce_polytope_answers_as_the_pipeline(tmp_path, concave_polytope_request):
    # both commands take the vertex table's route: the same numbers, no cuts
    h, sparse, polytope = concave_polytope_request
    pipe, reduced = tmp_path / "pipe", tmp_path / "reduced"
    assert run(["pipeline", "--input", h, "--domain", "polytope"] + polytope
               + ["--out", pipe]) == 0
    assert run(["reduce-polytope", "--sparse", sparse] + polytope + ["--out", reduced]) == 0
    want, got = read(pipe / "report.json"), read(reduced / "report.json")
    assert want["route"] == "exact/polytope"
    for key in ("rho", "X_star", "witness", "iterations", "converged"):
        assert got[key] == want[key], key
    assert got["cuts"] == [] and got["converged"]


def _polytope_request(command, request):
    h, sparse, _ = request
    if command == "pipeline":
        return ["pipeline", "--input", h, "--domain", "polytope"]
    return ["reduce-polytope", "--sparse", sparse]


@pytest.mark.parametrize("command", ["pipeline", "reduce-polytope"])
@pytest.mark.parametrize("a, b, code", [
    ([[1.0, float("nan"), 1.0, 1.0, 1.0]], [1.0], 2),
    ([[1.0] * 5], [float("inf")], 2),
    ([[1.0] * 5, [0.0, 1.0, 0.0, 0.0, 0.0]], [1.0], 2),
    ([[1.0] * 4], [1.0], 2),
    ([[1.0] * 5], [-1.0], 3),
], ids=["nan-in-A", "inf-in-b", "rows-unlike-b", "columns-unlike-h", "empty"])
def test_malformed_polytope_exits_2_and_empty_exits_3(tmp_path, concave_polytope_request,
                                                      command, a, b, code):
    h, sparse, _ = concave_polytope_request
    argv = (["pipeline", "--input", h, "--domain", "polytope"] if command == "pipeline"
            else ["reduce-polytope", "--sparse", sparse])
    out = tmp_path / "o"
    assert run(argv + _polytope_files(tmp_path, a, b) + ["--out", out]) == code
    assert not (out / "report.json").exists()


def test_manifest_keys_inputs_by_their_paths(tmp_path, concave_polytope_request):
    # --A x/m.json and --b y/m.json share a basename but are two inputs
    h, _, polytope = concave_polytope_request
    a_path, b_path = tmp_path / "x" / "m.json", tmp_path / "y" / "m.json"
    for path, source in [(a_path, polytope[1]), (b_path, polytope[3])]:
        path.parent.mkdir()
        path.write_bytes(source.read_bytes())
    out = tmp_path / "out"
    assert run(["pipeline", "--input", h, "--domain", "polytope", "--A", a_path, "--b", b_path,
                "--out", out]) == 0
    want = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (h, a_path, b_path)}
    assert read(out / "manifest.json")["inputs"] == want


@pytest.fixture()
def staged_files(tmp_path, sparse_instance):
    """Inputs of every command: h, its detection report and sparse form, and
    a polynomial objective."""
    det, ext = tmp_path / "det", tmp_path / "ext"
    assert run(["detect", "--input", sparse_instance, "--out", det]) == 0
    assert run(["extract", "--input", sparse_instance, "--report", det / "report.json",
                "--out", ext]) == 0
    objective = tmp_path / "p.json"
    objective.write_text(json.dumps({"num_vars": 2, "terms": [
        {"exp": [1, 0], "coef": 1.0}, {"exp": [0, 2], "coef": -1.0}]}))
    return {"h": sparse_instance, "det": det / "report.json", "ext": ext / "report.json",
            "p": objective}


# command -> (arguments with file keys of staged_files, input keys, seed)
REQUESTS = {
    "gen": (["--n", 3, "--m", 1, "--seed", 3], [], 3),
    "detect": (["--input", "h", "--seed", 3], ["h"], 3),
    "extract": (["--input", "h", "--report", "det", "--seed", 3], ["h", "det"], 3),
    "reduce-sphere": (["--sparse", "ext"], ["ext"], None),
    "reduce-polytope": (["--sparse", "ext", "--preset", "simplex", "--seed", 3], ["ext"], 3),
    "solve": (["--objective", "p", "--domain", "ball", "--seed", 3], ["p"], 3),
    "approx": (["--input", "h", "--m", 1, "--seed", 3], ["h"], 3),
    "pipeline": (["--input", "h", "--domain", "sphere", "--seed", 3], ["h"], 3),
}


@pytest.mark.parametrize("command", list(REQUESTS))
def test_every_command_prints_its_report_and_writes_a_manifest(tmp_path, staged_files, capsys,
                                                               command):
    argv, input_keys, seed = REQUESTS[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command] + [staged_files.get(a, a) for a in argv] + ["--out", out]) == 0
    assert capsys.readouterr().out == (out / "report.json").read_text()
    manifest = read(out / "manifest.json")
    inputs = [out / "h.json"] if command == "gen" else [staged_files[k] for k in input_keys]
    assert manifest["command"] == command and manifest["seed"] == seed
    assert manifest["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in inputs}
    assert isinstance(manifest["wall_time_s"], float) and manifest["wall_time_s"] >= 0.0


def test_nonconvergent_request_prints_and_writes_its_partial_report(tmp_path, capsys):
    hard = tmp_path / "q.json"
    hard.write_text(json.dumps({"num_vars": 2, "terms": [
        {"exp": [4, 0], "coef": 1.0}, {"exp": [0, 3], "coef": -2.0},
        {"exp": [1, 1], "coef": 0.7}]}))
    out = tmp_path / "out"
    assert run(["solve", "--objective", hard, "--domain", "sphere", "--max-iter", 1,
                "--starts", 1, "--out", out]) == 4
    assert capsys.readouterr().out == (out / "report.json").read_text()
    assert read(out / "report.json")["status"] == "max_iter"
    assert read(out / "manifest.json")["command"] == "solve"


def test_option_error_prints_and_writes_nothing(tmp_path, staged_files, capsys):
    out = tmp_path / "out"
    assert run(["solve", "--objective", staged_files["p"], "--domain", "ball",
                "--starts", 0, "--out", out]) == 2
    assert capsys.readouterr().out == "" and not out.exists()


_REDUCE_POLYTOPE_GUARD = r"""
import sys
import lowform.cli as cli

assert cli.main(sys.argv[1:]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3]
assert not loaded, loaded
"""


def test_reduce_polytope_request_never_loads_scipy(tmp_path, concave_polytope_request):
    # the vertex table answers a concave request over --A and --b: no LP
    _, sparse, polytope = concave_polytope_request
    done = _run_fresh(_REDUCE_POLYTOPE_GUARD, "reduce-polytope", "--sparse", sparse,
                      *polytope, "--out", tmp_path / "out")
    assert done.returncode == 0, done.stderr
