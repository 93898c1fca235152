"""Identities between routes: one route checks another where no brute-force
oracle reaches."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowform.cli import main
from lowform.detection import SparseForm, detect_exact, extract_sparse_form, gradient_spectrum
from lowform.generate import generate_instance
from lowform.poly import Polynomial
from lowform.polytope import Polytope, box_reduce, vertex_reduce
from lowform.solvers import SolveOptions


def _box_twin(sf: SparseForm, opts: SolveOptions) -> float:
    """rho of the box problem in standard form: on {(u, v) >= 0 : u + v = 1}
    the point x = u - v runs over [-1, 1]^n, so h(x) = f(ell^T x) is
    f([ell; -ell]^T (u, v)), minimized by :func:`vertex_reduce`."""
    n = sf.ell.shape[0]
    twin = SparseForm(f=sf.f, ell=np.vstack([sf.ell, -sf.ell]))
    return vertex_reduce(twin, Polytope(np.hstack([np.eye(n), np.eye(n)]), np.ones(n)), opts).rho


def _assert_box_equals_its_twin(sf: SparseForm, opts: SolveOptions):
    rho = box_reduce(sf, opts).rho
    assert abs(rho - _box_twin(sf, opts)) <= 1e-9 * max(1.0, abs(rho))


def test_box_of_the_seed_9_request_equals_its_standard_form_twin():
    # the request `gen --seed 9 --n 5 --m 2 --degree 3`, detected and
    # extracted as the CLI does, at default options
    h = generate_instance(9, 5, 2, 3).h
    sf = extract_sparse_form(h, detect_exact(gradient_spectrum(h)).basis)
    _assert_box_equals_its_twin(sf, SolveOptions())


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 2),
    extra=st.integers(0, 3),
    degree=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
@example(m=2, extra=3, degree=3, seed=9)
def test_box_equals_its_standard_form_twin(m, extra, degree, seed):
    inst = generate_instance(seed, m + extra, m, degree)
    _assert_box_equals_its_twin(SparseForm(f=inst.f0, ell=inst.ell0), SolveOptions(seed=seed))


def _pipeline(h: Polynomial, domain: str) -> tuple[dict, int]:
    """The report and exit code of ``pipeline --domain`` on h, at default
    options."""
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work) / "h.json", Path(work) / "out"
        path.write_text(json.dumps(h.to_json_dict()))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["pipeline", "--input", str(path), "--domain", domain, "--out", str(out)])
        return json.loads((out / "report.json").read_text()), code


@settings(max_examples=24, deadline=None)
@given(
    shape=st.sampled_from([(6, 2, 4), (6, 2, 3), (5, 2, 3)]),
    route=st.sampled_from(["exact/sphere", "exact/simplex", "exact/box", "approx"]),
    c=st.sampled_from([-3.0, 0.5, 10.0]),
    seed=st.integers(0, 7),
)
@example(shape=(6, 2, 4), route="approx", c=10.0, seed=0)
@example(shape=(5, 2, 3), route="exact/simplex", c=-3.0, seed=1)
def test_constant_shift_shifts_rho(shape, route, c, seed):
    # h + c has the gradients of h, so every route reduces it alike and its
    # minimum is rho + c: the exact routes at epsilon = 0, the approx route
    # on the sphere at epsilon = 0.05
    n, m, degree = shape
    h = generate_instance(seed, n, m, degree, 0.05 if route == "approx" else 0.0).h
    domain = "sphere" if route == "approx" else route.split("/")[1]
    base, code = _pipeline(h, domain)
    assert base["route"] == route
    shifted, shifted_code = _pipeline(h + Polynomial.constant(n, c), domain)
    assert (shifted["route"], shifted_code) == (route, code)
    want = base["rho"] + c
    assert abs(shifted["rho"] - want) <= 1e-12 * max(1.0, abs(want))
