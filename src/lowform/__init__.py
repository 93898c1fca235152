"""lowform: detect and exploit few-linear-forms structure in polynomials."""

from .approx import (
    CubatureRule,
    LiftedPolynomial,
    SpectrumSplit,
    SurrogateMinimum,
    build_cubature,
    choose_m,
    conditional_expectation_cubature,
    conditional_expectation_exact,
    l2_error,
    solve_Q,
    split_spectrum,
)
from .detection import (
    DetectionReport,
    SparseForm,
    detect_exact,
    detect_randomized,
    extract_sparse_form,
    gradient_spectrum,
    moment_matrix,
    verify_sparse_form,
)
from .generate import Instance, generate_instance
from .linalg import (
    LpProblem,
    LpResult,
    SymEig,
    lp_solve,
    numeric_rank,
    orthonormalize,
    sym_eig,
)
from .poly import Polynomial
from .polytope import (
    Cut,
    Polytope,
    PolytopeReduceResult,
    box_reduce,
    cut_loop,
    separation_lp,
    simplex_reduce,
    vertex_reduce,
)
from .solvers import (
    Hrep,
    SolveOptions,
    SolveResult,
    VertexTable,
    minimize_ball,
    minimize_polytope,
    minimize_sphere,
    minimize_zonotope,
)
from .sphere import ReducedBallProblem, lift_minimizer, reduce_sphere

__version__ = "0.1.0"
