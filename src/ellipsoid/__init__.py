"""Ellipsoid-method feasibility solver for systems of linear inequalities.

Given constraints ``a_i^T x >= b_i`` and a radius R such that a feasible
point (if one exists) lies in the ball of radius R about the origin, the
solver either returns a feasible point or certifies that any feasible
region inside that ball has volume below a chosen threshold.  Each
iteration cuts the current ellipsoid through its center with a violated
row and replaces it by the smallest ellipsoid covering the feasible half,
shrinking the volume by a fixed dimension-dependent factor.

Layout:

- :mod:`ellipsoid.linalg`   dense symmetric kernels (Cholesky, PD solves)
- :mod:`ellipsoid.engine`   ellipsoid state and the central-cut update
- :mod:`ellipsoid.solver`   the cutting loop, outcomes, certification
- :mod:`ellipsoid.oracle`   exact ground truth for small instances
- :mod:`ellipsoid.problems` problem-file parsing / serialization
- :mod:`ellipsoid.svgplot`  2-D SVG rendering of the ellipse sequence
- :mod:`ellipsoid.cli`      the ``ellipsoid-solve`` command
"""

from .engine import (
    CONTAINMENT_SLACK,
    Cut,
    DegenerateCutError,
    EllipsoidState,
    PDLostError,
    ball,
    central_cut_update,
    contains,
    log_unit_ball_volume,
    log_volume_from_shape,
    step_log_ratio,
    unit_ball,
)
from .linalg import (
    NotPositiveDefiniteError,
    cholesky,
    log_det_pd,
    mat_vec,
    quadratic_form,
    rank1_downdate,
    solve_pd,
    symmetrize,
)
from .oracle import (
    FeasibleWitness,
    Inconclusive,
    Infeasible,
    OracleVerdict,
    grid_feasibility_scan,
    vertex_enumeration_check,
)
from .problems import (
    ProblemConstraint,
    ProblemFile,
    ProblemFormatError,
    parse_problem,
    serialize_problem,
    to_linear_system,
)
from .solver import (
    CertReport,
    Constraint,
    Feasible,
    IterationCapReached,
    LinearSystem,
    NumericalBreakdown,
    SolveOutcome,
    SolverConfig,
    TraceRecord,
    VolumeExhausted,
    certify,
    find_violated,
    iteration_cap,
    solve,
)
from .svgplot import ellipse_axes, emit_svg_trace

__version__ = "0.1.0"

__all__ = [
    "CONTAINMENT_SLACK",
    "CertReport",
    "Constraint",
    "Cut",
    "DegenerateCutError",
    "EllipsoidState",
    "Feasible",
    "FeasibleWitness",
    "Inconclusive",
    "Infeasible",
    "IterationCapReached",
    "LinearSystem",
    "NotPositiveDefiniteError",
    "NumericalBreakdown",
    "OracleVerdict",
    "PDLostError",
    "ProblemConstraint",
    "ProblemFile",
    "ProblemFormatError",
    "SolveOutcome",
    "SolverConfig",
    "TraceRecord",
    "VolumeExhausted",
    "ball",
    "central_cut_update",
    "certify",
    "cholesky",
    "contains",
    "ellipse_axes",
    "emit_svg_trace",
    "find_violated",
    "grid_feasibility_scan",
    "iteration_cap",
    "log_det_pd",
    "log_unit_ball_volume",
    "log_volume_from_shape",
    "mat_vec",
    "parse_problem",
    "quadratic_form",
    "rank1_downdate",
    "serialize_problem",
    "solve",
    "solve_pd",
    "step_log_ratio",
    "symmetrize",
    "to_linear_system",
    "unit_ball",
    "vertex_enumeration_check",
]
