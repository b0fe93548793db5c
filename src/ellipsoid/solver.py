"""Feasibility solver for systems of linear inequalities a_i^T x >= b_i.

The solver localizes a feasible point inside a bounding ball of radius R
around the origin: start from that ball, and as long as the current center
violates some constraint, cut through the center with the most violated
row's normal (the row whose hyperplane lies farthest from the center) and
replace the ellipsoid by the central-cut update.  It stops
with ``Feasible`` when a center satisfies every row, or with
``VolumeExhausted`` once the ellipsoid volume drops below ``epsilon`` -- at
that point any feasible region inside the bounding ball has volume below
``epsilon``.  Whether that certifies infeasibility is the caller's call (it
depends on how R and epsilon were chosen), so the outcome carries the
certificate data and nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .engine import (
    VOLUME_AUDIT_TOL,
    DegenerateCutError,
    as_vector,
    ball,
    central_cut_update,
    log_volume_drift,
    quadratic_form,
)

DEFAULT_VIOLATION_TOL = 1e-9


class NumericalBreakdown(ArithmeticError):
    """Cut update failed numerically; ``iteration`` is the failing step."""

    def __init__(self, iteration: int, reason: str):
        super().__init__(f"numerical breakdown at iteration {iteration}: {reason}")
        self.iteration = iteration
        self.reason = reason


@dataclass(frozen=True)
class Constraint:
    """One row a^T x >= b.  Rows given as <= must be negated before this."""

    normal: np.ndarray
    bound: float

    def __post_init__(self):
        normal = as_vector(self.normal).copy()
        # a.a > 0 decides as np.linalg.norm(a) > 0 does: the norm is its root.
        # vdot runs the same ddot as ndarray.dot but raises no overflow
        # warning when a.a is inf, which is still > 0.
        if not np.vdot(normal, normal) > 0.0:
            raise ValueError("constraint normal must be nonzero")
        if not math.isfinite(self.bound):
            raise ValueError("constraint bound must be finite")
        normal.flags.writeable = False
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "bound", float(self.bound))

    @classmethod
    def from_row(cls, a, b: float, sense: str = ">=") -> "Constraint":
        """Build from a row in either sense; "<=" rows are negated."""
        if sense == ">=":
            return cls(np.asarray(a, dtype=float), b)
        if sense == "<=":
            return cls(-np.asarray(a, dtype=float), -b)
        raise ValueError(f'sense must be ">=" or "<=", got {sense!r}')


def _frozen_constraint(normal: np.ndarray, bound: float) -> Constraint:
    """Wrap a read-only 1-D float normal with finite entries and a.a > 0,
    and a finite float bound, without the constructor's checks and copy."""
    con = object.__new__(Constraint)
    object.__setattr__(con, "normal", normal)
    object.__setattr__(con, "bound", bound)
    return con


@dataclass(frozen=True)
class LinearSystem:
    """m constraints in dimension n plus the bounding-ball radius R.

    A feasible point, if any exists, is assumed to lie inside the ball of
    radius R about the origin (R = U * sqrt(n) when each coordinate is known
    to be bounded by U in magnitude).
    """

    dim: int
    constraints: tuple[Constraint, ...]
    radius: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        # A square of 0 would leave the ball's shape R^2 I without a factor.
        if not (self.radius > 0.0 and 0.0 < self.radius * self.radius < math.inf):
            raise ValueError(
                f"radius must be positive with a nonzero, finite square, got {self.radius}"
            )
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for i, con in enumerate(self.constraints):
            if con.normal.size != self.dim:
                raise ValueError(
                    f"constraint {i} has length {con.normal.size}, expected {self.dim}"
                )


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration solve record.

    Cut records carry the violated row, the post-cut center, shape matrix and
    log-volume, and a^T K a of the cut.  The terminal feasible record has
    ``violated_index`` and ``cut_quadratic_form`` set to None and holds the
    final center and shape.  ``shape`` is the state's own read-only J J^T,
    formed once per record; :meth:`as_dict` leaves it out.
    """

    iter: int
    violated_index: Optional[int]
    center: list[float]
    log_volume: float
    cut_quadratic_form: Optional[float]
    shape: np.ndarray = field(repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "iter": self.iter,
            "violated_index": self.violated_index,
            "center": self.center,
            "log_volume": self.log_volume,
            "cut_quadratic_form": self.cut_quadratic_form,
        }


@dataclass
class SolverConfig:
    epsilon: float
    max_iterations: Optional[int] = None
    violation_tolerance: float = DEFAULT_VIOLATION_TOL
    trace: Optional[Callable[[TraceRecord], None]] = None

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not self.violation_tolerance >= 0.0:
            raise ValueError("violation_tolerance must be >= 0")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")


@dataclass(frozen=True)
class Feasible:
    point: np.ndarray
    iterations: int


@dataclass(frozen=True)
class VolumeExhausted:
    final_log_volume: float
    iterations: int


@dataclass(frozen=True)
class IterationCapReached:
    iterations: int


SolveOutcome = Union[Feasible, VolumeExhausted, IterationCapReached]


def row_tolerance(tol: float, bound: float) -> float:
    """Per-row slack tolerance, scaled with the bound's magnitude."""
    return tol * (1.0 + abs(bound))


def _stacked_normals(sys: LinearSystem) -> np.ndarray:
    """The rows' normals as one read-only m x n array.

    Each normal is a contiguous float64 vector (a copy, or a row of the
    array a problem file was read into), so joining their bytes gives the
    rows in order.
    """
    normals = b"".join([con.normal for con in sys.constraints])
    return np.frombuffer(normals).reshape(len(sys.constraints), sys.dim)


class _PackedRows:
    """The rows of a system as arrays, for one solve.

    ``A`` is m x n and ``floor`` holds ``b - tol*(1+|b|)`` per row, so a
    point x violates row i exactly when ``(A @ x)[i] < floor[i]``.
    ``inv_norm`` holds 1/||a_i||, which turns a row's violation into the
    distance from x to its hyperplane; ``norms=False`` leaves it None for a
    caller that only tests the rows.  The arrays are built per call and never
    kept on the :class:`LinearSystem`, which stays a tuple of rows.
    ``constraints`` and ``dim`` are those of the packed system.
    """

    __slots__ = ("constraints", "dim", "A", "floor", "inv_norm")

    def __init__(self, sys: LinearSystem, tol: float, norms: bool = True):
        cons = self.constraints = sys.constraints
        self.dim = sys.dim
        A = self.A = _stacked_normals(sys)
        b = np.array([con.bound for con in cons], dtype=float)
        self.floor = b - tol * (1.0 + np.abs(b))
        # Constraint checks a.a > 0, so each entry is finite; it is 0 only
        # where a.a overflows.
        self.inv_norm = 1.0 / np.sqrt(np.einsum("ij,ij->i", A, A)) if norms else None


def find_violated(
    sys: LinearSystem | _PackedRows, x, tol: float = DEFAULT_VIOLATION_TOL
) -> Optional[tuple[int, Constraint]]:
    """The most violated constraint at ``x``, or None if every row holds.

    Row i is violated when a^T x < b - tol*(1+|b|).  Among the violated rows
    this returns the one whose hyperplane lies farthest from ``x``: the
    largest ``(b - tol*(1+|b|) - a^T x) / ||a||``, the lowest index on a tie.

    ``sys`` may be a :class:`LinearSystem`, packed and ``x`` validated here
    for this call, or the solve loop's rows, packed with its ``tol``, which
    it passes with its own (already valid) center.
    """
    if isinstance(sys, _PackedRows):
        rows, point = sys, x
    else:
        rows, point = _PackedRows(sys, tol), as_vector(x, sys.dim)
    # depth > 0 exactly where A @ x < floor: IEEE subtraction of unequal
    # floats never rounds to 0.  ndarray.dot is A @ x without the gufunc
    # dispatch; the sign of a zero, where a 1 x 1 product may differ (see
    # engine), decides nothing here.
    depth = rows.floor - rows.A.dot(point)
    if not depth.size:
        return None
    scaled = depth * rows.inv_norm
    # argmax takes the first of equal maxima, and the first NaN if any.
    i = int(scaled.argmax())
    if not scaled[i] > 0.0:
        # No row is violated, or a scaled depth is NaN (an overflowed
        # product) or 0 (underflowed): pick among the violated rows
        # themselves, on the raw depth if none has a positive scaled one.
        hit = np.flatnonzero(depth > 0.0)
        if not hit.size:
            return None
        j = int(scaled[hit].argmax())
        if not scaled[hit[j]] > 0.0:
            j = int(depth[hit].argmax())
        i = int(hit[j])
    return i, sys.constraints[i]


def iteration_cap(n: int, log_v0: float, epsilon: float) -> int:
    """ceil(2(n+1) * ln(V0/epsilon)), at least 1.

    Each cut multiplies the volume by at most exp(-1/(2(n+1))), so after
    this many cuts the volume is guaranteed below epsilon.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return max(1, math.ceil(2.0 * (n + 1) * (log_v0 - math.log(epsilon))))


def _interval_end(a: float, floor: float) -> float:
    """floor/a, moved by ulps until a*x >= floor holds in floats.

    Rounding keeps a*x monotone in x, so the row then also passes at every
    float beyond the returned end (above it for a > 0, below for a < 0).
    """
    toward = math.inf if a > 0.0 else -math.inf
    x = floor / a
    while not a * x >= floor:
        x = math.nextafter(x, toward)
    return x


def _solve_interval(sys: LinearSystem, cfg: SolverConfig) -> SolveOutcome:
    # 1-D fallback: a row passes at x when a*x >= b - tol*(1+|b|), the
    # predicate find_violated separates on, so each row is a half-line of
    # floats; intersect them within [-R, R].
    lo, hi = -sys.radius, sys.radius
    for con in sys.constraints:
        a = float(con.normal[0])
        end = _interval_end(a, con.bound - row_tolerance(cfg.violation_tolerance, con.bound))
        if a > 0.0:
            lo = max(lo, end)
        else:
            hi = min(hi, end)
    if lo <= hi:
        return Feasible(np.array([0.5 * (lo + hi)]), 0)
    return VolumeExhausted(-math.inf, 0)


def _audit_volume(state, cuts: int) -> None:
    drift = log_volume_drift(state)
    if not drift <= VOLUME_AUDIT_TOL:
        raise NumericalBreakdown(cuts, (
            f"volume audit: the running log-volume is {drift:.3g} nats from "
            f"ln|det J| (tolerance {VOLUME_AUDIT_TOL:g})" if drift < math.inf
            else "volume audit: det J is 0 or not finite"))


def solve(sys: LinearSystem, cfg: SolverConfig) -> SolveOutcome:
    """Run the cutting loop from the bounding ball.

    Returns ``Feasible`` (center satisfying every row within tolerance),
    ``VolumeExhausted`` (log-volume fell below ln epsilon), or
    ``IterationCapReached`` (user-set cap hit first).  Raises
    :class:`NumericalBreakdown` if a cut update fails numerically, or if
    ``ln|det J|`` no longer bears out the running log-volume, which is
    audited every 2n cuts and before every return (see :mod:`~ellipsoid.engine`).
    """
    n = sys.dim
    if n == 1:
        return _solve_interval(sys, cfg)

    state = ball(n, sys.radius)
    log_eps = math.log(cfg.epsilon)
    cap = (
        cfg.max_iterations
        if cfg.max_iterations is not None
        else iteration_cap(n, state.log_volume, cfg.epsilon)
    )

    tol, trace = cfg.violation_tolerance, cfg.trace
    rows = _PackedRows(sys, tol)
    cuts = 0
    while True:
        hit = find_violated(rows, state.center, tol)
        # The volume audit stops a run at the float64 wall and vouches for
        # every answer; 2n cuts grow cond(J) at most 9-fold (see engine).
        if cuts and (hit is None or state.log_volume < log_eps or cuts >= cap
                     or not cuts % (2 * n)):
            _audit_volume(state, cuts)
        if hit is None:
            if trace is not None:
                trace(TraceRecord(
                    cuts, None, state.center.tolist(), state.log_volume, None, state.shape
                ))
            return Feasible(state.center, cuts)
        if state.log_volume < log_eps:
            return VolumeExhausted(state.log_volume, cuts)
        if cuts >= cap:
            return IterationCapReached(cuts)

        # The row's own normal is the cut: Constraint froze it and checked
        # it finite and nonzero, as Cut would.
        index, con = hit
        aKa = quadratic_form(state.shape, con.normal) if trace is not None else None
        try:
            state = central_cut_update(state, con)
        except DegenerateCutError as exc:
            raise NumericalBreakdown(cuts, str(exc)) from exc
        if trace is not None:
            trace(TraceRecord(
                cuts, index, state.center.tolist(), state.log_volume, aKa, state.shape
            ))
        cuts += 1


@dataclass(frozen=True)
class CertReport:
    """Independent re-check of a solve outcome against the raw constraints.

    For a feasible point, ``worst_index`` is the row with the least margin
    above its tolerance floor and ``min_slack`` that row's a^T x - b.
    """

    kind: str
    passed: bool
    iterations: int
    min_slack: Optional[float] = None
    worst_index: Optional[int] = None
    log_volume_margin: Optional[float] = None
    notes: str = ""


def certify(
    outcome: SolveOutcome,
    sys: LinearSystem,
    *,
    violation_tolerance: float = DEFAULT_VIOLATION_TOL,
    epsilon: Optional[float] = None,
) -> CertReport:
    """Re-check an outcome from scratch.

    For ``Feasible``, every constraint is re-evaluated at the returned point;
    it passes when each row meets a^T x >= b - tol*(1+|b|), the predicate
    :func:`find_violated` separates on.  For ``VolumeExhausted``, the final
    log-volume is compared against ln(epsilon) when epsilon is supplied.
    """
    if isinstance(outcome, Feasible):
        if not sys.constraints:
            return CertReport("feasible", True, outcome.iterations, min_slack=math.inf,
                              notes="no constraints")
        # Margin above the row's floor b - tol*(1+|b|): the predicate and the
        # product that separation uses, so every row must clear its own
        # tolerance.  A NaN margin fails.
        rows = _PackedRows(sys, violation_tolerance, norms=False)
        # ndarray.dot is A @ x without the gufunc dispatch, except that a
        # 1 x 1 product may leave a zero negative (see engine), which the
        # reported min_slack would show.
        A = rows.A
        products = A.dot(outcome.point) if A.size > 1 else A @ outcome.point
        margins = products - rows.floor
        worst = int(np.argmin(margins))
        return CertReport(
            "feasible",
            passed=bool(margins[worst] >= 0.0),
            iterations=outcome.iterations,
            min_slack=float(products[worst]) - sys.constraints[worst].bound,
            worst_index=worst,
        )
    if isinstance(outcome, VolumeExhausted):
        if epsilon is None:
            return CertReport(
                "volume_exhausted", True, outcome.iterations,
                notes="epsilon not supplied; margin unchecked",
            )
        margin = math.log(epsilon) - outcome.final_log_volume
        return CertReport(
            "volume_exhausted",
            passed=margin > 0.0,
            iterations=outcome.iterations,
            log_volume_margin=margin,
        )
    return CertReport(
        "iteration_cap_reached", True, outcome.iterations,
        notes="no feasibility claim made",
    )


__all__ = [
    "CertReport",
    "Constraint",
    "DEFAULT_VIOLATION_TOL",
    "Feasible",
    "IterationCapReached",
    "LinearSystem",
    "NumericalBreakdown",
    "SolveOutcome",
    "SolverConfig",
    "TraceRecord",
    "VolumeExhausted",
    "certify",
    "find_violated",
    "iteration_cap",
    "row_tolerance",
    "solve",
]
