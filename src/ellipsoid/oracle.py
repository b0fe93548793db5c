"""Exact ground truth for small feasibility instances.

Independent of the cutting loop.  The region {x : A x >= b} meets the ball
B(0, R) exactly when the least-norm point of {A x >= b} has norm <= R, and
that point is the projection of the origin onto the affine hull of some
linearly independent set of active rows, of size 0..n (Wolfe, "Finding the
nearest point in a polytope", Math. Prog. 11, 1976).  The oracle projects
the origin onto every such hull at once, one batched solve per subset size,
and keeps the least-norm projection that satisfies every row and the ball.
Each projection is solved on the rows themselves (LU or QR, never the
normal equations), so it meets its own rows to rounding even when they are
nearly dependent.  Verdicts are exact up to the acceptance tolerance and
deterministic for a given system.  A dense grid scan remains as an
independent, one-sided reference.

Presolve.  A projection onto a subset that holds row i lies on that row's
hyperplane, so its norm is at least |b_i| / ||a_i||.  Rows with
|b_i| > ||a_i|| R (1 + WITNESS_TOL) (1 + PRESOLVE_SLACK) therefore only
give candidates outside the ball, and the subsets are enumerated over the
other rows alone; every row still takes part in the acceptance check.
PRESOLVE_SLACK (mu = 1e-6, about 1e10 unit roundoffs) covers rounding: a
computed projection solves its rows up to a per-row backward error, and a
candidate from a dropped row could pass the norm check only if that error
exceeded mu ||a_i||.  Householder QR and its triangular solve keep the
error within a small multiple of n u ||a_i|| per row.  LU with partial
pivoting (k = n) bounds it by about n u times the growth of the
factorisation, which stays far below mu unless the rows of one subset
differ in norm by more than about 1e8; even then, such a
candidate changes the answer only if it also satisfies every row and is
shorter than the least-norm point's own candidate.  The kept rows stay in
their original order, so the surviving subsets keep their order and the
stable sort by norm picks the same witness as a full enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Union

import numpy as np

from .solver import LinearSystem

# Feasibility slack for accepting a candidate, scaled per row by 1 + |b|.
WITNESS_TOL = 1e-12
# Relative margin on the presolve's distance test (see the module docstring).
PRESOLVE_SLACK = 1e-6

MAX_DIM = 4
MAX_GRID_DIM = 3
MAX_CONSTRAINTS = 20


@dataclass(frozen=True)
class FeasibleWitness:
    point: np.ndarray


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Inconclusive:
    reason: str


OracleVerdict = Union[FeasibleWitness, Infeasible, Inconclusive]


def _satisfies(sys: LinearSystem, x: np.ndarray) -> bool:
    r = float(np.linalg.norm(x))
    if r > sys.radius * (1.0 + WITNESS_TOL):
        return False
    for con in sys.constraints:
        if con.slack(x) < -WITNESS_TOL * (1.0 + abs(con.bound)):
            return False
    return True


def _check_limits(sys: LinearSystem, max_dim: int) -> None:
    if sys.dim > max_dim:
        raise ValueError(f"oracle supports dimension <= {max_dim}, got {sys.dim}")
    if len(sys.constraints) > MAX_CONSTRAINTS:
        raise ValueError(
            f"oracle supports at most {MAX_CONSTRAINTS} constraints, got {len(sys.constraints)}"
        )


def _solve_regular(M: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``solve(M, rhs)`` and the mask of the matrices it skipped.

    The stack is factored once when no matrix has a zero pivot.  Otherwise
    ``det``, which factors the same matrices, marks the zero (or NaN)
    determinants; those matrices are swapped for the identity and the stack
    is solved again.  A determinant also reads zero when its pivots
    underflow, far below the pivots of rows in the oracle's range.
    """
    try:
        return np.linalg.solve(M, rhs), np.zeros(len(M), bool)
    except np.linalg.LinAlgError:
        pass
    singular = ~(np.linalg.det(M) != 0.0)
    M[singular] = np.eye(M.shape[-1])
    return np.linalg.solve(M, rhs), singular


@lru_cache(maxsize=None)
def _subsets(m: int, k: int) -> np.ndarray:
    """The k-subsets of range(m) in lexicographic order, one per row (read-only)."""
    idx = np.fromiter(chain.from_iterable(combinations(range(m), k)), np.intp)
    idx = idx.reshape(-1, k)
    idx.flags.writeable = False
    return idx


def _projections(A: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Projection of the origin onto {a_i . x = b_i, i in S} for every k-subset S.

    Each projection is solved on the rows themselves, never on the normal
    equations (A_S A_S^T), whose conditioning is the square of theirs: the
    square stack A_S x = b_S when k = n, else x = Q y with A_S^T = Q R and
    R^T y = b_S.  Both are backward stable, so a projection misses its own
    rows by rounding only, however nearly dependent they are.  Subsets with
    exactly dependent rows are dropped: the least-norm point also lies on
    the hull of an independent subset.
    """
    m, n = A.shape
    idx = _subsets(m, k)
    rows, rhs = A[idx], b[idx][..., None]
    if k == n:
        x, singular = _solve_regular(rows, rhs)
    else:
        q, r = np.linalg.qr(rows.transpose(0, 2, 1))
        y, singular = _solve_regular(r.transpose(0, 2, 1), rhs)
        x = q @ y
    return x[~singular, :, 0]


def vertex_enumeration_check(sys: LinearSystem) -> OracleVerdict:
    """Exact feasibility verdict for n <= 4, m <= 20.

    Returns ``FeasibleWitness`` at the least-norm point of {A x >= b} when
    it lies in the ball (every row and the ball hold within ``WITNESS_TOL``,
    scaled as in ``_satisfies``), ``Infeasible`` otherwise.  It never
    returns ``Inconclusive``.
    """
    _check_limits(sys, MAX_DIM)
    n, m = sys.dim, len(sys.constraints)
    A = np.array([con.normal for con in sys.constraints]).reshape(m, n)
    b = np.fromiter((con.bound for con in sys.constraints), float, m)
    reach = sys.radius * (1.0 + WITNESS_TOL) * (1.0 + PRESOLVE_SLACK)
    near = np.abs(b) <= np.linalg.norm(A, axis=1) * reach
    A_near, b_near = A[near], b[near]
    # Nearly dependent subsets give huge or non-finite projections; they
    # fail the check below, so their overflow warnings are noise.
    with np.errstate(all="ignore"):
        points = np.concatenate(
            [np.zeros((1, n))]
            + [_projections(A_near, b_near, k) for k in range(1, min(n, len(b_near)) + 1)]
        )
        norms = np.linalg.norm(points, axis=1)
        ok = norms <= sys.radius * (1.0 + WITNESS_TOL)
        ok &= np.all(points @ A.T - b >= -WITNESS_TOL * (1.0 + np.abs(b)), axis=1)
    for i in np.flatnonzero(ok)[np.argsort(norms[ok], kind="stable")]:
        if _satisfies(sys, points[i]):
            return FeasibleWitness(points[i])
    return Infeasible()


def grid_feasibility_scan(sys: LinearSystem, steps_per_axis: int) -> OracleVerdict:
    """Scan the axis-aligned grid over [-R, R]^n for a feasible point.

    A hit is a proof; a miss is only ``Inconclusive``.
    """
    _check_limits(sys, MAX_GRID_DIM)
    if steps_per_axis < 2:
        raise ValueError(f"steps_per_axis must be >= 2, got {steps_per_axis}")
    axis = np.linspace(-sys.radius, sys.radius, steps_per_axis)
    n = sys.dim
    A = np.array([c.normal for c in sys.constraints]) if sys.constraints else None
    b = np.array([c.bound for c in sys.constraints]) if sys.constraints else None
    tol = (
        WITNESS_TOL * (1.0 + np.abs(b)) if b is not None else None
    )
    r_max = sys.radius * (1.0 + WITNESS_TOL)

    # One x_1-slice at a time keeps memory flat; within a slice everything
    # is vectorized.
    tail = np.stack(
        [g.ravel() for g in np.meshgrid(*([axis] * (n - 1)), indexing="ij")], axis=-1
    ) if n > 1 else np.zeros((1, 0))
    for x0 in axis:
        pts = np.concatenate(
            [np.full((tail.shape[0], 1), x0), tail], axis=1
        )
        ok = np.linalg.norm(pts, axis=1) <= r_max
        if A is not None:
            ok &= np.all(pts @ A.T - b >= -tol, axis=1)
        hits = np.nonzero(ok)[0]
        if hits.size:
            return FeasibleWitness(pts[hits[0]])
    return Inconclusive("no grid witness")


__all__ = [
    "FeasibleWitness",
    "Inconclusive",
    "Infeasible",
    "OracleVerdict",
    "grid_feasibility_scan",
    "vertex_enumeration_check",
]
