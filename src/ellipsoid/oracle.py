"""Exact ground truth for feasibility instances up to dimension 40 and 240 rows.

Independent of the cutting loop.  {A x >= b} meets the ball B(0, R) exactly
when its least-norm point x* does.  With G, h the rows scaled to unit
norm, x* solves the least-distance program min ||x|| s.t. G x >= h, which
Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23) solve as one
NNLS problem: u >= 0 minimising ||E u - f||, E = [G^T; h^T], f = e_{n+1}.
If r = E u - f is nonzero, x* = -r[:n] / r[n] lies on the rows with
u_i > 0, and the witness is the origin's projection onto those rows: the
point an enumeration of every active set picks (Wolfe, Math. Prog. 11, 1976).

Each answer proves itself.  A witness holds every row and the ball within
``WITNESS_TOL``.  An empty answer carries y = u / ||a_i|| >= 0: a point x
of the ball with A x >= b would give y.b <= y.A x <= R ||A^T y||, so
y.b > 0 and (y.b)^2 > R^2 ||A^T y||^2, checked in exact integer arithmetic,
rule every such x out.  (y is a Farkas ray when {A x >= b} is empty, and
proportional to the multipliers of x* when x* leaves the ball.)  If neither
check passes, the verdict is ``Inconclusive``: the oracle never guesses.

Presolve: a row with b_i / ||a_i|| < -R (1 + BALL_MARGIN) holds on a ball
larger than B(0, R) by far more than rounding, so it is left out of the
solve.  Both answers stay exact: a witness is checked against every row,
and a certificate of the kept rows, with y_i = 0 on the others, is one of
the whole system.  A dense grid scan remains as a one-sided reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.linalg import _umath_linalg

from .solver import LinearSystem, _stacked_normals

# Feasibility slack for accepting a witness, scaled per row by 1 + |b|.
WITNESS_TOL = 1e-12
# Rows that hold on the ball grown by this relative margin are dropped.
BALL_MARGIN = 1e-6

MAX_DIM = 40
MAX_GRID_DIM = 3
MAX_CONSTRAINTS = 240


@dataclass(frozen=True)
class FeasibleWitness:
    point: np.ndarray


@dataclass(frozen=True)
class Infeasible:
    """No point of the ball satisfies every row; ``y`` is the certificate."""

    y: Optional[np.ndarray] = field(default=None, compare=False)


@dataclass(frozen=True)
class Inconclusive:
    reason: str


OracleVerdict = Union[FeasibleWitness, Infeasible, Inconclusive]


def _satisfies(A: np.ndarray, b: np.ndarray, radius: float, x: np.ndarray) -> bool:
    # np.linalg.norm of a 1-D float array is sqrt(x.dot(x)).
    return bool(math.sqrt(x.dot(x)) <= radius * (1.0 + WITNESS_TOL)
                and (A.dot(x) - b >= -WITNESS_TOL * (1.0 + np.abs(b))).all())


def _integers(values: list[float]) -> tuple[list[int], int]:
    """Integers q and one exponent e with values = q * 2**e exactly (finite values)."""
    parts = [math.frexp(v) for v in values]
    q = [int(mantissa * 2.0**53) for mantissa, _ in parts]
    e = min((p[1] for p, qi in zip(parts, q) if qi), default=0)
    return [qi << (p[1] - e) if qi else 0 for p, qi in zip(parts, q)], e - 53


def _certifies(A: np.ndarray, b: np.ndarray, radius: float, y: np.ndarray) -> bool:
    """Exactly: y >= 0, y.b > 0 and (y.b)^2 > R^2 ||A^T y||^2."""
    if not (np.all(np.isfinite(y)) and np.all(y >= 0.0)):
        return False
    keep = y != 0.0
    (Y, ey), (B, eb), (M, ea) = (_integers(v[keep].ravel().tolist()) for v in (y, b, A))
    (r,), er = _integers([radius])
    s = sum(yi * bi for yi, bi in zip(Y, B))
    if s <= 0:
        return False
    n = A.shape[1]
    v2 = sum(sum(yi * aij for yi, aij in zip(Y, M[j::n])) ** 2 for j in range(n))
    # (y.b)^2 = 2^(2 ey + 2 eb) s^2 and R^2 ||A^T y||^2 = 2^(2 er + 2 ea + 2 ey) r^2 v2.
    lhs, rhs, shift = s * s, r * r * v2, 2 * (eb - er - ea)
    return (lhs << shift) > rhs if shift >= 0 else lhs > (rhs << -shift)


def _check_limits(sys: LinearSystem, max_dim: int) -> None:
    if sys.dim > max_dim:
        raise ValueError(f"oracle supports dimension <= {max_dim}, got {sys.dim}")
    if len(sys.constraints) > MAX_CONSTRAINTS:
        raise ValueError(f"oracle supports at most {MAX_CONSTRAINTS} constraints, "
                         f"got {len(sys.constraints)}")


def _arrays(sys: LinearSystem) -> tuple[np.ndarray, np.ndarray]:
    m = len(sys.constraints)
    return _stacked_normals(sys), np.fromiter((con.bound for con in sys.constraints), float, m)


def _nnls(E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Lawson-Hanson NNLS, u >= 0 minimising ||E u - f||, in a bounded
    number of steps; the caller checks what it gets."""
    m = E.shape[1]
    u, passive = np.zeros(m), np.zeros(m, bool)
    tol = 10.0 * np.finfo(float).eps * max(E.shape) * max(1.0, np.abs(E).sum(0).max(initial=0.0))
    for _ in range(3 * (m + 1)):
        w = E.T.dot(f - E.dot(u))
        w[passive] = -np.inf
        if not w.max(initial=-np.inf) > tol:
            break
        j = int(w.argmax())
        passive[j] = True
        while True:
            idx = passive.nonzero()[0]
            z = np.linalg.lstsq(E[:, idx], f, rcond=None)[0]
            if (z > 0.0).all():
                u[idx] = z
                break
            # Step toward z until the first passive variable reaches zero.
            ui, neg = u[idx], z <= 0.0
            ratios = np.where(ui > z, ui / (ui - z), 0.0)[neg]
            u[idx] = ui + ratios.min() * (z - ui)
            u[idx[neg][ratios.argmin()]] = 0.0
            passive &= u > 0.0
            u[~passive] = 0.0
            if not passive[j]:
                return u
    return u


def _candidates(A: np.ndarray, b: np.ndarray, active: np.ndarray, r: np.ndarray):
    """Witness candidates: the projection of the origin onto the active rows
    (solved as one subset of a full enumeration would be: LU for n rows,
    else QR of A_S^T, never the normal equations), then -r[:n] / r[n].

    The LU solve is the gufunc ``np.linalg.solve`` wraps, run under the
    caller's ``errstate``: an exactly singular stack comes back NaN, which
    ``_satisfies`` rejects, where the wrapper raises ``LinAlgError``."""
    k, n = active.size, A.shape[1]
    A_S, b_S = A[active], b[active][:, None]
    try:
        if k == 0:
            yield np.zeros(n)
        elif k == n:
            yield _umath_linalg.solve(A_S, b_S, signature="dd->d")[:, 0]
        elif k < n:
            q, R = np.linalg.qr(A_S.T)
            yield (q @ np.linalg.solve(R.T, b_S))[:, 0]
    except np.linalg.LinAlgError:
        pass
    yield -r[:n] / r[n]


def vertex_enumeration_check(sys: LinearSystem) -> OracleVerdict:
    """Exact feasibility verdict for n <= 40, m <= 240: ``FeasibleWitness``
    at the least-norm point of {A x >= b} when it passes ``_satisfies``,
    ``Infeasible`` with a certificate ``y`` that passes ``_certifies``,
    else ``Inconclusive``."""
    _check_limits(sys, MAX_DIM)
    A, b = _arrays(sys)
    m, n = A.shape
    # What np.linalg.norm(A, axis=1) computes, without its dispatch.
    norms = np.sqrt(np.add.reduce(A * A, axis=1))
    kept = (b / norms >= -sys.radius * (1.0 + BALL_MARGIN)).nonzero()[0]
    E = np.concatenate((A[kept].T, b[kept][None, :])) / norms[kept]
    f = np.zeros(n + 1)
    f[n] = 1.0
    # Nearly dependent active rows give huge or non-finite points; they
    # fail the checks below, so their warnings are noise.
    with np.errstate(all="ignore"):
        u = _nnls(E, f)
        for x in _candidates(A, b, kept[u > 0.0], E.dot(u) - f):
            if _satisfies(A, b, sys.radius, x):
                return FeasibleWitness(x)
    y = np.zeros(m)
    y[kept] = u / norms[kept]
    if _certifies(A, b, sys.radius, y):
        return Infeasible(y)
    return Inconclusive("least-distance solve gave neither a witness nor a certificate")


def grid_feasibility_scan(sys: LinearSystem, steps_per_axis: int) -> OracleVerdict:
    """Scan the axis-aligned grid over [-R, R]^n for a feasible point: a hit
    is a proof, a miss only ``Inconclusive``."""
    _check_limits(sys, MAX_GRID_DIM)
    if steps_per_axis < 2:
        raise ValueError(f"steps_per_axis must be >= 2, got {steps_per_axis}")
    A, b = _arrays(sys)
    axis = np.linspace(-sys.radius, sys.radius, steps_per_axis)
    # One x_1-slice at a time keeps memory flat; within a slice everything
    # is vectorized.
    grid = np.meshgrid(*([axis] * (sys.dim - 1)), indexing="ij")
    tail = np.stack([g.ravel() for g in grid], axis=-1) if grid else np.zeros((1, 0))
    for x0 in axis:
        pts = np.column_stack([np.full(len(tail), x0), tail])
        ok = np.linalg.norm(pts, axis=1) <= sys.radius * (1.0 + WITNESS_TOL)
        ok &= np.all(pts @ A.T - b >= -WITNESS_TOL * (1.0 + np.abs(b)), axis=1)
        if ok.any():
            return FeasibleWitness(pts[np.argmax(ok)])
    return Inconclusive("no grid witness")


__all__ = ["FeasibleWitness", "Inconclusive", "Infeasible", "OracleVerdict",
           "grid_feasibility_scan", "vertex_enumeration_check"]
