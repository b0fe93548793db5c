"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import math

import numpy as np

from ellipsoid.engine import (
    QF_FLOOR,
    Cut,
    DegenerateCutError,
    EllipsoidState,
    PDLostError,
    log_unit_ball_volume,
    step_log_ratio,
)
from ellipsoid.solver import Constraint, LinearSystem


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Average mirrored entries; the result is bitwise symmetric."""
    return 0.5 * (M + M.T)


def contains(state: EllipsoidState, x, slack: float = 1e-9) -> bool:
    """Membership (x - c)^T K^{-1} (x - c) <= 1 + slack, through chol(K).

    Raises ``np.linalg.LinAlgError`` when the shape matrix is not PD.
    """
    L = np.linalg.cholesky(state.shape)
    y = np.linalg.solve(L, np.asarray(x, dtype=float) - state.center)
    return float(y @ y) <= 1.0 + slack


def log_volume_from_shape(state: EllipsoidState) -> float:
    """The log-volume recomputed from det K, to audit the running value."""
    sign, logdet = np.linalg.slogdet(state.shape)
    assert sign > 0.0
    return log_unit_ball_volume(state.dim) + 0.5 * float(logdet)


def unit_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / float(np.linalg.norm(v))


def awkward_floats(rng: np.random.Generator, shape) -> np.ndarray:
    """float64 entries drawn from four kinds, in proportions drawn per call:
    moderate values over six decades, subnormals, signed zeros, and
    magnitudes near 1e300."""
    moderate = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
    subnormal = rng.integers(1, 2**52, size=shape) * 5e-324
    zero = np.zeros(shape)
    huge = rng.uniform(0.5, 1.0, size=shape) * 1e300
    pick = rng.choice(4, size=shape, p=rng.dirichlet(np.ones(4)))
    out = np.choose(pick, [moderate, subnormal, zero, huge])
    return np.where(rng.integers(0, 2, size=shape) == 1, -out, out)


def random_pd(rng: np.random.Generator, n: int, floor: float = 0.5) -> np.ndarray:
    """G G^T + floor*I: positive definite with eigenvalues >= floor."""
    G = rng.normal(size=(n, n))
    return symmetrize(G @ G.T + floor * np.eye(n))


def random_state(rng: np.random.Generator, n: int) -> EllipsoidState:
    """Random ellipsoid; log-volume derived independently via slogdet."""
    K = random_pd(rng, n)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0.0
    center = rng.normal(scale=2.0, size=n)
    return EllipsoidState(center, K, log_unit_ball_volume(n) + 0.5 * float(logdet))


def sample_in_ellipsoid(
    rng: np.random.Generator, state: EllipsoidState, count: int
) -> np.ndarray:
    """Uniform points inside the ellipsoid: ball sample mapped through chol(K)."""
    n = state.dim
    L = np.linalg.cholesky(state.shape)
    g = rng.normal(size=(count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)
    return state.center + (g * r) @ L.T


def reference_central_cut_update(state: EllipsoidState, cut: Cut) -> EllipsoidState:
    """The central-cut update in plain numpy, independent of the engine's kernels.

    It re-validates its inputs, symmetrizes the scaled downdate again and
    certifies PD through the squared pivots of ``np.linalg.cholesky``.
    """
    n = state.center.size
    if n < 2:
        raise ValueError(f"central-cut update needs dimension >= 2, got {n}")
    a = np.asarray(cut.normal, dtype=float)
    if a.shape != (n,) or not np.all(np.isfinite(a)):
        raise ValueError(f"cut normal of shape {a.shape} does not fit dimension {n}")

    K = state.shape
    Ka = K @ a
    aKa = float(a @ Ka)
    if not aKa > QF_FLOOR:
        raise DegenerateCutError(f"a^T K a = {aKa} is not positive; cut is degenerate")

    alpha = math.sqrt(aKa)
    center = state.center + Ka / ((n + 1) * alpha)
    beta = 2.0 / ((n + 1) * aKa)
    shrunk = K - beta * np.outer(Ka, Ka)
    shape = symmetrize(n * n / (n * n - 1.0) * shrunk)
    try:
        L = np.linalg.cholesky(shape)
    except np.linalg.LinAlgError:
        L = None
    if L is None or not np.all(np.diagonal(L) ** 2 > 0.0):
        raise PDLostError("updated shape matrix is no longer positive definite")
    return EllipsoidState(center, shape, state.log_volume + step_log_ratio(n))


def feasible_instance(
    rng: np.random.Generator, n: int, m: int, radius: float = 2.0, rho: float = 0.05
) -> tuple[LinearSystem, np.ndarray]:
    """System whose region contains the ball of radius rho around a known point.

    Every row is a.x >= a.p - rho for a unit normal a, so the whole ball
    B(p, rho) satisfies it; p is kept rho + 0.1 inside the bounding ball.
    """
    p = unit_direction(rng, n) * rng.uniform(0.0, radius - rho - 0.1)
    rows = []
    for _ in range(m):
        a = unit_direction(rng, n)
        rows.append(Constraint(a, float(a @ p) - rho))
    return LinearSystem(n, tuple(rows), radius), p


def infeasible_instance(
    rng: np.random.Generator, n: int, m: int, radius: float = 2.0
) -> LinearSystem:
    """Empty slab u.x >= b and u.x <= b - gap, padded with always-true rows."""
    u = unit_direction(rng, n)
    b = float(rng.uniform(-0.3 * radius, 0.3 * radius))
    gap = float(rng.uniform(0.1 * radius, 0.3 * radius))
    rows = [Constraint(u, b), Constraint(-u, -(b - gap))]
    for _ in range(m - 2):
        rows.append(Constraint(unit_direction(rng, n), -(radius + 1.0)))
    return LinearSystem(n, tuple(rows), radius)
