"""Ellipsoid state and the central-cut update.

An ellipsoid is the set ``{x : (x - c)^T K^{-1} (x - c) <= 1}`` for a center
``c`` and a symmetric positive definite shape matrix ``K``.  The engine never
forms ``K^{-1}``: the update works on ``K`` directly.

Given a cut normal ``a`` (nonzero), the central-cut update replaces the
current ellipsoid with the smallest-volume ellipsoid containing the half

    {x in E : a^T x >= a^T c},

i.e. the half of E on the side the cut normal points to.  With
``alpha = sqrt(a^T K a)`` the new ellipsoid is

    c' = c + K a / ((n + 1) * alpha)
    K' = n^2/(n^2 - 1) * (K - 2/(n + 1) * (K a)(K a)^T / (a^T K a))

The cut plane ``a^T x = a^T c`` passes through the center, so orientation is
a pure sign convention: this module keeps the ``>=`` side, and the center
moves along ``+K a``.  Each update shrinks the volume by the same
dimension-only factor (see :func:`step_log_ratio`), which lets the state
carry its log-volume incrementally instead of recomputing determinants.

Update formulas have an ``n^2 - 1`` denominator, so ``n >= 2`` is required
here; one-dimensional problems are handled upstream by interval arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector, cholesky, mat_vec, rank1_downdate

# a^T K a at or below this is treated as a degenerate cut: the square root
# and the division in the update would be meaningless.
QF_FLOOR = 1e-300


class DegenerateCutError(ArithmeticError):
    """Cut normal has (numerically) zero extent in the current ellipsoid."""


class PDLostError(ArithmeticError):
    """Shape matrix lost positive definiteness after an update."""


def log_unit_ball_volume(n: int) -> float:
    """ln of the volume of the n-dimensional unit ball."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


@dataclass(frozen=True)
class Cut:
    """A half-space boundary through the current center; the normal is
    validated and frozen on construction."""

    normal: np.ndarray

    def __post_init__(self):
        normal = as_vector(self.normal)
        if not float(np.linalg.norm(normal)) > 1e-300:
            raise ValueError("cut normal must be nonzero")
        normal = normal.copy()
        normal.flags.writeable = False
        object.__setattr__(self, "normal", normal)


@dataclass(frozen=True)
class EllipsoidState:
    """Immutable ellipsoid: center, PD shape matrix, and running log-volume."""

    center: np.ndarray
    shape: np.ndarray
    log_volume: float

    def __post_init__(self):
        center = as_vector(self.center).copy()
        shape = np.array(self.shape, dtype=float)
        if shape.shape != (center.size, center.size):
            raise ValueError(
                f"shape matrix {shape.shape} does not match center of length {center.size}"
            )
        center.flags.writeable = False
        shape.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return self.center.size


def _frozen_cut(normal: np.ndarray) -> Cut:
    """Wrap a validated, read-only 1-D float normal without the constructor's
    copy.  The nonzero test is the constructor's: np.linalg.norm of a 1-D
    float array is sqrt(a.dot(a))."""
    if not math.sqrt(normal.dot(normal)) > 1e-300:
        raise ValueError("cut normal must be nonzero")
    cut = object.__new__(Cut)
    object.__setattr__(cut, "normal", normal)
    return cut


def _frozen_state(center: np.ndarray, shape: np.ndarray, log_volume: float) -> EllipsoidState:
    """Wrap freshly computed, matching arrays without the constructor's copies."""
    center.setflags(write=False)
    shape.setflags(write=False)
    state = object.__new__(EllipsoidState)
    object.__setattr__(state, "center", center)
    object.__setattr__(state, "shape", shape)
    object.__setattr__(state, "log_volume", log_volume)
    return state


def ball(n: int, radius: float) -> EllipsoidState:
    """Ball of given radius about the origin: shape = radius^2 * I."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not radius > 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    squared = radius * radius
    if not math.isfinite(squared):
        raise ValueError(f"radius must have a finite square, got {radius}")
    log_volume = log_unit_ball_volume(n) + n * math.log(radius)
    return _frozen_state(np.zeros(n), squared * np.eye(n), log_volume)


@functools.cache
def step_log_ratio(n: int) -> float:
    """Exact per-cut change of log-volume in dimension n.

    Equals ``0.5 * (n ln(n^2/(n^2-1)) + ln((n-1)/(n+1)))``, which is always
    below the coarser guarantee ``-1/(2(n+1))``.  Computed once per dimension.
    """
    if n < 2:
        raise ValueError(f"central-cut update needs dimension >= 2, got {n}")
    nn = float(n)
    return 0.5 * (nn * math.log(nn * nn / (nn * nn - 1.0)) + math.log((nn - 1.0) / (nn + 1.0)))


def central_cut_update(state: EllipsoidState, cut: Cut) -> EllipsoidState:
    """Smallest ellipsoid containing {x in state : a^T x >= a^T center}.

    Raises :class:`DegenerateCutError` when ``a^T K a`` underflows and
    :class:`PDLostError` when the updated shape fails PD certification.
    """
    n = state.center.size
    if n < 2:
        raise ValueError(f"central-cut update needs dimension >= 2, got {n}")
    # The Cut and EllipsoidState constructors already validated and froze
    # these arrays; only the pairing of the two can still be wrong.
    a = cut.normal
    if a.size != n:
        raise ValueError(f"vector has length {a.size}, expected {n}")

    K = state.shape
    Ka = mat_vec(K, a)
    aKa = float(a.dot(Ka))
    if not aKa > QF_FLOOR:
        raise DegenerateCutError(f"a^T K a = {aKa} is not positive; cut is degenerate")

    alpha = math.sqrt(aKa)
    center = state.center + Ka / ((n + 1) * alpha)

    # K - 2/(n+1) * (Ka)(Ka)^T / aKa, then the n^2/(n^2-1) blow-up in place
    # on the downdate's fresh array.  The downdate is exactly symmetric and a
    # scalar multiple keeps it so.
    shape = rank1_downdate(K, Ka, 2.0 / ((n + 1) * aKa))
    shape *= n * n / (n * n - 1.0)

    if cholesky(shape) is None:
        raise PDLostError("updated shape matrix is no longer positive definite")

    return _frozen_state(center, shape, state.log_volume + step_log_ratio(n))


__all__ = [
    "QF_FLOOR",
    "Cut",
    "DegenerateCutError",
    "EllipsoidState",
    "PDLostError",
    "ball",
    "central_cut_update",
    "log_unit_ball_volume",
    "step_log_ratio",
]
