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

The update's kernels live here too and check no operand: the :class:`Cut`
and :class:`EllipsoidState` constructors and :func:`central_cut_update`
check them first.  ``M - beta * w w^T`` is exactly symmetric when ``M`` is,
because ``w_i * w_j`` and ``w_j * w_i`` round alike.  PD means a Cholesky
factor with strictly positive pivots, from the LAPACK potrf gufunc that
``np.linalg.cholesky`` wraps: the same bytes without the wrapper's per-call
handling, and NaN instead of an exception on failure.  Products go through
``ndarray.dot``, which reaches the same BLAS gemv or ddot as ``@`` without
the matmul gufunc's dispatch (0.7 to 1.3 us per call on these operands,
numpy 2.4, one BLAS thread).  A product of one element takes ``@``: ``dot``
multiplies the two entries, where ``@`` adds their product to +0.0, so a
zero can differ in sign.  The tests pin every kernel byte for byte against
the ``@``, ``np.outer`` and ``np.linalg.cholesky`` forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import _umath_linalg

if TYPE_CHECKING:
    from .solver import Constraint

# a^T K a at or below this is treated as a degenerate cut: the square root
# and the division in the update would be meaningless.
QF_FLOOR = 1e-300


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and return ``v`` as a 1-D float64 array with finite entries."""
    out = np.asarray(v, dtype=float)
    if out.ndim != 1 or out.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {out.shape}")
    if dim is not None and out.size != dim:
        raise ValueError(f"vector has length {out.size}, expected {dim}")
    if not np.isfinite(out).all():
        raise ValueError("vector entries must be finite")
    return out


def mat_vec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    # A 1 x 1 product is the one-element case of the module docstring.
    return M.dot(v) if v.size > 1 else M @ v


def quadratic_form(M: np.ndarray, v: np.ndarray) -> float:
    """Return v^T M v.  Positive for PD ``M`` and nonzero ``v``."""
    # M v here, not through mat_vec: traced runs count one mat_vec per cut.
    return float(v.dot(M.dot(v)) if v.size > 1 else v @ (M @ v))


def rank1_downdate(M: np.ndarray, w: np.ndarray, beta: float) -> np.ndarray:
    """Return M - beta * w w^T; exactly symmetric when ``M`` is."""
    # One buffer: the products w_i * w_j, then times beta, then M minus
    # them, the same operations as M - beta * np.outer(w, w).
    out = w[:, None] * w
    out *= beta
    np.subtract(M, out, out=out)
    return out


def cholesky(M: np.ndarray) -> np.ndarray | None:
    """Lower-triangular L with L L^T = M, or None when M is not PD.

    Every pivot must be strictly positive; not-PD is a normal return, not an
    error.  No relative tolerance applies: long one-directional cut
    sequences drive the condition number up geometrically while the matrix
    stays genuinely PD.
    """
    # potrf stops at a pivot <= 0 (or NaN); the gufunc then fills L with NaN
    # and raises the invalid flag, silenced here.
    with np.errstate(all="ignore"):
        L = _umath_linalg.cholesky_lo(M, signature="d->d")
    # The squared diagonal of L is the pivot sequence; a square that
    # underflows to 0 is rejected too.  Squaring is monotone on the
    # nonnegative diagonal, so the least entry decides, and NaN propagates
    # through the minimum.  A 0 x 0 matrix has no pivot to test.
    if L.size:
        least = np.minimum.reduce(L.diagonal())
        if not least * least > 0.0:
            return None
    return L


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


def central_cut_update(state: EllipsoidState, cut: Cut | Constraint) -> EllipsoidState:
    """Smallest ellipsoid containing {x in state : a^T x >= a^T center}.

    ``a`` is the normal of a :class:`Cut` or of the violated
    :class:`~ellipsoid.solver.Constraint`, which checks it as strictly.
    Raises :class:`DegenerateCutError` when ``a^T K a`` underflows and
    :class:`PDLostError` when the updated shape fails PD certification.
    """
    n = state.center.size
    if n < 2:
        raise ValueError(f"central-cut update needs dimension >= 2, got {n}")
    # The constructors of the cut and the state already validated and froze
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
