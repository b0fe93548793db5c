"""Ellipsoid state and the central-cut update.

An ellipsoid is ``E = {c + J u : ||u|| <= 1}`` for a center ``c`` and a
nonsingular factor ``J``; its shape matrix is ``K = J J^T``.  The engine
carries ``J``, the factored form of Bland, Goldfarb & Todd (*The ellipsoid
method: a survey*, Oper. Res. 29(6), 1981, section 6): map E to the unit
ball, halve the ball, map the smallest ellipsoid around the half back.

The central cut on a nonzero normal ``a`` keeps ``{x in E : a^T x >= a^T c}``,
so the center moves along ``+K a``.  With ``v = J^T a``, ``g = v / ||v||``
and ``u = J g``,

    c' = c + u / (n + 1)
    J' = s (J - beta u g^T),  s = n / sqrt(n^2 - 1),  beta = 1 - sqrt((n - 1)/(n + 1))

and ``J' J'^T = n^2/(n^2 - 1) (K - 2/(n + 1) (K a)(K a)^T / (a^T K a))`` is
the K-form update.  ``J' = s J (I - beta g g^T)`` scales the volume by
``s^n (1 - beta)`` on every cut (:func:`step_log_ratio`), so the state
carries its log-volume incrementally.  ``n >= 2`` is required (the
``n^2 - 1``); one-dimensional problems are solved upstream by intervals.

K is positive semidefinite by construction, so no cut factors a matrix: the
one Cholesky is where a state is built from a shape matrix (the
:class:`EllipsoidState` constructor and :func:`ball`).  Rounding still drives
J toward singular as cuts flatten E, until ``ln|det J|`` no longer matches the
running log-volume; :func:`log_volume_drift` measures that.  The solver audits
it every ``2n`` cuts and before every answer, so a run breaks down at the
float64 wall instead of cutting on, and answering from, ellipsoids that mean
nothing.  A cut multiplies cond(J) by at most ``1/(1 - beta) =
sqrt((n+1)/(n-1))``, so two audits are at most ``((n+1)/(n-1))^n <= 9``-fold
apart in cond(J).  The tolerance: a perturbation ``dJ`` moves ``ln|det J|`` by
``tr(J^{-1} dJ)``, so one update's rounding moves it by about ``n u cond(J)``,
u = 2^-53.  ``VOLUME_AUDIT_TOL`` = 1e-6 nats admits 400 cuts in n = 40 up to
cond(J) about 5e5, and a claim off by 1e-6 nats is off by a factor 1 + 1e-6,
which no epsilon can tell.  Every audit of the empty bench solves of seeds
11-20 (n = 2..40) reads at most 3.1e-10 nats.  A thin tilted slab in the plane
passes 1e-6 nats near cond(J) 1e10, some 45 cuts in; its center would leave
the bounding ball near cond(J) 1e14.

The kernels check no operand: the :class:`Cut` and :class:`EllipsoidState`
constructors and :func:`central_cut_update` check them first.
``J.dot(J.T)`` takes BLAS syrk, which mirrors one triangle, so K is exactly
symmetric.  Products go through
``ndarray.dot``: the BLAS gemv or ddot of ``@`` without the matmul gufunc's
dispatch (0.7 to 1.3 us per call, numpy 2.4, one BLAS thread), except that a
product of one element takes ``@`` (``dot`` multiplies, ``@`` adds the
product to +0.0, so a zero can differ in sign).  The tests pin the kernels
byte for byte against the ``@``, ``np.outer`` and ``np.linalg.cholesky``
forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .solver import Constraint

# ||J^T a||^2 = a^T K a at or below this is treated as a degenerate cut: the
# square root and the division in the update would be meaningless.
QF_FLOOR = 1e-300
# Largest |running log-volume - ln vol(E)| the solver accepts, in nats.
VOLUME_AUDIT_TOL = 1e-6


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
    # M v here, not through mat_vec: traced runs count two mat_vec per cut.
    return float(v.dot(M.dot(v)) if v.size > 1 else v @ (M @ v))


def rank1_downdate(M: np.ndarray, u: np.ndarray, v: np.ndarray, beta: float) -> np.ndarray:
    """Return M - beta * u v^T; exactly symmetric when ``M`` is and v is u."""
    # One buffer: the products u_i * v_j, then times beta, then M minus
    # them, the same operations as M - beta * np.outer(u, v).
    out = u[:, None] * v
    out *= beta
    np.subtract(M, out, out=out)
    return out


def cholesky(M: np.ndarray) -> np.ndarray | None:
    """Lower-triangular L with L L^T = M, or None when M is not PD: some
    pivot is not strictly positive.  No relative tolerance applies."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:  # a pivot <= 0
        return None
    # The squared diagonal of L is the pivot sequence: a square that underflows
    # to 0 fails, as does a NaN pivot, which numpy returns without raising.
    if L.size:
        least = np.minimum.reduce(L.diagonal())
        if not least * least > 0.0:
            return None
    return L


class DegenerateCutError(ArithmeticError):
    """Cut normal has (numerically) zero or non-finite extent in the ellipsoid."""


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


class EllipsoidState:
    """Immutable ellipsoid {c + J u : ||u|| <= 1}: ``center``, the read-only
    ``factor`` J and the running ``log_volume``.  Built from a shape matrix K,
    factored once (J = chol(K); a K that is not PD is a ValueError).
    ``shape`` is J J^T, formed when first read, or the K it was built from."""

    __slots__ = ("center", "factor", "log_volume", "_shape")

    def __init__(self, center, shape, log_volume: float):
        center = as_vector(center).copy()
        shape = np.array(shape, dtype=float)
        if shape.shape != (center.size, center.size):
            raise ValueError(
                f"shape matrix {shape.shape} does not match center of length {center.size}"
            )
        factor = cholesky(shape)
        if factor is None:
            raise ValueError("shape matrix is not positive definite")
        _freeze(self, center, factor, float(log_volume), shape)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def shape(self) -> np.ndarray:
        K = self._shape
        if K is None:
            J = self.factor
            K = J.dot(J.T)  # n >= 2: a state of dimension 1 is built from its K
            K.setflags(write=False)
            object.__setattr__(self, "_shape", K)
        return K


def _freeze(state, center, factor, log_volume, shape=None) -> EllipsoidState:
    """Fill ``state`` with freshly computed, matching arrays, made read-only."""
    center.setflags(write=False)
    factor.setflags(write=False)
    if shape is not None:
        shape.setflags(write=False)
    put = object.__setattr__
    put(state, "center", center)
    put(state, "factor", factor)
    put(state, "log_volume", log_volume)
    put(state, "_shape", shape)
    return state


def ball(n: int, radius: float) -> EllipsoidState:
    """Ball of given radius about the origin: shape = radius^2 * I."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not radius > 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    squared = radius * radius
    if not 0.0 < squared < math.inf:
        raise ValueError(f"radius must have a positive, finite square, got {radius}")
    log_volume = log_unit_ball_volume(n) + n * math.log(radius)
    shape = squared * np.eye(n)
    factor = cholesky(shape)
    return _freeze(object.__new__(EllipsoidState), np.zeros(n), factor, log_volume, shape)


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
    Raises :class:`DegenerateCutError` when ``||J^T a||^2`` underflows or
    is not finite.
    """
    n = state.center.size
    if n < 2:
        raise ValueError(f"central-cut update needs dimension >= 2, got {n}")
    # The constructors of the cut and the state already validated and froze
    # these arrays; only the pairing of the two can still be wrong.
    a = cut.normal
    if a.size != n:
        raise ValueError(f"vector has length {a.size}, expected {n}")

    J = state.factor
    v = mat_vec(J.T, a)
    vv = float(v.dot(v))
    if not QF_FLOOR < vv < math.inf:
        raise DegenerateCutError(f"||J^T a||^2 = {vv} is not in (QF_FLOOR, inf); degenerate cut")
    g = v / math.sqrt(vv)
    u = mat_vec(J, g)
    # J - beta u g^T, then the s blow-up in place on the downdate's fresh array.
    factor = rank1_downdate(J, u, g, 1.0 - math.sqrt((n - 1.0) / (n + 1.0)))
    factor *= n / math.sqrt(n * n - 1.0)
    center = state.center + u / (n + 1)
    return _freeze(object.__new__(EllipsoidState), center, factor,
                   state.log_volume + step_log_ratio(n))


def log_volume_drift(state: EllipsoidState) -> float:
    """|running log-volume - ln vol(E)|, with ln vol(E) from ln|det J|; inf
    when det J is 0 or not finite."""
    with np.errstate(invalid="ignore"):  # a NaN entry; its det is NaN
        sign, log_det = np.linalg.slogdet(state.factor)
    if not (sign != 0.0 and math.isfinite(log_det)):
        return math.inf
    return abs(state.log_volume - log_unit_ball_volume(state.dim) - float(log_det))


__all__ = [
    "QF_FLOOR",
    "VOLUME_AUDIT_TOL",
    "Cut",
    "DegenerateCutError",
    "EllipsoidState",
    "ball",
    "central_cut_update",
    "log_unit_ball_volume",
    "log_volume_drift",
    "step_log_ratio",
]
