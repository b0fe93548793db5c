"""Dense symmetric linear algebra used by the ellipsoid engine.

Everything works on plain float64 numpy arrays.  Matrices handed to these
routines are expected to be exactly symmetric, and every matrix they return
is exactly symmetric too: ``M - beta * w w^T`` is symmetric bit for bit
when ``M`` is, because ``w_i * w_j`` and ``w_j * w_i`` round alike.
Positive definiteness is decided by a Cholesky factorization that demands
strictly positive pivots, never by eigenvalues.

:func:`cholesky` runs on every cut, so it calls LAPACK potrf through the
gufunc that ``np.linalg.cholesky`` wraps: the factor has the same bytes,
without the wrapper's per-call type and shape handling, and a failed factor
comes back NaN-filled instead of raising.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg


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
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if v.ndim != 1 or v.size != M.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {M.shape}, vector {v.shape}")
    return M @ v


def quadratic_form(M: np.ndarray, v: np.ndarray) -> float:
    """Return v^T M v.  Positive for PD ``M`` and nonzero ``v``."""
    v = np.asarray(v, dtype=float)
    return float(v @ mat_vec(M, v))


def rank1_downdate(M: np.ndarray, w: np.ndarray, beta: float) -> np.ndarray:
    """Return M - beta * w w^T; exactly symmetric when ``M`` is."""
    if w.ndim != 1 or M.shape != (w.size, w.size):
        raise ValueError(f"dimension mismatch: matrix {M.shape}, vector {w.shape}")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
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
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    # potrf stops at a pivot <= 0 (or NaN) and the gufunc then fills L with
    # NaN and raises the invalid flag, which is silenced here.
    with np.errstate(all="ignore"):
        L = _umath_linalg.cholesky_lo(A, signature="d->d")
    # The squared diagonal of L is the pivot sequence, and a square that
    # underflows to 0 is rejected too.  Squaring is monotone on the
    # nonnegative diagonal, so testing the least entry tests them all; NaN
    # propagates through the minimum and is rejected.  A 0 x 0 matrix has no
    # pivot to test.
    if L.size:
        least = np.minimum.reduce(L.diagonal())
        if not least * least > 0.0:
            return None
    return L
