"""Dense symmetric linear algebra used by the ellipsoid engine.

Everything works on plain float64 numpy arrays.  Matrices handed to these
routines are expected to be exactly symmetric, and every matrix they return
is exactly symmetric too: ``symmetrize`` averages mirrored entries, and
``M - beta * w w^T`` is symmetric bit for bit when ``M`` is, because
``w_i * w_j`` and ``w_j * w_i`` round alike.  Positive definiteness is
decided by a Cholesky factorization with a relative pivot tolerance, never
by eigenvalues.
"""

from __future__ import annotations

import numpy as np

# A pivot counts as positive only if it exceeds this fraction of the largest
# diagonal entry.  Below that the factorization is declared not-PD rather
# than letting roundoff produce a garbage factor.
PIVOT_TOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when an operation requires a positive definite matrix."""


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and return ``v`` as a 1-D float64 array with finite entries."""
    out = np.asarray(v, dtype=float)
    if out.ndim != 1 or out.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {out.shape}")
    if dim is not None and out.size != dim:
        raise ValueError(f"vector has length {out.size}, expected {dim}")
    if not np.all(np.isfinite(out)):
        raise ValueError("vector entries must be finite")
    return out


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Average mirrored entries; the result is bitwise symmetric."""
    return 0.5 * (M + M.T)


def mat_vec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    v = np.asarray(v, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if v.ndim != 1 or v.size != M.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {M.shape}, vector {v.shape}")
    return M @ v


def quadratic_form(M: np.ndarray, v: np.ndarray) -> float:
    """Return v^T M v.  Positive for PD ``M`` and nonzero ``v``."""
    return float(np.asarray(v, dtype=float) @ mat_vec(M, v))


def rank1_downdate(M: np.ndarray, w: np.ndarray, beta: float) -> np.ndarray:
    """Return M - beta * w w^T; exactly symmetric when ``M`` is."""
    M = np.asarray(M, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or M.shape != (w.size, w.size):
        raise ValueError(f"dimension mismatch: matrix {M.shape}, vector {w.shape}")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return M - beta * np.outer(w, w)


def cholesky(M: np.ndarray, pivot_tol: float | None = None) -> np.ndarray | None:
    """Lower-triangular L with L L^T = M, or None when M is not PD.

    By default a factorization is accepted only if every pivot exceeds
    ``PIVOT_TOL * max(diag(M))``; not-PD is a normal return, not an error.
    Callers that must factor extremely ill-conditioned but structurally
    sound matrices can pass ``pivot_tol=0.0`` to demand only strictly
    positive pivots.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if pivot_tol is None:
        tol = PIVOT_TOL * float(np.max(np.diagonal(A)))
    else:
        tol = float(pivot_tol)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    # LAPACK stops only at a pivot <= 0; the squared diagonal of L is the
    # pivot sequence, so the tolerance is applied to it afterwards.  Squaring
    # is monotone on the nonnegative diagonal, so testing the least entry
    # tests them all; NaN propagates through min and is rejected.
    least = float(np.diagonal(L).min(initial=np.inf))
    if not least * least > tol:
        return None
    return L


def log_det_pd(M: np.ndarray) -> float:
    """ln det M via the Cholesky factor; raises if M is not PD."""
    L = cholesky(M)
    if L is None:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    return 2.0 * float(np.sum(np.log(np.diagonal(L))))


def solve_pd(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M y = rhs for PD ``M`` through its Cholesky factor (two LAPACK solves)."""
    L = cholesky(M)
    if L is None:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 1 or b.size != L.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {M.shape}, rhs {b.shape}")
    return np.linalg.solve(L.T, np.linalg.solve(L, b))
