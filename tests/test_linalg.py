"""Tests for the engine's dense symmetric kernels."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsoid.engine import cholesky, mat_vec, quadratic_form, rank1_downdate
from instances import awkward_floats, random_pd, symmetrize

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def reference_cholesky(M):
    """The original pure-Python factor, kept as the reference for cholesky."""
    A = np.asarray(M, dtype=float)
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        pivot = A[j, j] - L[j, :j] @ L[j, :j]
        if not pivot > 0.0:  # also rejects NaN
            return None
        L[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def reference_case(rng, n: int, kind: str) -> np.ndarray:
    """A symmetric matrix whose PD verdict is far from any rounding edge."""
    if kind == "pd":
        return random_pd(rng, n)
    if kind in ("scaled_small", "scaled_tiny"):
        # Last pivot about 1e-10 or 1e-14 of the largest diagonal: small but
        # strictly positive, so both are accepted.
        d = np.ones(n)
        d[-1] = 1e-5 if kind == "scaled_small" else 1e-7
        return symmetrize(d[:, None] * random_pd(rng, n, floor=1.0) * d[None, :])
    if kind == "rank_one":
        # Exactly singular: integer v v^T has a zero pivot in exact arithmetic.
        v = rng.integers(1, 5, size=n).astype(float)
        return np.outer(v, v)
    if kind == "indefinite":
        M = random_pd(rng, n)
        return symmetrize(M - (np.linalg.eigvalsh(M)[0] + 0.5) * np.eye(n))
    if kind == "nan_diagonal":
        M = random_pd(rng, n)
        M[n - 1, n - 1] = math.nan
        return M
    M = random_pd(rng, n)  # nan_off_diagonal
    i = int(rng.integers(0, n))
    M[i, 0] = M[0, i] = math.nan
    return M


def test_mat_vec_reference_values():
    np.testing.assert_array_equal(
        mat_vec(np.eye(3), np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0]
    )
    np.testing.assert_array_equal(
        mat_vec(np.diag([4.0, 1.0]), np.array([1.0, 1.0])), [4.0, 1.0]
    )
    np.testing.assert_array_equal(
        mat_vec(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, -1.0])), [1.0, -1.0]
    )


def test_quadratic_form_reference_values():
    assert quadratic_form(np.eye(2), np.array([3.0, 4.0])) == 25.0
    assert quadratic_form(np.diag([4.0, 1.0]), np.array([1.0, 1.0])) == 5.0
    assert quadratic_form(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2)) == 0.0


def test_rank1_downdate_reference_values():
    e = np.array([1.0, 0.0])
    out = rank1_downdate(np.eye(2), e, e, 2.0 / 3.0)
    np.testing.assert_allclose(out, np.diag([1.0 / 3.0, 1.0]), rtol=0, atol=1e-15)

    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(rank1_downdate(M, np.ones(2), np.ones(2), 0.0), M)

    w = np.array([2.0, 0.0])
    out = rank1_downdate(np.diag([4.0, 4.0]), w, w, 0.5)
    np.testing.assert_array_equal(out, np.diag([2.0, 4.0]))


def test_cholesky_reference_values():
    np.testing.assert_array_equal(cholesky(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))
    np.testing.assert_array_equal(cholesky(np.eye(4)), np.eye(4))
    assert cholesky(np.array([[1.0, 2.0], [2.0, 1.0]])) is None


def test_cholesky_rejects_non_square():
    with pytest.raises(ValueError):
        cholesky(np.zeros((2, 3)))


def test_cholesky_demands_only_positive_pivots():
    # No tolerance relative to the largest diagonal entry: a huge condition
    # number still factors when every pivot is strictly positive.
    M = np.diag([1e-20, 1e6])
    L = cholesky(M)
    assert L is not None
    np.testing.assert_allclose(L @ L.T, M, rtol=1e-15)


def test_symmetrize_is_bitwise_symmetric():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    S = symmetrize(M)
    assert np.array_equal(S, S.T)
    np.testing.assert_array_equal(S, [[1.0, 2.5], [2.5, 4.0]])


@given(seeds, st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_quadratic_form_respects_pd_floor(seed, n):
    rng = np.random.default_rng(seed)
    delta = 0.5
    M = random_pd(rng, n, floor=delta)
    v = rng.normal(scale=3.0, size=n)
    assert quadratic_form(M, v) >= delta * float(v @ v) - 1e-9


@given(seeds, st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_cholesky_reconstructs_input(seed, n):
    rng = np.random.default_rng(seed)
    M = random_pd(rng, n)
    L = cholesky(M)
    assert L is not None
    err = np.abs(L @ L.T - M)
    assert np.all(err <= 1e-10 * (1.0 + np.abs(M)))


@given(
    seeds,
    st.integers(min_value=1, max_value=7),
    st.sampled_from(["pd", "scaled_small", "scaled_tiny", "rank_one", "indefinite",
                     "nan_diagonal", "nan_off_diagonal"]),
)
@settings(max_examples=200, deadline=None)
def test_cholesky_agrees_with_reference_factor(seed, n, kind):
    if n == 1 and kind in ("scaled_small", "scaled_tiny", "rank_one"):
        n = 2  # these need an off-diagonal to be near-singular
    M = reference_case(np.random.default_rng(seed), n, kind)
    expected = reference_cholesky(M)
    got = cholesky(M)
    if kind in ("rank_one", "indefinite") or kind.startswith("nan"):
        assert expected is None
    if kind.startswith("scaled"):
        assert expected is not None
    if expected is None:
        assert got is None
        return
    assert got is not None
    scale = math.sqrt(float(np.max(np.diagonal(M))))
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12 * scale)


@given(seeds, st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_rank1_downdate_output_exactly_symmetric(seed, n):
    # Bitwise, over wide scales: symmetrize would change no bit of the
    # result, so rank1_downdate does not need to call it.
    rng = np.random.default_rng(seed)
    M = random_pd(rng, n) * float(np.exp(rng.uniform(-20.0, 20.0)))
    w = rng.normal(size=n) * float(np.exp(rng.uniform(-10.0, 10.0)))
    D = rank1_downdate(M, w, w, float(rng.uniform(0.0, 2.0)))
    assert np.array_equal(D, D.T)
    assert D.tobytes() == symmetrize(D).tobytes()


@given(seeds, st.integers(min_value=2, max_value=6), st.floats(0.05, 0.9))
@settings(max_examples=60, deadline=None)
def test_downdate_matches_determinant_lemma(seed, n, frac):
    # det(M - beta w w^T) = det(M) * (1 - beta * w^T M^{-1} w)
    rng = np.random.default_rng(seed)
    M = random_pd(rng, n)
    w = rng.normal(size=n)
    q = float(w @ np.linalg.solve(M, w))
    beta = frac / q  # keeps the downdated matrix safely PD
    expected = np.linalg.slogdet(M)[1] + math.log1p(-beta * q)
    sign, got = np.linalg.slogdet(rank1_downdate(M, w, w, beta))
    assert sign > 0.0
    assert got == pytest.approx(expected, abs=1e-8)


def guard_reference(M):
    """np.linalg.cholesky, with None where it raises or where the square of
    its least pivot is not > 0."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    if L.size and not float(L.diagonal().min()) ** 2 > 0.0:
        return None
    return L


@given(
    seeds,
    st.integers(min_value=1, max_value=40),
    st.sampled_from(["pd", "scaled_small", "scaled_tiny", "rank_one", "indefinite",
                     "nan_diagonal", "nan_off_diagonal"]),
)
@settings(max_examples=200, deadline=None)
def test_cholesky_is_the_numpy_factor_bit_for_bit(seed, n, kind):
    if n == 1 and kind in ("scaled_small", "scaled_tiny", "rank_one"):
        n = 2
    M = reference_case(np.random.default_rng(seed), n, kind)
    expected = guard_reference(M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cholesky(M)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_cholesky_edge_inputs_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cholesky(np.zeros((0, 0))).shape == (0, 0)
        assert cholesky(np.zeros((3, 3))) is None
        assert cholesky(np.full((2, 2), math.nan)) is None
        assert cholesky(-np.eye(3)) is None
        # A pivot of 1e-320 is subnormal but positive; its root squares back
        # to a positive number, so the matrix is accepted.
        assert cholesky(np.diag([1e-320, 1.0])) is not None


def operand(rng, n: int, transposed: bool) -> np.ndarray:
    """An n x n matrix of awkward entries, C-ordered or the transpose of one."""
    M = awkward_floats(rng, (n, n))
    return M.T if transposed else M


@given(seeds, st.integers(min_value=1, max_value=40), st.booleans())
@settings(max_examples=200, deadline=None)
def test_products_are_the_matmul_forms_bit_for_bit(seed, n, transposed):
    # mat_vec and quadratic_form multiply through ndarray.dot; their bytes,
    # and the downdate's, must be those of the @ and np.outer forms on the
    # same operands, overflow, NaN, subnormal and signed-zero results
    # included, n = 1 too.
    rng = np.random.default_rng(seed)
    M, v = operand(rng, n, transposed), awkward_floats(rng, n)
    beta = float(rng.uniform(0.0, 2.0))
    with np.errstate(all="ignore"):
        assert mat_vec(M, v).tobytes() == (M @ v).tobytes()
        assert np.float64(quadratic_form(M, v)).tobytes() == (v @ (M @ v)).tobytes()
        expected = M - beta * np.outer(v, v)
        assert rank1_downdate(M, v, v, beta).tobytes() == expected.tobytes()


@given(seeds, st.integers(min_value=1, max_value=40), st.booleans())
@settings(max_examples=100, deadline=None)
def test_general_downdate_is_the_outer_form_bit_for_bit(seed, n, transposed):
    # M - beta * u v^T, the factor update's form, on awkward operands.
    rng = np.random.default_rng(seed)
    M, u, v = operand(rng, n, transposed), awkward_floats(rng, n), awkward_floats(rng, n)
    beta = float(rng.uniform(0.0, 2.0))
    with np.errstate(all="ignore"):
        expected = M - beta * np.outer(u, v)
        assert rank1_downdate(M, u, v, beta).tobytes() == expected.tobytes()
