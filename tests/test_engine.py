"""Tests for the ellipsoid state and the central-cut update."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsoid.engine import (
    VOLUME_AUDIT_TOL,
    DegenerateCutError,
    EllipsoidState,
    ball,
    central_cut_update,
    cholesky,
    log_volume_drift,
    step_log_ratio,
)
from ellipsoid.solver import Constraint
from instances import (
    contains,
    log_volume_from_shape,
    random_state,
    reference_central_cut_update,
    reference_factor_update,
    sample_in_ellipsoid,
    unit_direction,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=8)


def test_unit_ball_log_volumes():
    assert ball(2, 1.0).log_volume == pytest.approx(math.log(math.pi), abs=1e-14)
    assert ball(1, 1.0).log_volume == pytest.approx(math.log(2.0), abs=1e-14)
    assert ball(3, 1.0).log_volume == pytest.approx(
        math.log(4.0 * math.pi / 3.0), abs=1e-14
    )
    np.testing.assert_array_equal(ball(3, 1.0).shape, np.eye(3))
    np.testing.assert_array_equal(ball(3, 1.0).center, np.zeros(3))


def test_ball_log_volumes():
    assert ball(2, 2.0).log_volume == pytest.approx(math.log(4.0 * math.pi), abs=1e-14)
    assert ball(1, 5.0).log_volume == pytest.approx(math.log(10.0), abs=1e-14)


def test_ball_validates():
    with pytest.raises(ValueError):
        ball(0, 1.0)
    with pytest.raises(ValueError):
        ball(2, 0.0)


def test_state_validates_shapes_and_freezes_arrays():
    with pytest.raises(ValueError):
        EllipsoidState(np.zeros(2), np.eye(3), 0.0)
    s = ball(2, 1.0)
    with pytest.raises(ValueError):
        s.center[0] = 1.0
    with pytest.raises(ValueError):
        s.shape[0, 0] = 2.0
    assert s.dim == 2


def test_state_from_a_shape_carries_its_cholesky_factor():
    K = np.array([[4.0, 2.0], [2.0, 3.0]])
    s = EllipsoidState(np.zeros(2), K, 0.0)
    np.testing.assert_array_equal(s.factor, np.linalg.cholesky(K))
    np.testing.assert_array_equal(s.shape, K)
    with pytest.raises(ValueError):
        s.factor[0, 0] = 1.0
    with pytest.raises(AttributeError):
        s.log_volume = 1.0
    # A cut state forms J J^T once, read-only and exactly symmetric.
    out = s.cut(np.array([1.0, -2.0]))
    assert out.shape is out.shape and not out.shape.flags.writeable
    assert np.array_equal(out.shape, out.shape.T)
    np.testing.assert_array_equal(out.shape, out.factor @ out.factor.T)


def test_cut_validates_normal():
    # The update's own test on ||J^T a||^2 refuses a zero, NaN or inf normal,
    # on arrays and through the state alike; a normal of the wrong length is
    # a ValueError.  An inf normal meets the ball's zeros in J^T a, and numpy
    # flags 0 * inf as invalid on the way.
    state = ball(2, 1.0)
    for bad in (0.0, math.nan, math.inf, -math.inf):
        normal = np.array([bad, 0.0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(DegenerateCutError):
                central_cut_update(state.center, state.factor, normal)
            with pytest.raises(DegenerateCutError):
                state.cut(normal)
        with pytest.raises(ValueError):
            central_cut_update(state.center, state.factor, np.array([1.0, 0.0, bad]))


def test_single_cut_closed_form():
    out = ball(2, 1.0).cut(np.array([1.0, 0.0]))
    np.testing.assert_allclose(out.center, [1.0 / 3.0, 0.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        out.shape, np.diag([4.0 / 9.0, 4.0 / 3.0]), rtol=0, atol=1e-12
    )


def test_single_cut_axis_swap_and_normal_scaling():
    # The update is invariant under positive scaling of the normal, and the
    # coordinate swap moves the same geometry to the other axis.
    out = ball(2, 1.0).cut(np.array([0.0, 7.0]))
    np.testing.assert_allclose(out.center, [0.0, 1.0 / 3.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        out.shape, np.diag([4.0 / 3.0, 4.0 / 9.0]), rtol=0, atol=1e-12
    )


def test_single_cut_log_volume_change():
    out = ball(2, 1.0).cut(np.array([1.0, 0.0]))
    change = out.log_volume - math.log(math.pi)
    assert change == pytest.approx(math.log(4.0 / 3.0) + 0.5 * math.log(1.0 / 3.0), abs=1e-12)
    assert change == pytest.approx(step_log_ratio(2), abs=1e-15)


def test_step_log_ratio_reference_values():
    assert step_log_ratio(2) == pytest.approx(
        math.log(4.0 / 3.0) + 0.5 * math.log(1.0 / 3.0), abs=1e-15
    )
    assert step_log_ratio(2) < -1.0 / 6.0  # the guarantee is strictly weaker
    assert step_log_ratio(10) <= -1.0 / 22.0
    ratio = step_log_ratio(200) / (-1.0 / 402.0)
    assert abs(ratio - 1.0) <= 0.1


def test_step_log_ratio_bound_up_to_dim_1000():
    for n in range(2, 1001):
        assert step_log_ratio(n) <= -1.0 / (2.0 * (n + 1))


def test_step_log_ratio_rejects_dim_below_2():
    with pytest.raises(ValueError):
        step_log_ratio(1)


def test_contains_reference_values():
    assert contains(ball(2, 1.0), np.array([0.6, 0.6]))
    assert not contains(ball(2, 1.0), np.array([1.0, 1.0]))
    assert contains(ball(2, 2.0), np.array([1.9, 0.0]))


def test_contains_requires_pd_shape():
    # The state itself refuses a shape that is not PD, so no state can
    # reach contains without one.
    with pytest.raises(ValueError, match="not positive definite"):
        EllipsoidState(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 0.0)


def test_update_rejects_dim_1_and_degenerate_cuts():
    with pytest.raises(ValueError):
        EllipsoidState(np.zeros(1), np.eye(1), math.log(2.0)).cut(np.array([1.0]))
    flat = EllipsoidState(np.zeros(2), np.diag([1e-320, 1.0]), 0.0)
    with pytest.raises(DegenerateCutError):
        flat.cut(np.array([1.0, 0.0]))


def test_oblique_collapse_stays_finite_and_the_audit_sees_it():
    # Cutting along one fixed oblique direction flattens the ellipsoid: the
    # axis ratio grows by sqrt(3) per cut.  The factor stays finite through
    # 100 cuts; ln|det J| follows the running log-volume while J is well
    # conditioned, and the audit reports the drift once the small axis falls
    # below float resolution relative to the large one.
    state = ball(2, 2.0)
    cut = np.array([math.cos(0.3), math.sin(0.3)])
    for k in range(1, 101):
        state = state.cut(cut)
        assert np.isfinite(state.factor).all()
        if k <= 20:
            assert log_volume_drift(state.factor, state.log_volume) <= 1e-12
    assert log_volume_drift(state.factor, state.log_volume) > VOLUME_AUDIT_TOL


def test_deep_axis_aligned_sequence_stays_factorable():
    # With an exactly diagonal shape the pivots stay positive no matter how
    # extreme the axis ratio gets, so long sequences must not break down.
    state = ball(2, 2.0)
    cut = np.array([1.0, 0.0])
    for _ in range(70):
        state = state.cut(cut)
    assert cholesky(state.shape) is not None
    assert state.log_volume == pytest.approx(
        ball(2, 2.0).log_volume + 70 * step_log_ratio(2), abs=1e-9
    )


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_volume_law_matches_independent_determinant(seed, n):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    out = state.cut(unit_direction(rng, n))
    _, old_ld = np.linalg.slogdet(state.shape)
    _, new_ld = np.linalg.slogdet(out.shape)
    expected = n * math.log(n * n / (n * n - 1.0)) + math.log((n - 1.0) / (n + 1.0))
    assert new_ld - old_ld == pytest.approx(expected, abs=1e-8)


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_cut_scale_invariance(seed, n):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    a = unit_direction(rng, n)
    base = state.cut(a)
    for lam in (1e-6, 1e6):
        scaled = state.cut(lam * a)
        c_err = np.max(np.abs(scaled.center - base.center))
        s_err = np.max(np.abs(scaled.shape - base.shape))
        assert c_err <= 1e-12 * (1.0 + np.max(np.abs(base.center)))
        assert s_err <= 1e-12 * (1.0 + np.max(np.abs(base.shape)))


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_new_center_sits_at_fixed_depth(seed, n):
    # The center moves to depth 1/(n+1) of the old ellipsoid along the cut.
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    out = state.cut(unit_direction(rng, n))
    d = out.center - state.center
    q = float(d @ np.linalg.solve(state.shape, d))
    assert q == pytest.approx(1.0 / (n + 1) ** 2, abs=1e-10)


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_update_preserves_pd_certification(seed, n):
    # Every pivot of the factor also clears 1e-12 of the largest diagonal
    # entry, far above the strictly positive pivots cholesky demands.
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    out = state.cut(unit_direction(rng, n))
    for K in (state.shape, out.shape):
        L = cholesky(K)
        assert L is not None
        assert float(np.diagonal(L).min()) ** 2 > 1e-12 * float(np.max(np.diagonal(K)))


@given(seeds, dims)
@settings(max_examples=25, deadline=None)
def test_half_ellipsoid_containment(seed, n):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    a = unit_direction(rng, n)
    out = state.cut(a)
    pts = sample_in_ellipsoid(rng, state, 400)
    kept = pts[(pts - state.center) @ a >= 0.0]
    for x in kept:
        assert contains(out, x, slack=1e-9)


@given(seeds, dims)
@settings(max_examples=25, deadline=None)
def test_incremental_log_volume_matches_audit(seed, n):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    for _ in range(5):
        state = state.cut(unit_direction(rng, n))
    assert state.log_volume == pytest.approx(log_volume_from_shape(state), abs=1e-8)


def assert_same_sequence(state: EllipsoidState, cuts) -> type | None:
    """Apply ``cuts`` with the engine and the plain-numpy J-form reference;
    results and failures must be identical, byte for byte.

    Returns the breakdown's exception class, or None if every cut applied.
    """
    ours, ref = state, (state.center, state.factor, state.log_volume)
    for cut in cuts:
        try:
            ref = reference_factor_update(*ref, cut)
        except DegenerateCutError:
            with pytest.raises(DegenerateCutError):
                ours.cut(cut)
            return DegenerateCutError
        ours = ours.cut(cut)
        assert ours.center.tobytes() == ref[0].tobytes()
        assert ours.factor.tobytes() == ref[1].tobytes()
        assert ours.log_volume == ref[2]
        assert not ours.center.flags.writeable and not ours.factor.flags.writeable
    return None


@given(seeds, dims, st.integers(min_value=1, max_value=20), st.booleans())
@settings(max_examples=60, deadline=None)
def test_update_is_bit_identical_to_reference(seed, n, count, flat):
    rng = np.random.default_rng(seed)
    if flat:
        # Start somewhere along one repeated oblique cut from the ball, up
        # to the cut where it degenerates (about 850 cuts in n = 2), and
        # keep cutting mostly along it: badly conditioned factors, and in
        # the plane sequences that degenerate within 20 cuts.
        u = unit_direction(rng, n)
        state, stop = ball(n, 2.0), int(rng.integers(0, 900))
        with contextlib.suppress(DegenerateCutError):
            for _ in range(stop):
                state = state.cut(u)
        cuts = [u if rng.random() < 0.8 else unit_direction(rng, n) for _ in range(count)]
    else:
        state = random_state(rng, n)
        cuts = [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) for _ in range(count)]
    assert_same_sequence(state, cuts)


def test_update_breaks_down_where_the_reference_does():
    # The oblique collapse of test_oblique_collapse_stays_finite_and_the_audit_sees_it
    # applies every cut as the reference does; an exactly degenerate cut
    # fails in both at the same step.
    cut = np.array([math.cos(0.3), math.sin(0.3)])
    assert assert_same_sequence(ball(2, 2.0), [cut] * 100) is None
    flat = EllipsoidState(np.zeros(2), np.diag([1e-320, 1.0]), 0.0)
    assert assert_same_sequence(flat, [np.array([1.0, 0.0])]) is DegenerateCutError


@given(seeds, dims, st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
def test_factor_form_matches_the_shape_form_reference(seed, n, count):
    # The K-form update, on K itself, is the independent cross-check: each
    # cut rounds either form by a few units of eps relative to the largest
    # entry, so after k cuts J J^T is within 16 n k eps of K, and the two
    # centers within 16 n k eps in the metric of K.
    rng = np.random.default_rng(seed)
    ours = ref = random_state(rng, n)
    for _ in range(count):
        cut = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        ours, ref = ours.cut(cut), reference_central_cut_update(ref, cut)
    bound = 16 * n * count * np.finfo(float).eps
    K = ref.shape
    assert np.max(np.abs(ours.shape - K)) <= bound * np.max(np.abs(K))
    offset = np.linalg.solve(np.linalg.cholesky(K), ours.center - ref.center)
    assert float(np.max(np.abs(offset))) <= bound
    assert ours.log_volume == ref.log_volume


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_log_volume_drift_is_small_on_well_conditioned_states(seed, n):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    assert log_volume_drift(state.factor, state.log_volume) <= 1e-12
    for _ in range(20):
        state = state.cut(unit_direction(rng, n))
    assert log_volume_drift(state.factor, state.log_volume) <= 1e-9


@given(seeds, st.integers(min_value=2, max_value=40))
@settings(max_examples=60, deadline=None)
def test_cut_on_a_constraint_is_the_cut_on_its_normal(seed, n):
    # The solve loop cuts on the violated row's own frozen normal, with the
    # update on arrays and the log-volume moved by step_log_ratio; that must
    # be the state's cut on a fresh copy of the normal, byte for byte.
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    for _ in range(3):
        con = Constraint(rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3), float(rng.normal()))
        center, factor = central_cut_update(state.center, state.factor, con.normal)
        log_volume = state.log_volume + step_log_ratio(n)
        want = state.cut(con.normal.copy())
        assert center.tobytes() == want.center.tobytes()
        assert factor.tobytes() == want.factor.tobytes()
        assert factor.dot(factor.T).tobytes() == want.shape.tobytes()
        assert np.float64(log_volume).tobytes() == np.float64(want.log_volume).tobytes()
        state = want


def test_update_checks_cut_length():
    with pytest.raises(ValueError):
        ball(3, 1.0).cut(np.array([1.0, 0.0]))
