"""Tests for the cutting loop, outcomes, and certification."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellipsoid import engine
from ellipsoid.engine import VOLUME_AUDIT_TOL, ball, log_volume_drift, step_log_ratio
from ellipsoid import solver
from ellipsoid.solver import (
    Constraint,
    Feasible,
    IterationCapReached,
    LinearSystem,
    NumericalBreakdown,
    SolverConfig,
    VolumeExhausted,
    certify,
    find_violated,
    iteration_cap,
    row_tolerance,
    solve,
)
from instances import (
    awkward_floats,
    feasible_instance,
    infeasible_instance,
    reference_deepest_violated,
    reference_solve,
    unit_direction,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def quadrant_system() -> LinearSystem:
    return LinearSystem(
        2,
        (
            Constraint(np.array([1.0, 0.0]), 0.5),
            Constraint(np.array([0.0, 1.0]), 0.5),
        ),
        2.0,
    )


def disjoint_system() -> LinearSystem:
    # x1 >= 1 and x1 <= 0 cannot both hold.
    return LinearSystem(
        2,
        (
            Constraint(np.array([1.0, 0.0]), 1.0),
            Constraint(np.array([-1.0, 0.0]), 0.0),
        ),
        2.0,
    )


def test_constraint_validation_and_senses():
    with pytest.raises(ValueError):
        Constraint(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        Constraint(np.array([1.0, 0.0]), math.inf)
    le = Constraint.from_row([1.0, 0.0], 0.5, "<=")
    np.testing.assert_array_equal(le.normal, [-1.0, 0.0])
    assert le.bound == -0.5
    ge = Constraint.from_row([1.0, 0.0], 0.5, ">=")
    np.testing.assert_array_equal(ge.normal, [1.0, 0.0])
    with pytest.raises(ValueError):
        Constraint.from_row([1.0], 0.5, "==")


@pytest.mark.parametrize("normal", [
    [6.5e299, 3.5], [1e-200, 1e-200], [1e-160, 0.0], [1e-162, 0.0], [5e-324, 0.0],
    [2.5e-162, 2.5e-162], [1.2e-162, 1.2e-162, 1.2e-162], [1e308, -1e308], [0.0, -0.0],
])
def test_constraint_accepts_the_normals_that_a_dot_a_accepts(normal):
    # Nonzero means a.a > 0 in floats: a row whose squares all underflow is
    # rejected like the zero row, one whose a.a overflows is kept, and
    # building it warns nothing (the suite turns warnings into errors).
    a = np.array(normal)
    with np.errstate(all="ignore"):
        valid = bool(a.dot(a) > 0.0)
    if valid:
        assert Constraint(a, 0.0).normal.tobytes() == a.tobytes()
    else:
        with pytest.raises(ValueError):
            Constraint(a, 0.0)


def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(0, (), 1.0)
    with pytest.raises(ValueError):
        LinearSystem(2, (), -1.0)
    with pytest.raises(ValueError):
        LinearSystem(2, (Constraint(np.array([1.0]), 0.0),), 1.0)


@pytest.mark.parametrize("radius", [1e155, 1e200, 1.7e308, math.inf, math.nan])
def test_radius_whose_square_is_not_finite_is_rejected(radius):
    # K = R^2 I would hold inf, and the first cut would read a^T K a = nan.
    with pytest.raises(ValueError, match="finite square"):
        LinearSystem(2, (), radius)
    if radius > 0.0:
        with pytest.raises(ValueError, match="finite square"):
            ball(2, radius)


@pytest.mark.parametrize("radius", [1e-170, 5e-324])
def test_radius_whose_square_underflows_is_rejected(radius):
    # R^2 I would be 0, which no factor J can carry.
    with pytest.raises(ValueError, match="nonzero, finite square"):
        LinearSystem(2, (), radius)
    with pytest.raises(ValueError, match="positive, finite square"):
        ball(2, radius)
    assert LinearSystem(2, (), 1e-150).radius == 1e-150


def test_largest_radii_with_a_finite_square_are_kept():
    radius = 1.3e154
    assert math.isfinite(radius * radius)
    assert LinearSystem(2, (), radius).radius == radius
    np.testing.assert_array_equal(ball(3, radius).shape, radius * radius * np.eye(3))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=math.inf)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=1.0, violation_tolerance=-1e-9)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=1.0, violation_tolerance=math.nan)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=1.0, max_iterations=-1)
    assert SolverConfig(epsilon=1.0, max_iterations=0).max_iterations == 0


@pytest.mark.parametrize("field, value", [
    ("violation_tolerance", math.nan), ("epsilon", -1.0), ("max_iterations", -1),
    ("trace", print),
])
def test_solver_config_is_frozen(field, value):
    # A field set after construction would skip the checks above: a NaN
    # tolerance passes every row, so solve would answer Feasible([0, 0])
    # for x1 >= 0.5.
    cfg = SolverConfig(epsilon=1e-3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, value)
    sys = LinearSystem(2, (Constraint(np.array([1.0, 0.0]), 0.5),), 1.0)
    out = solve(sys, cfg)
    assert isinstance(out, Feasible) and out.point[0] >= 0.5 - 1e-9


def test_find_violated_first_match_rule():
    sys = quadrant_system()
    assert find_violated(sys, np.array([0.75, 0.75])) is None
    idx, con = find_violated(sys, np.array([0.0, 0.75]))
    assert idx == 0 and con is sys.constraints[0]
    idx, _ = find_violated(sys, np.array([0.0, 0.0]))
    assert idx == 0  # both violated; lowest index wins


def test_find_violated_tolerance_scales_with_bound():
    assert row_tolerance(1e-9, 9.0) == pytest.approx(1e-8)
    big = LinearSystem(2, (Constraint(np.array([1.0, 0.0]), 1e6),), 2e6)
    # Slack -1e-4 is within 1e-9 * (1 + 1e6) of the bound, so not a violation.
    assert find_violated(big, np.array([1e6 - 1e-4, 0.0])) is None
    small = LinearSystem(2, (Constraint(np.array([1.0, 0.0]), 0.0),), 2.0)
    assert find_violated(small, np.array([-1e-4, 0.0])) is not None


@given(
    seeds,
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([0.0, 1e-9, 1e-6]),
)
@settings(max_examples=150, deadline=None)
def test_find_violated_matches_per_row_reference(seed, n, m, tol):
    rng = np.random.default_rng(seed)
    # Bounds of both signs spanning twelve orders of magnitude.  In half the
    # draws with tol = 0 every bound is subnormal and every row is on the
    # edge: the depths are then subnormal, and over ||a|| they can underflow
    # to 0.
    tiny = tol == 0.0 and rng.random() < 0.5
    b = rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(-6.0, 6.0, size=m)
    if tiny:
        b = rng.integers(-3, 4, size=m) * 5e-324
    floor = b - tol * (1.0 + np.abs(b))
    A = rng.normal(size=(m, n))
    # At x = e_0 the product A @ x is exactly A[:, 0], so rows whose first
    # entry is their floor or one ulp either side put that point exactly on
    # the tolerance edge.
    edge = rng.random(m) < (1.0 if tiny else 0.7)
    step = rng.integers(-1, 2, size=m)
    on_edge = np.where(step < 0, np.nextafter(floor, -np.inf),
                       np.where(step > 0, np.nextafter(floor, np.inf), floor))
    A[:, 0] = np.where(edge, on_edge, A[:, 0])
    if tiny:
        # A depth of 5e-324 survives the scaling when ||a|| < 2 and underflows
        # otherwise.  Half these draws mix norms from about 0.1 to 30; in the
        # other half most rows underflow, often all violated ones.
        scale = 10.0 ** rng.integers(-1, 2, size=(m, 1)) if rng.random() < 0.5 else 10.0
        A[:, 1:] *= scale
    sys = LinearSystem(n, tuple(Constraint(a, float(v)) for a, v in zip(A, b)), 1.0)

    e0 = np.zeros(n)
    e0[0] = 1.0
    points = [e0, rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 7.0)]
    for x in points:
        expected = reference_deepest_violated(sys, x, tol)
        hit = find_violated(sys, x, tol)
        if expected is None:
            assert hit is None
        else:
            assert hit is not None
            assert hit[0] == expected and hit[1] is sys.constraints[expected]
    if m == 0:
        assert find_violated(sys, e0, tol) is None


@given(seeds, st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=40))
@settings(max_examples=100, deadline=None)
def test_find_violated_ignores_row_order(seed, n, m):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
    b = rng.normal(size=m) * 10.0 ** rng.uniform(-3.0, 3.0, size=m)
    x = rng.normal(size=n)
    rows = [Constraint(a, float(v)) for a, v in zip(A, b)]
    sys = LinearSystem(n, tuple(rows), 1.0)
    depth = (b - 1e-9 * (1.0 + np.abs(b)) - A @ x) / np.linalg.norm(A, axis=1)
    top = np.sort(depth)[-2:]
    # Skip near-ties, which rounding in the product may order either way.
    assume(top[1] > 0.0 and top[1] - top[0] > 1e-9 * abs(top[1]))
    hit = find_violated(sys, x)
    assert hit is not None and hit[1] is rows[int(depth.argmax())]
    order = rng.permutation(m)
    shuffled = LinearSystem(n, tuple(rows[i] for i in order), 1.0)
    assert find_violated(shuffled, x)[1] is hit[1]


@given(seeds, st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=40),
       st.integers(min_value=-40, max_value=40))
@settings(max_examples=100, deadline=None)
def test_find_violated_ignores_power_of_two_row_scaling(seed, n, m, exponent):
    # With tol = 0 the floor is b itself, so scaling a row and its bound by
    # 2^k scales its depth and its norm by exactly 2^k.
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    x = rng.normal(size=n)
    sys = LinearSystem(n, tuple(Constraint(a, float(v)) for a, v in zip(A, b)), 1.0)
    k = int(rng.integers(m))
    scale = 2.0 ** exponent
    A[k] *= scale
    b[k] *= scale
    scaled = LinearSystem(n, tuple(Constraint(a, float(v)) for a, v in zip(A, b)), 1.0)
    hit = find_violated(sys, x, 0.0)
    moved = find_violated(scaled, x, 0.0)
    assert (hit is None) == (moved is None)
    if hit is not None:
        assert moved[0] == hit[0]


def test_find_violated_keeps_a_row_whose_scaled_depth_underflows():
    # At the origin the second row's depth is the least subnormal, 5e-324;
    # over ||a|| = 4 it rounds to 0, yet the row is violated.
    sys = LinearSystem(
        2,
        (
            Constraint(np.array([1.0, 0.0]), -1.0),
            Constraint(np.array([4.0, 0.0]), 5e-324),
        ),
        2.0,
    )
    origin = np.zeros(2)
    idx, con = find_violated(sys, origin, 0.0)
    assert idx == 1 and con is sys.constraints[1]
    report = certify(Feasible(origin, 0), sys, violation_tolerance=0.0)
    assert not report.passed and report.worst_index == 1
    out = solve(sys, SolverConfig(epsilon=1e-6, violation_tolerance=0.0))
    assert isinstance(out, Feasible)
    assert find_violated(sys, out.point, 0.0) is None
    assert certify(out, sys, violation_tolerance=0.0).passed


def test_find_violated_keeps_a_row_whose_norm_overflows():
    # a.a overflows, so 1/||a|| is 0 and the second row's scaled depth reads
    # 0 although the origin violates it by 1e200.
    with np.errstate(over="ignore"):
        huge = Constraint(np.array([1e200, 1e200]), 1e200)
    sys = LinearSystem(2, (Constraint(np.array([1.0, 0.0]), -1.0), huge), 2.0)
    origin = np.zeros(2)
    assert find_violated(sys, origin, 0.0)[0] == 1
    assert reference_deepest_violated(sys, origin, 0.0) == 1
    assert not certify(Feasible(origin, 0), sys, violation_tolerance=0.0).passed


@given(seeds, st.integers(min_value=2, max_value=6), st.sampled_from(
    ["feasible", "empty", "tilted", "gaussian"]))
@settings(max_examples=60, deadline=None)
def test_solve_matches_reference_loop_bit_for_bit(seed, n, kind):
    rng = np.random.default_rng(seed)
    eps = 1e-3 * math.exp(ball(n, 2.0).log_volume)
    cap = None
    if kind == "feasible":
        sys, _ = feasible_instance(rng, n, int(rng.integers(1, 30)))
    elif kind == "empty":
        sys = infeasible_instance(rng, n, int(rng.integers(2, 30)))
    elif kind == "tilted":
        # A thin oblique slab with epsilon out of reach: the run ends in a
        # numerical breakdown.
        u = unit_direction(rng, n)
        sys = LinearSystem(n, (Constraint(u, 0.3), Constraint(-u, -0.3 + 1e-3)), 2.0)
        eps = 1e-300
    else:
        # Rows of mixed scale through points near the origin, some capped.
        m = int(rng.integers(0, 30))
        A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
        b = A @ rng.normal(scale=0.5, size=n) - rng.uniform(0.0, 1.0, size=m)
        sys = LinearSystem(n, tuple(Constraint(a, float(v)) for a, v in zip(A, b)), 2.0)
        cap = int(rng.integers(0, 60))
    cfg = SolverConfig(epsilon=eps, max_iterations=cap)
    expected, ref_records = reference_solve(sys, cfg)

    records = []
    traced = SolverConfig(epsilon=eps, max_iterations=cap, trace=records.append)
    for config in (cfg, traced):
        if isinstance(expected, int):
            with pytest.raises(NumericalBreakdown) as info:
                solve(sys, config)
            assert info.value.iteration == expected
        else:
            out = solve(sys, config)
            assert type(out) is type(expected) and out.iterations == expected.iterations
            if isinstance(out, Feasible):
                assert out.point.tobytes() == expected.point.tobytes()
            elif isinstance(out, VolumeExhausted):
                assert out.final_log_volume == expected.final_log_volume
    assert len(records) == len(ref_records)
    for rec, (it, row, center, log_volume, aKa, shape) in zip(records, ref_records):
        assert rec.iter == it and rec.violated_index == row
        assert np.array(rec.center).tobytes() == center.tobytes()
        assert rec.log_volume == log_volume
        assert rec.cut_quadratic_form == aKa
        assert rec.shape.tobytes() == shape.tobytes()


def test_iteration_cap_reference_values():
    assert iteration_cap(3, math.log(1e-6), 1e-6) == 1
    assert iteration_cap(2, 1.0, math.exp(0.0)) == 6  # V0/eps = e
    assert iteration_cap(9, 2.0, 1.0) == 40  # V0/eps = e^2
    with pytest.raises(ValueError):
        iteration_cap(2, 0.0, 0.0)


def test_solve_feasible_quadrant():
    sys = quadrant_system()
    out = solve(sys, SolverConfig(epsilon=1e-6))
    assert isinstance(out, Feasible)
    for con in sys.constraints:
        assert con.normal @ out.point - con.bound >= -row_tolerance(1e-9, con.bound)
    report = certify(out, sys)
    assert report.kind == "feasible" and report.passed


def test_solve_disjoint_exhausts_volume():
    sys = disjoint_system()
    out = solve(sys, SolverConfig(epsilon=1e-6))
    assert isinstance(out, VolumeExhausted)
    assert out.final_log_volume < math.log(1e-6)
    log_v0 = ball(2, 2.0).log_volume
    assert out.iterations <= iteration_cap(2, log_v0, 1e-6)
    # The tracked log-volume is an exact arithmetic sequence.
    assert out.final_log_volume == pytest.approx(
        log_v0 + out.iterations * step_log_ratio(2), abs=1e-6 * out.iterations
    )


def test_solve_unconstrained_returns_origin():
    out = solve(LinearSystem(3, (), 1.0), SolverConfig(epsilon=1e-6))
    assert isinstance(out, Feasible)
    np.testing.assert_array_equal(out.point, np.zeros(3))
    assert out.iterations == 0


def test_solve_respects_iteration_cap():
    out = solve(disjoint_system(), SolverConfig(epsilon=1e-6, max_iterations=3))
    assert out == IterationCapReached(3)
    report = certify(out, disjoint_system())
    assert report.kind == "iteration_cap_reached" and report.passed


def test_solve_raises_numerical_breakdown_on_oblique_collapse():
    # An empty slab at an oblique angle flattens the ellipsoid until float
    # cancellation moves ln|det J| off the running volume; epsilon is set far
    # below what is reachable so the volume audit fires first.
    c, s = math.cos(0.3), math.sin(0.3)
    sys = LinearSystem(
        2,
        (
            Constraint(np.array([c, s]), 1.0),
            Constraint(np.array([-c, -s]), 0.0),
        ),
        2.0,
    )
    with pytest.raises(NumericalBreakdown) as info:
        solve(sys, SolverConfig(epsilon=1e-30))
    assert info.value.iteration > 0
    assert "numerical breakdown at iteration" in str(info.value)


def test_volume_audit_fires_on_drift():
    # The same slab at 1e-8 of the initial volume: the volume would run out
    # at cut 71, but ln|det J| drifts past the tolerance first, and an audit
    # (every 2n = 4 cuts) stops the run.
    c, s = math.cos(0.3), math.sin(0.3)
    rows = (Constraint(np.array([c, s]), 1.0), Constraint(np.array([-c, -s]), 0.0))
    sys = LinearSystem(2, rows, 2.0)
    eps = 1e-8 * math.exp(ball(2, 2.0).log_volume)
    needed = math.ceil(math.log(1e-8) / step_log_ratio(2))
    with pytest.raises(NumericalBreakdown) as info:
        solve(sys, SolverConfig(epsilon=eps))
    assert info.value.iteration < needed and info.value.iteration % 4 == 0
    drift = float(info.value.reason.split(" nats")[0].rsplit(" ", 1)[1])
    assert drift > VOLUME_AUDIT_TOL
    assert f"tolerance {VOLUME_AUDIT_TOL:g}" in info.value.reason
    # The audit reads the state after the last cut, which the trace's last
    # record holds.
    records = []
    with pytest.raises(NumericalBreakdown):
        solve(sys, SolverConfig(epsilon=eps, trace=records.append))
    assert len(records) == info.value.iteration


def test_volume_audit_passes_the_volume_claim_of_a_clean_run():
    records = []
    out = solve(disjoint_system(), SolverConfig(epsilon=1e-6, trace=records.append))
    assert isinstance(out, VolumeExhausted)
    final = records[-1]
    assert final.log_volume == out.final_log_volume
    sign, log_det = np.linalg.slogdet(final.shape)
    assert sign > 0.0
    drift = abs(out.final_log_volume - engine.log_unit_ball_volume(2) - 0.5 * log_det)
    assert drift <= VOLUME_AUDIT_TOL


@pytest.mark.parametrize("cap", [None, 3])
@pytest.mark.parametrize("empty", [False, True])
def test_every_answer_is_audited(monkeypatch, empty, cap):
    # Audits run every 2n cuts and before each return after a cut, so a
    # drift there turns any answer into a breakdown at the same cut.
    if empty:
        sys, eps = disjoint_system(), 1e-6
    else:
        sys, eps = feasible_instance(np.random.default_rng(3), 3, 12)[0], 1e-3
    cfg = SolverConfig(epsilon=eps, max_iterations=cap)
    out = solve(sys, cfg)
    assert out.iterations > 0 and (cap is None or out.iterations == cap)
    audited = []
    drift = solver.log_volume_drift
    monkeypatch.setattr(solver, "log_volume_drift",
                        lambda state: audited.append(drift(state)) or audited[-1])
    again = solve(sys, cfg)
    assert type(again) is type(out) and again.iterations == out.iterations
    n = sys.dim
    assert len(audited) == out.iterations // (2 * n) + bool(out.iterations % (2 * n))
    monkeypatch.setattr(solver, "log_volume_drift", lambda state: 2 * VOLUME_AUDIT_TOL)
    with pytest.raises(NumericalBreakdown) as info:
        solve(sys, cfg)
    assert info.value.iteration == min(out.iterations, 2 * n)


def test_volume_audit_reports_a_singular_factor(monkeypatch):
    monkeypatch.setattr(solver, "log_volume_drift", lambda state: math.inf)
    with pytest.raises(NumericalBreakdown, match="det J is 0 or not finite"):
        solve(disjoint_system(), SolverConfig(epsilon=1e-6))


def test_a_solve_factors_at_most_one_matrix(monkeypatch):
    # Only the bounding ball is factored; a cut never is.
    sys = infeasible_instance(np.random.default_rng(7), 30, 30)
    eps = 1e-3 * math.exp(ball(30, sys.radius).log_volume)
    calls = []
    cholesky = engine.cholesky
    monkeypatch.setattr(engine, "cholesky", lambda M: calls.append(M) or cholesky(M))
    out = solve(sys, SolverConfig(epsilon=eps))
    assert isinstance(out, VolumeExhausted) and out.iterations >= 400
    assert len(calls) <= 1


@pytest.mark.parametrize("kind", ["feasible", "empty", "gaussian"])
@pytest.mark.parametrize("seed", range(40))
def test_solve_makes_the_cuts_of_the_shape_form_loop(seed, kind):
    # The K-form loop is the independent reference: the same outcome type
    # after the same number of cuts, wherever it does not break down.
    rng = np.random.default_rng(seed)
    n = 2 + seed % 5
    eps = 1e-3 * math.exp(ball(n, 2.0).log_volume)
    if kind == "feasible":
        sys, _ = feasible_instance(rng, n, int(rng.integers(1, 30)))
    elif kind == "empty":
        sys = infeasible_instance(rng, n, int(rng.integers(2, 30)))
    else:
        m = int(rng.integers(0, 30))
        A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
        b = A @ rng.normal(scale=0.5, size=n) - rng.uniform(0.0, 1.0, size=m)
        sys = LinearSystem(n, tuple(Constraint(a, float(v)) for a, v in zip(A, b)), 2.0)
    cfg = SolverConfig(epsilon=eps)
    expected, _ = reference_solve(sys, cfg, factored=False)
    assert not isinstance(expected, int)
    out = solve(sys, cfg)
    assert type(out) is type(expected) and out.iterations == expected.iterations


def test_trace_records_follow_the_cut_sequence():
    records = []
    sys = disjoint_system()
    out = solve(sys, SolverConfig(epsilon=1e-6, trace=records.append))
    assert isinstance(out, VolumeExhausted)
    assert len(records) == out.iterations
    assert [r.iter for r in records] == list(range(out.iterations))
    log_v0 = ball(2, 2.0).log_volume
    expected = log_v0 + step_log_ratio(2)
    for rec in records:
        assert rec.violated_index in (0, 1)
        assert rec.cut_quadratic_form > 0.0
        assert rec.log_volume == pytest.approx(expected, abs=1e-9)
        expected += step_log_ratio(2)


def test_trace_ends_with_terminal_record_on_feasible():
    records = []
    out = solve(quadrant_system(), SolverConfig(epsilon=1e-6, trace=records.append))
    assert isinstance(out, Feasible)
    last = records[-1]
    assert last.violated_index is None and last.cut_quadratic_form is None
    assert last.iter == out.iterations
    np.testing.assert_array_equal(last.center, out.point)
    assert len(records) == out.iterations + 1


def test_solve_one_dimensional_fallback():
    feas = LinearSystem(
        1,
        (Constraint(np.array([1.0]), 0.5), Constraint(np.array([-1.0]), -1.0)),
        2.0,
    )
    out = solve(feas, SolverConfig(epsilon=1e-6))
    assert isinstance(out, Feasible)
    assert out.point[0] == pytest.approx(0.75)
    assert out.iterations == 0

    infeas = LinearSystem(
        1,
        (Constraint(np.array([1.0]), 1.0), Constraint(np.array([-1.0]), 0.0)),
        2.0,
    )
    out = solve(infeas, SolverConfig(epsilon=1e-6))
    assert isinstance(out, VolumeExhausted)
    assert out.final_log_volume == -math.inf

    out = solve(LinearSystem(1, (), 3.0), SolverConfig(epsilon=1e-6))
    assert isinstance(out, Feasible) and out.point[0] == 0.0


def test_certify_reference_values():
    sys = quadrant_system()
    good = certify(Feasible(np.array([0.75, 0.75]), 5), sys)
    assert good.passed and good.min_slack == pytest.approx(0.25)

    bad = certify(Feasible(np.array([0.0, 0.75]), 5), sys)
    assert not bad.passed
    assert bad.worst_index == 0 and bad.min_slack == pytest.approx(-0.5)

    margin = certify(
        VolumeExhausted(math.log(1e-6) - 1.0, 10), sys, epsilon=1e-6
    )
    assert margin.passed and margin.log_volume_margin == pytest.approx(1.0)

    unchecked = certify(VolumeExhausted(-50.0, 10), sys)
    assert unchecked.passed and "unchecked" in unchecked.notes

    empty = certify(Feasible(np.zeros(2), 0), LinearSystem(2, (), 1.0))
    assert empty.passed and empty.min_slack == math.inf


def test_certify_checks_every_row_against_its_own_tolerance():
    # Row 0 has the more negative slack but is inside its 1e-9*(1+1e6)
    # tolerance; row 1 misses its 1e-9 tolerance and must fail the check.
    sys = LinearSystem(
        2,
        (
            Constraint(np.array([1.0, 0.0]), 1e6),
            Constraint(np.array([0.0, 1.0]), 0.0),
        ),
        2e6,
    )
    point = np.array([1e6 - 5e-4, -1e-6])
    assert find_violated(sys, point)[0] == 1
    report = certify(Feasible(point, 0), sys)
    assert not report.passed
    assert report.worst_index == 1 and report.min_slack == pytest.approx(-1e-6)
    # Within tolerance on both rows: passes, worst is still the tighter row.
    ok = certify(Feasible(np.array([1e6 - 5e-4, -5e-10]), 0), sys)
    assert ok.passed and ok.worst_index == 1


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_solve_is_sound_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(2, 11))
    if seed % 2 == 0:
        sys, _ = feasible_instance(rng, n, m)
    else:
        sys = infeasible_instance(rng, n, m)
    log_v0 = ball(n, sys.radius).log_volume
    eps = 1e-3 * math.exp(log_v0)
    out = solve(sys, SolverConfig(epsilon=eps))
    if isinstance(out, Feasible):
        assert certify(out, sys).passed
    else:
        assert isinstance(out, VolumeExhausted)
        assert out.final_log_volume < math.log(eps)
        assert out.iterations <= iteration_cap(n, log_v0, eps)
    # Asking for a trace must not change the cut sequence or its outcome.
    records = []
    traced = solve(sys, SolverConfig(epsilon=eps, trace=records.append))
    assert type(traced) is type(out) and traced.iterations == out.iterations
    if isinstance(out, Feasible):
        np.testing.assert_array_equal(traced.point, out.point)
    else:
        assert traced.final_log_volume == out.final_log_volume
    assert len(records) == out.iterations + isinstance(out, Feasible)


@given(
    seeds,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([0.0, 1e-9, 1e-6]),
)
@settings(max_examples=150, deadline=None)
def test_certify_accepts_exactly_what_separation_accepts(seed, n, m, tol):
    # Same construction as test_find_violated_matches_per_row_reference:
    # at x = e_0 many rows sit exactly on their tolerance edge or one ulp
    # either side of it.
    rng = np.random.default_rng(seed)
    b = rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(-6.0, 6.0, size=m)
    floor = b - tol * (1.0 + np.abs(b))
    A = rng.normal(size=(m, n))
    edge = rng.random(m) < 0.9
    step = rng.integers(-1, 2, size=m)
    on_edge = np.where(step < 0, np.nextafter(floor, -np.inf),
                       np.where(step > 0, np.nextafter(floor, np.inf), floor))
    A[:, 0] = np.where(edge, on_edge, A[:, 0])
    sys = LinearSystem(n, tuple(Constraint(a, float(v)) for a, v in zip(A, b)), 1.0)

    e0 = np.zeros(n)
    e0[0] = 1.0
    for x in (e0, rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 7.0)):
        report = certify(Feasible(x, 0), sys, violation_tolerance=tol)
        assert report.passed == (find_violated(sys, x, tol) is None)
        if m:
            # The same slack up to the rounding of a different dot product.
            con = sys.constraints[report.worst_index]
            scale = float(np.abs(con.normal) @ np.abs(x)) + abs(con.bound)
            slack = float(con.normal @ x) - con.bound
            assert report.min_slack == pytest.approx(slack, rel=0.0, abs=1e-12 * scale)


def test_one_dimensional_solve_honours_tolerance():
    # x >= 1 and x <= 1 - 1e-12 miss each other by less than the tolerance:
    # find_violated accepts x = 1, and the same rows in 2-D solve Feasible.
    rows = (Constraint(np.array([1.0]), 1.0), Constraint(np.array([-1.0]), -(1.0 - 1e-12)))
    sys = LinearSystem(1, rows, 2.0)
    assert find_violated(sys, np.array([1.0])) is None
    out = solve(sys, SolverConfig(epsilon=1e-6))
    assert isinstance(out, Feasible)
    assert certify(out, sys).passed
    assert out.point[0] == pytest.approx(1.0, abs=1e-8)

    planar = LinearSystem(
        2, tuple(Constraint(np.array([c.normal[0], 0.0]), c.bound) for c in rows), 2.0)
    assert isinstance(solve(planar, SolverConfig(epsilon=1e-6)), Feasible)

    strict = solve(sys, SolverConfig(epsilon=1e-6, violation_tolerance=0.0))
    assert isinstance(strict, VolumeExhausted)


@given(
    seeds,
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.0, 1e-9, 1e-6]),
    st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-3]),
)
@settings(max_examples=200, deadline=None)
def test_one_dimensional_solve_matches_exact_interval(seed, m, tol, gap):
    # Rows a*x >= b cluster around a common point x0, missing or overlapping
    # it by about ``gap`` relative, so intervals are often nearly empty.
    rng = np.random.default_rng(seed)
    radius = float(10.0 ** rng.uniform(-1.0, 3.0))
    x0 = float(rng.uniform(-1.2, 1.2) * radius)
    rows = []
    for _ in range(m):
        a = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        b = a * x0 * (1.0 + gap * rng.uniform(-1.0, 1.0)) + gap * rng.uniform(-1.0, 1.0)
        rows.append(Constraint(np.array([a]), b))
    sys = LinearSystem(1, tuple(rows), radius)
    out = solve(sys, SolverConfig(epsilon=1e-6, violation_tolerance=tol))

    # Exact reference: the interval where a*x >= b - tol*(1+|b|) holds for
    # every row, within [-R, R], in rational arithmetic.
    lo, hi = Fraction(-radius), Fraction(radius)
    for con in rows:
        a = Fraction(float(con.normal[0]))
        end = Fraction(con.bound - row_tolerance(tol, con.bound)) / a
        lo, hi = (max(lo, end), hi) if a > 0 else (lo, min(hi, end))
    # Within a few ulps of the ends the float and exact answers may differ.
    fuzz = Fraction(2.0 ** -48) * (1 + abs(lo) + abs(hi))
    if isinstance(out, Feasible):
        assert certify(out, sys, violation_tolerance=tol).passed
        assert lo - fuzz <= Fraction(float(out.point[0])) <= hi + fuzz
        assert hi - lo >= -fuzz
    else:
        assert isinstance(out, VolumeExhausted) and out.final_log_volume == -math.inf
        assert hi - lo <= fuzz


def test_one_row_one_dimensional_slack_at_zero_is_positive_zero():
    # -1e-9 x >= 0 with tol 1e-9 passes up to x = 1 = R, so the interval is
    # [-1, 1] and the point 0.0.  Its product -1e-9 * 0.0 is -0.0 as a
    # multiplication; as the @ form it is 0.0 + (-0.0) = 0.0, and so is the
    # slack.
    sys = LinearSystem(1, (Constraint(np.array([-1e-9]), 0.0),), 1.0)
    outcome = solve(sys, SolverConfig(epsilon=1e-3, violation_tolerance=1e-9))
    assert outcome.point.tobytes() == np.zeros(1).tobytes()
    report = certify(outcome, sys, violation_tolerance=1e-9)
    assert report.passed
    assert math.copysign(1.0, report.min_slack) == 1.0 and report.min_slack == 0.0


class MatmulDot(np.ndarray):
    """A view whose ``dot`` is ``@``: the solver's products in their @ form."""

    def dot(self, other):
        return self.view(np.ndarray) @ other


def awkward_system(rng, n: int, m: int) -> LinearSystem:
    """Rows of awkward entries (see instances), each with one moderate entry
    so that a.a > 0."""
    A = awkward_floats(rng, (m, n))
    A[np.arange(m), rng.integers(0, n, size=m)] = rng.normal(size=m) + 2.0
    b = awkward_floats(rng, m)
    return LinearSystem(n, tuple(Constraint(a, float(v)) for a, v in zip(A, b)), 1.0)


@given(
    seeds,
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=45),
    st.sampled_from([0.0, 1e-9]),
)
@settings(max_examples=200, deadline=None)
def test_packed_products_are_the_matmul_form_bit_for_bit(seed, n, m, tol):
    # find_violated and certify multiply the packed rows by a point through
    # ndarray.dot.  Its bytes are those of @ on that m x n layout, except
    # that a 1 x 1 dot can leave a zero negative where @ adds it to +0.0;
    # both functions then return what their @ form returns.
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        sys = awkward_system(rng, n, m)
        x = awkward_floats(rng, n)
        A, b = solver.as_arrays(sys)
        if A.size > 1:
            assert A.dot(x).tobytes() == (A @ x).tobytes()
        else:
            assert (A.dot(x) + 0.0).tobytes() == (A @ x).tobytes()

        hit = find_violated(sys, x, tol)
        report = certify(Feasible(x, 0), sys, violation_tolerance=tol)
        mp.setattr(solver, "as_arrays", lambda s: (A.view(MatmulDot), b))
        assert find_violated(sys, x, tol) == hit
        expected = certify(Feasible(x, 0), sys, violation_tolerance=tol)
    assert report.worst_index == expected.worst_index
    assert report.passed == expected.passed
    assert np.float64(report.min_slack).tobytes() == np.float64(expected.min_slack).tobytes()
