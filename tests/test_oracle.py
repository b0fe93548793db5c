"""Tests for the exact feasibility oracle."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellipsoid.oracle
from ellipsoid.oracle import (
    BALL_MARGIN,
    MAX_CONSTRAINTS,
    MAX_DIM,
    WITNESS_TOL,
    FeasibleWitness,
    Inconclusive,
    Infeasible,
    grid_feasibility_scan,
    vertex_enumeration_check,
)
from ellipsoid.solver import Constraint, Feasible, LinearSystem, as_arrays, certify
from instances import feasible_instance, infeasible_instance

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
    return LinearSystem(
        2,
        (
            Constraint(np.array([1.0, 0.0]), 1.0),
            Constraint(np.array([-1.0, 0.0]), 0.0),
        ),
        2.0,
    )


def assert_valid_witness(sys: LinearSystem, verdict) -> None:
    assert isinstance(verdict, FeasibleWitness)
    point = verdict.point
    assert float(np.linalg.norm(point)) <= sys.radius * (1.0 + 1e-12)
    for con in sys.constraints:
        assert con.normal @ point - con.bound >= -1e-12 * (1.0 + abs(con.bound))


def test_vertex_enumeration_reference_verdicts():
    assert_valid_witness(quadrant_system(), vertex_enumeration_check(quadrant_system()))
    assert vertex_enumeration_check(disjoint_system()) == Infeasible()
    empty = LinearSystem(2, (), 2.0)
    verdict = vertex_enumeration_check(empty)
    assert isinstance(verdict, FeasibleWitness)
    np.testing.assert_array_equal(verdict.point, np.zeros(2))


def test_vertex_enumeration_enforces_limits():
    assert (MAX_DIM, MAX_CONSTRAINTS) == (40, 240)
    with pytest.raises(ValueError):
        vertex_enumeration_check(LinearSystem(MAX_DIM + 1, (), 1.0))
    rows = tuple(Constraint(np.array([1.0, 0.0]), -3.0) for _ in range(MAX_CONSTRAINTS + 1))
    with pytest.raises(ValueError):
        vertex_enumeration_check(LinearSystem(2, rows, 1.0))
    edge = LinearSystem(MAX_DIM, tuple(Constraint(np.eye(MAX_DIM)[i % MAX_DIM], -3.0)
                                       for i in range(MAX_CONSTRAINTS)), 1.0)
    assert isinstance(vertex_enumeration_check(edge), FeasibleWitness)


def test_grid_scan_reference_verdicts():
    hit = grid_feasibility_scan(quadrant_system(), 41)
    assert_valid_witness(quadrant_system(), hit)
    miss = grid_feasibility_scan(disjoint_system(), 41)
    assert isinstance(miss, Inconclusive)
    empty = grid_feasibility_scan(LinearSystem(2, (), 2.0), 41)
    assert isinstance(empty, FeasibleWitness)


def test_grid_scan_enforces_limits():
    with pytest.raises(ValueError):
        grid_feasibility_scan(LinearSystem(4, (), 1.0), 41)
    with pytest.raises(ValueError):
        grid_feasibility_scan(quadrant_system(), 1)


def test_grid_scan_one_dimensional():
    sys = LinearSystem(1, (Constraint(np.array([1.0]), 0.5),), 2.0)
    hit = grid_feasibility_scan(sys, 41)
    assert isinstance(hit, FeasibleWitness)
    assert hit.point[0] >= 0.5 - 1e-12


def test_vertex_enumeration_one_dimensional():
    sys = LinearSystem(1, (Constraint(np.array([1.0]), 0.5),), 2.0)
    assert_valid_witness(sys, vertex_enumeration_check(sys))
    bad = LinearSystem(
        1,
        (Constraint(np.array([1.0]), 1.0), Constraint(np.array([-1.0]), 0.0)),
        2.0,
    )
    assert vertex_enumeration_check(bad) == Infeasible()


def test_dim_4_feasible_found_through_vertices():
    rows = tuple(Constraint(np.eye(4)[i], 0.1) for i in range(4))
    sys = LinearSystem(4, rows, 2.0)
    assert_valid_witness(sys, vertex_enumeration_check(sys))


def test_dim_4_verdicts_are_exact():
    # One tight row in dim 4: its least-norm point (1.75, 0, 0, 0) is the
    # witness.  The empty slab has no least-norm point at all.
    tight = LinearSystem(4, (Constraint(np.eye(4)[0], 1.75),), 2.0)
    verdict = vertex_enumeration_check(tight)
    assert_valid_witness(tight, verdict)
    np.testing.assert_array_equal(verdict.point, [1.75, 0.0, 0.0, 0.0])

    slab = LinearSystem(
        4,
        (Constraint(np.eye(4)[0], 1.0), Constraint(-np.eye(4)[0], 0.0)),
        2.0,
    )
    assert vertex_enumeration_check(slab) == Infeasible()


def test_witness_point_on_sphere_boundary():
    # The region meets the ball only in a thin cap; its least-norm point
    # (1.9, 0) is the witness.  At b = R the cap is the single point (R, 0).
    sys = LinearSystem(2, (Constraint(np.array([1.0, 0.0]), 1.9),), 2.0)
    assert_valid_witness(sys, vertex_enumeration_check(sys))
    touching = LinearSystem(2, (Constraint(np.array([1.0, 0.0]), 2.0),), 2.0)
    verdict = vertex_enumeration_check(touching)
    assert_valid_witness(touching, verdict)
    np.testing.assert_array_equal(verdict.point, [2.0, 0.0])
    beyond = LinearSystem(2, (Constraint(np.array([1.0, 0.0]), 2.0 + 1e-9),), 2.0)
    assert vertex_enumeration_check(beyond) == Infeasible()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_degenerate_rows(n):
    e1 = np.eye(n)[0]
    # The plane x1 = 1 as two opposite rows: a region of volume zero.
    plane = LinearSystem(n, (Constraint(e1, 1.0), Constraint(-e1, -1.0)), 2.0)
    verdict = vertex_enumeration_check(plane)
    assert_valid_witness(plane, verdict)
    np.testing.assert_array_equal(verdict.point, e1)
    # Opposite rows that leave a band, the band repeated three times.
    band = LinearSystem(n, (Constraint(e1, 0.5), Constraint(-e1, -1.5)) * 3, 2.0)
    assert_valid_witness(band, vertex_enumeration_check(band))
    # Opposite rows with no band between them, each row repeated.
    gap = LinearSystem(n, (Constraint(e1, 1.5), Constraint(-e1, -1.0)) * 4, 2.0)
    assert vertex_enumeration_check(gap) == Infeasible()
    # A duplicated row beside its scaled copy.
    rows = (Constraint(e1, 1.0), Constraint(e1, 1.0), Constraint(3.0 * e1, 3.0))
    twice = LinearSystem(n, rows, 2.0)
    assert_valid_witness(twice, vertex_enumeration_check(twice))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dependent_rows_do_not_hide_the_witness(n):
    # Every n-subset of these rows is linearly dependent (rank n - 1 at
    # most), so a witness must come from a smaller active set.
    rng = np.random.default_rng(n)
    basis = rng.normal(size=(n - 1, n))
    rows = []
    for _ in range(8):
        a = rng.normal(size=n - 1) @ basis
        rows.append(Constraint(a, float(a @ basis[0]) * 0.1 - 0.05))
    sys = LinearSystem(n, tuple(rows), 2.0)
    verdict = vertex_enumeration_check(sys)
    assert_valid_witness(sys, verdict)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10])
def test_nearly_opposite_rows_keep_their_witness(n, eps):
    # x1 >= 1 and -x1 + eps*x2 >= -1 + eps/2 meet in a wedge whose
    # least-norm point (1, 0.5, 0, ...) lies on both rows; every other
    # candidate misses a row by eps/2.  The two rows are nearly dependent,
    # so their projection must be computed without squaring their
    # conditioning, or it misses its own rows by more than the tolerance.
    e1, e2 = np.eye(n)[0], np.eye(n)[1]
    sys = LinearSystem(
        n, (Constraint(e1, 1.0), Constraint(-e1 + eps * e2, -1.0 + eps / 2)), 2.0
    )
    verdict = vertex_enumeration_check(sys)
    assert_valid_witness(sys, verdict)
    np.testing.assert_allclose(verdict.point, e1 + 0.5 * e2, rtol=0, atol=1e-6)
    assert certify(Feasible(verdict.point, 0), sys).passed


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_known_ball_instances_get_a_witness(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(2, 11))
    sys, _ = feasible_instance(rng, n, m)
    verdict = vertex_enumeration_check(sys)
    assert_valid_witness(sys, verdict)
    # The solver-side certifier agrees the witness is interior.
    assert certify(Feasible(verdict.point, 0), sys).passed


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_oracle_self_consistency(seed):
    # A coarse grid hit implies the full check can never say Infeasible.
    # Dim 2 keeps the dense fallback scan inside the negative branch cheap.
    rng = np.random.default_rng(seed)
    n = 2
    m = int(rng.integers(2, 11))
    if seed % 2 == 0:
        sys, _ = feasible_instance(rng, n, m)
    else:
        sys = infeasible_instance(rng, n, m)
    coarse = grid_feasibility_scan(sys, 21)
    full = vertex_enumeration_check(sys)
    if isinstance(coarse, FeasibleWitness):
        assert not isinstance(full, Infeasible)


# The oracle before the exact rewrite, kept as an independent reference:
# boundary vertices and sphere crossings, nudged into the interior, then the
# origin, then (n <= 3) a 401-point grid scan.  A witness it finds is a
# point with some interior around it, so the exact oracle must find one too.
REFERENCE_NUDGE = 1e-7
REFERENCE_GRID_POINTS = 401


def _reference_satisfies(sys: LinearSystem, x: np.ndarray) -> bool:
    if float(np.linalg.norm(x)) > sys.radius * (1.0 + 1e-12):
        return False
    return all(
        con.normal @ x - con.bound >= -1e-12 * (1.0 + abs(con.bound)) for con in sys.constraints
    )


def _reference_plane_vertices(sys: LinearSystem):
    n = sys.dim
    A = np.array([c.normal for c in sys.constraints])
    b = np.array([c.bound for c in sys.constraints])
    for idx in combinations(range(len(sys.constraints)), n):
        try:
            x = np.linalg.solve(A[list(idx)], b[list(idx)])
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(x)):
            yield x, list(idx)


def _reference_sphere_crossings(sys: LinearSystem):
    # Each (n-1)-subset of boundaries fixes a line p + t d; |p + t d| = R is
    # a quadratic in t.
    n, R = sys.dim, sys.radius
    if n == 1:
        yield np.array([-R]), []
        yield np.array([R]), []
        return
    A = np.array([c.normal for c in sys.constraints])
    b = np.array([c.bound for c in sys.constraints])
    for idx in combinations(range(len(sys.constraints)), n - 1):
        sub = A[list(idx)]
        if np.linalg.matrix_rank(sub, tol=1e-12) < n - 1:
            continue
        p, *_ = np.linalg.lstsq(sub, b[list(idx)], rcond=None)
        d = np.linalg.svd(sub)[2][-1]
        pd = float(p @ d)
        disc = pd * pd - (float(p @ p) - R * R)
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        for t in (-pd - root, -pd + root):
            yield p + t * d, list(idx)


def _reference_nudged(sys: LinearSystem, x: np.ndarray, active: list[int]) -> np.ndarray:
    direction = np.zeros(sys.dim)
    for i in active:
        a = sys.constraints[i].normal
        direction += a / np.linalg.norm(a)
    r = float(np.linalg.norm(x))
    if r > sys.radius * (1.0 - 1e-9) and r > 0.0:
        direction -= x / r
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return x
    return x + (REFERENCE_NUDGE * sys.radius / norm) * direction


def reference_vertex_enumeration_check(sys: LinearSystem):
    candidates = list(_reference_plane_vertices(sys))
    candidates.extend(_reference_sphere_crossings(sys))
    candidates.append((np.zeros(sys.dim), []))
    for x, active in candidates:
        y = _reference_nudged(sys, x, active)
        if _reference_satisfies(sys, y):
            return FeasibleWitness(y)
    if sys.dim > 3:
        return Inconclusive("no vertex witness and grid scan unavailable above dim 3")
    grid = grid_feasibility_scan(sys, REFERENCE_GRID_POINTS)
    if isinstance(grid, FeasibleWitness):
        return grid
    return Infeasible()


def random_planar_system(rng: np.random.Generator, kind: int | None = None) -> LinearSystem:
    """A 2-D system from one of five families, feasible or not."""
    if kind is None:
        kind = int(rng.integers(0, 5))
    m = int(rng.integers(1, 11))
    if kind == 0:
        return feasible_instance(rng, 2, m, rho=float(rng.uniform(1e-4, 0.2)))[0]
    if kind == 1:
        return infeasible_instance(rng, 2, max(m, 2))
    rows = [Constraint(rng.normal(size=2), float(rng.normal(scale=1.5))) for _ in range(m)]
    if kind == 3:
        # Duplicated and opposite copies of earlier rows.
        for con in list(rows):
            if rng.random() < 0.5:
                rows.append(Constraint(con.normal, con.bound))
            else:
                rows.append(Constraint(-con.normal, -con.bound - float(rng.uniform(-0.5, 0.5))))
    if kind == 4:
        # One to three rows and nearly opposite copies of them: thin bands,
        # feasible or not, whose pairs of rows are badly conditioned.
        rows = rows[: int(rng.integers(1, 4))]
        for con in list(rows):
            slack = float(rng.uniform(-1e-6, 1e-6))
            rows.append(Constraint(-con.normal + 1e-6 * rng.normal(size=2), -con.bound - slack))
    return LinearSystem(2, tuple(rows[:20]), 2.0)


@pytest.mark.parametrize("kind", [None, 4])
@given(seeds)
@settings(max_examples=100, deadline=None)
def test_exact_oracle_finds_every_reference_witness(kind, seed):
    # kind=None mixes all five families; kind=4 draws the badly conditioned
    # nearly opposite rows every time (the reference finds a witness in
    # about a third of them).
    sys = random_planar_system(np.random.default_rng(seed), kind)
    verdict = vertex_enumeration_check(sys)
    assert isinstance(verdict, (FeasibleWitness, Infeasible))
    if isinstance(verdict, FeasibleWitness):
        assert_valid_witness(sys, verdict)
        assert certify(Feasible(verdict.point, 0), sys).passed
    if isinstance(reference_vertex_enumeration_check(sys), FeasibleWitness):
        assert isinstance(verdict, FeasibleWitness)


@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=20))
@settings(max_examples=60, deadline=None)
def test_constructed_instances_get_their_verdict(seed, n, m):
    # Feasible instances hold a ball of radius rho inside the bounding ball;
    # infeasible ones are empty slabs, also in dim 4.
    rng = np.random.default_rng(seed)
    sys, _ = feasible_instance(rng, n, m)
    verdict = vertex_enumeration_check(sys)
    assert_valid_witness(sys, verdict)
    assert certify(Feasible(verdict.point, 0), sys).passed
    assert vertex_enumeration_check(infeasible_instance(rng, n, m)) == Infeasible()


# The subset-enumeration oracle, kept as a reference for the least-distance
# one: it projects the origin onto the hull of every subset of at most n
# rows, with no row left out, and factors each stack after a determinant
# test.
def _reference_solve_regular(M: np.ndarray, rhs: np.ndarray):
    singular = ~(np.linalg.det(M) != 0.0)
    M[singular] = np.eye(M.shape[-1])
    return np.linalg.solve(M, rhs), singular


def _reference_projections(A: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    m, n = A.shape
    idx = np.fromiter(chain.from_iterable(combinations(range(m), k)), np.intp)
    idx = idx.reshape(-1, k)
    rows, rhs = A[idx], b[idx][..., None]
    if k == n:
        x, singular = _reference_solve_regular(rows, rhs)
    else:
        q, r = np.linalg.qr(rows.transpose(0, 2, 1))
        y, singular = _reference_solve_regular(r.transpose(0, 2, 1), rhs)
        x = q @ y
    return x[~singular, :, 0]


def reference_exact_oracle(sys: LinearSystem):
    n, m = sys.dim, len(sys.constraints)
    A = np.array([con.normal for con in sys.constraints]).reshape(m, n)
    b = np.fromiter((con.bound for con in sys.constraints), float, m)
    with np.errstate(all="ignore"):
        points = np.concatenate(
            [np.zeros((1, n))]
            + [_reference_projections(A, b, k) for k in range(1, min(n, m) + 1)]
        )
        norms = np.linalg.norm(points, axis=1)
        ok = norms <= sys.radius * (1.0 + WITNESS_TOL)
        ok &= np.all(points @ A.T - b >= -WITNESS_TOL * (1.0 + np.abs(b)), axis=1)
    for i in np.flatnonzero(ok)[np.argsort(norms[ok], kind="stable")]:
        if _reference_satisfies(sys, points[i]):
            return FeasibleWitness(points[i])
    return Infeasible()


def _ulp_steps(x: float, steps: int) -> float:
    toward = math.inf if steps > 0 else 0.0
    for _ in range(abs(steps)):
        x = math.nextafter(x, toward)
    return x


def _presolve_distance(rng: np.random.Generator, kind: int, radius: float) -> float:
    """|b| / ||a|| for one row: inside the ball, at the acceptance radius to
    a few ulps, around the presolve's BALL_MARGIN threshold, or far outside."""
    limit = radius * (1.0 + WITNESS_TOL)
    if kind == 0:
        return float(rng.uniform(0.0, radius))
    if kind == 1:
        return _ulp_steps(limit, int(rng.integers(-4, 5)))
    if kind == 2:
        past = radius * (1.0 + BALL_MARGIN * float(rng.choice([0.5, 1.0, 1.5, 2.0])))
        return _ulp_steps(past, int(rng.integers(-4, 5)))
    return float(rng.uniform(1.5, 10.0)) * radius


def presolve_system(rng: np.random.Generator, n: int, m: int, all_far: bool) -> LinearSystem:
    """Rows with norms from 1e-8 to 1e8 at every kind of distance, plus
    duplicate, opposite and nearly opposite copies of some of them."""
    radius = 2.0
    # The share of rows whose half-space holds the origin.
    holds = float(rng.uniform(0.6, 1.0))
    rows = []
    while len(rows) < m:
        a = rng.normal(size=n)
        a *= 10.0 ** float(rng.uniform(-8.0, 8.0)) / float(np.linalg.norm(a))
        kind = int(rng.integers(2, 4)) if all_far else int(rng.integers(0, 4))
        # A far row that holds the origin holds on the whole ball (like
        # padding); one that does not makes the system empty.
        sign = -1.0 if rng.random() < holds else 1.0
        norm = float(np.linalg.norm(a))
        distance = _presolve_distance(rng, kind, radius)
        b = sign * distance * norm
        rows.append(Constraint(a, b))
        copy = int(rng.integers(0, 4))
        if copy == 1:
            rows.append(Constraint(a, b))
        elif copy == 2:
            # The band b <= a . x <= b + width, empty when width < 0.
            width = float(rng.uniform(-0.1, 1.0)) * (distance + radius) * norm
            rows.append(Constraint(-a, -b - width))
        elif copy == 3 and kind <= 1:
            bent = -a + 1e-6 * norm * rng.normal(size=n)
            rows.append(Constraint(bent, -b - float(rng.uniform(-2e-7, 1e-6)) * norm))
    return LinearSystem(n, tuple(rows[:m]), radius)


def exact_witness(sys: LinearSystem, x: np.ndarray) -> bool:
    """Whether x lies in the ball and holds every row, in exact arithmetic."""
    X = [Fraction(v) for v in x.tolist()]
    if sum(v * v for v in X) > Fraction(sys.radius) ** 2:
        return False
    return all(
        sum(Fraction(a) * v for a, v in zip(con.normal.tolist(), X)) >= Fraction(con.bound)
        for con in sys.constraints
    )


def exact_certificate(A: np.ndarray, b: np.ndarray, radius: float, y: np.ndarray) -> bool:
    """y >= 0, y.b > 0 and (y.b)^2 > R^2 ||A^T y||^2, in exact arithmetic."""
    Y = [Fraction(v) for v in y.tolist()]
    if any(v < 0 for v in Y):
        return False
    s = sum((v * Fraction(bi) for v, bi in zip(Y, b.tolist())), Fraction(0))
    column = [sum((v * Fraction(a) for v, a in zip(Y, A[:, j].tolist())), Fraction(0))
              for j in range(A.shape[1])]
    return s > 0 and s * s > Fraction(radius) ** 2 * sum(c * c for c in column)


@given(seeds, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=8),
       st.floats(min_value=-1e-15, max_value=1e-15))
@settings(max_examples=300, deadline=None)
def test_integer_certificate_check_equals_fractions(seed, n, m, tilt):
    # Rows scaled by e^+-8, some multipliers zero (all of them, or none at
    # m = 0), and y.b moved to within about `tilt` of R ||A^T y||, where
    # the float products cannot tell the answer.
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n)) * np.exp(rng.uniform(-8.0, 8.0, size=(m, 1)))
    b = rng.normal(size=m) * np.exp(rng.uniform(-8.0, 8.0, size=m))
    y = rng.exponential(size=m) * (rng.random(m) < 0.7)
    radius = float(np.exp(rng.uniform(-2.0, 2.0)))
    if m and rng.random() < 0.7 and y @ y > 0.0:
        target = radius * float(np.linalg.norm(A.T @ y)) * (1.0 + tilt)
        b = b + (target - float(y @ b)) * y / float(y @ y)
    if m and rng.random() < 0.1:
        y[int(rng.integers(0, m))] = -1.0
    assert ellipsoid.oracle._certifies(A, b, radius, y) == exact_certificate(A, b, radius, y)


@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=20),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_ldp_oracle_matches_the_full_enumeration(seed, n, m, all_far):
    sys = presolve_system(np.random.default_rng(seed), n, m, all_far)
    verdict, reference = vertex_enumeration_check(sys), reference_exact_oracle(sys)
    # Each verdict proves itself: a witness within the tolerance, or a
    # certificate that holds exactly.
    if isinstance(verdict, FeasibleWitness):
        assert_valid_witness(sys, verdict)
    else:
        assert isinstance(verdict, Infeasible)
        assert exact_certificate(*as_arrays(sys), sys.radius, verdict.y)
    same = type(verdict) is type(reference) and (
        isinstance(verdict, Infeasible) or verdict.point.tobytes() == reference.point.tobytes())
    if same:
        return
    # The two oracles may part only over a witness that needs the tolerance.
    witnesses = [v.point for v in (verdict, reference) if isinstance(v, FeasibleWitness)]
    assert not all(exact_witness(sys, x) for x in witnesses)


def padding_rows(rng: np.random.Generator, n: int, count: int):
    # a . x >= -3 with |a| = 1 holds on the whole ball of radius 2.
    return tuple(Constraint(a / np.linalg.norm(a), -3.0) for a in rng.normal(size=(count, n)))


def test_padding_rows_never_reach_the_nnls(monkeypatch):
    rng = np.random.default_rng(14)
    e1 = np.eye(4)[0]
    slab = (Constraint(e1, 1.0), Constraint(-e1, 0.0))
    sys = LinearSystem(4, slab + padding_rows(rng, 4, 18), 2.0)
    seen = []
    nnls = ellipsoid.oracle._nnls

    def recording(E, f):
        seen.append(E.copy())
        return nnls(E, f)

    monkeypatch.setattr(ellipsoid.oracle, "_nnls", recording)
    verdict = vertex_enumeration_check(sys)
    assert verdict == Infeasible()
    # Only the slab's own rows, scaled to unit norm, with their bounds below.
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], [[1.0, -1.0], [0, 0], [0, 0], [0, 0], [1.0, 0.0]])
    # The certificate puts no weight on the padding.
    assert np.all(verdict.y[2:] == 0.0)
    assert exact_certificate(*as_arrays(sys), sys.radius, verdict.y)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_padding_rows_leave_the_witness_unchanged(n):
    rng = np.random.default_rng(n)
    sys, _ = feasible_instance(rng, n, 6)
    padded = LinearSystem(n, sys.constraints + padding_rows(rng, n, 14), sys.radius)
    verdict, padded_verdict = vertex_enumeration_check(sys), vertex_enumeration_check(padded)
    assert_valid_witness(padded, padded_verdict)
    assert padded_verdict.point.tobytes() == verdict.point.tobytes()


def test_exactly_singular_active_stack_is_rejected_not_raised():
    # Two equal rows as an n = 2 active set: the LU solve of an exactly
    # singular stack raises LinAlgError, so it yields no candidate, and the
    # next candidate, -r[:n] / r[n], still comes.
    A, b = np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([1.0, 1.0])
    r = np.array([0.5, 0.25, -0.5])
    with np.errstate(all="ignore"):
        (last,) = ellipsoid.oracle._candidates(A, b, np.array([0, 1]), r)
    assert last.tobytes() == np.array([1.0, 0.5]).tobytes()


@pytest.mark.parametrize("copies", [1, 4])
def test_gap_with_a_singular_active_stack_keeps_its_certificate(copies, monkeypatch):
    # x1 >= 1.5 and x1 <= 1: the NNLS ends with both rows active, so k = n
    # and A_S = [e1; -e1] is singular.  The verdict and the bytes of y are
    # those of the np.linalg.solve path, which raised LinAlgError there.
    e1 = np.eye(2)[0]
    sys = LinearSystem(2, (Constraint(e1, 1.5), Constraint(-e1, -1.0)) * copies, 2.0)
    stacks = []
    candidates = ellipsoid.oracle._candidates

    def recording(A, b, active, r):
        stacks.append(active.tolist())
        return candidates(A, b, active, r)

    monkeypatch.setattr(ellipsoid.oracle, "_candidates", recording)
    verdict = vertex_enumeration_check(sys)
    assert stacks == [[0, 1]]
    assert isinstance(verdict, Infeasible)
    expected = np.zeros(2 * copies)
    expected[:2] = float.fromhex("0x1.0000000000003p+1"), float.fromhex("0x1.0000000000005p+1")
    assert verdict.y.tobytes() == expected.tobytes()
    assert exact_certificate(*as_arrays(sys), sys.radius, verdict.y)
